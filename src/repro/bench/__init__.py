"""Benchmark toolkit: metrics, workload drivers, experiment runners.

Everything measures **simulated time**: throughput is committed
transactions per simulated second, latency is submit-to-commit in
simulated seconds.  Absolute values depend on the network/disk models
configured; the experiments in :mod:`repro.bench.experiments` are about
*shapes* (scaling curves, knees, dips), per EXPERIMENTS.md.

Wall-clock cost of the simulation machinery itself is measured by
``benchmarks/e2e/run.py``.
"""

from repro.bench.campaign import run_adversarial_campaign
from repro.bench.metrics import Timeline
from repro.bench.runner import BenchResult, run_broadcast_bench
from repro.bench.workloads import ClosedLoopDriver, OpenLoopDriver

__all__ = [
    "Timeline",
    "BenchResult",
    "run_broadcast_bench",
    "run_adversarial_campaign",
    "ClosedLoopDriver",
    "OpenLoopDriver",
]
