"""Verification campaigns: many seeded adversarial runs, one verdict.

A campaign is the poor man's model checker: for each seed it *generates*
a declarative :class:`~repro.harness.schedule.ActionSchedule` from the
seed, *replays* it against a fresh cluster under client load, then
quiesces and checks the six PO broadcast properties plus replica-state
convergence.  Each run's outcome is that replay's
:class:`~repro.harness.replay.ReplayResult`.  Because generation and
execution are decoupled, a failing seed is more than a verdict: its
schedule is attached to the outcome, serializable to JSON, replayable
bit for bit, and shrinkable to a minimal repro with
``python -m repro shrink``.

Used by ``python -m repro campaign``, by E4b (the ``"partition"``
profile) and by the long-running integration tests.
"""

import time

from repro.bench.formats import render_table
from repro.bench.report import write_report
from repro.common.pool import partition_items, process_pool
from repro.harness.config import ClusterConfig
from repro.harness.replay import replay_schedule, signature_json
from repro.harness.schedule import PROFILES
from repro.obs.metrics import StreamingHistogram

#: Schema tag of the machine-readable campaign report.  The report is
#: deliberately wall-clock-free: two runs of the same seeds — serial,
#: or merged from any number of parallel workers — must serialise to
#: byte-identical JSON (the parallel-smoke CI job ``cmp``s them).
CAMPAIGN_SCHEMA = "repro-campaign/v1"


def run_adversarial_campaign(seeds, config=None, steps=10,
                             step_interval=0.5, op_interval=0.02,
                             with_health=False, profile="default",
                             workers=1):
    """Run one adversarial scenario per seed; returns [ReplayResult].

    Each run replays its seed's schedule on a cluster built from
    *config* (default ``ClusterConfig()``) at that seed; its
    ``n_voters`` also sizes the adversary.  With ``with_health=True``
    every run is ``replay_schedule(..., health=True)``, so each outcome
    carries a finished health monitor and a loss audit alongside the
    property verdict — the campaign's answer to "it didn't violate
    anything, but was it *healthy*?".
    *profile* names the adversary in
    :data:`~repro.harness.schedule.PROFILES`: ``"default"`` crashes and
    partitions, ``"ops"`` adds snapshots, retention-driven compaction,
    one-way cuts and clock skews to the mix, and ``"partition"`` only
    partitions (E4b).  ``workers > 1`` deals the seeds round-robin to
    that many processes; outcomes come back in seed order either way,
    each stamped with the worker that ran it and its wall-clock
    ``elapsed``, so reports are byte-identical.  Outcomes drop their
    ``cluster`` and ``report``: they pickle across workers, and a
    serial campaign does not keep every cluster alive.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    kwargs = dict(
        config=config or ClusterConfig(), steps=steps,
        step_interval=step_interval, op_interval=op_interval,
        with_health=with_health, profile=profile,
    )
    seeds = list(seeds)
    if workers == 1 or len(seeds) <= 1:
        return [_one_run(seed, **kwargs) for seed in seeds]
    chunks = [
        chunk for chunk in partition_items(enumerate(seeds), workers)
        if chunk
    ]
    with process_pool(len(chunks)) as pool:
        per_chunk = pool.map(
            _run_chunk, [(chunk, kwargs) for chunk in chunks]
        )
    outcomes = [None] * len(seeds)
    for worker_id, chunk_outcomes in enumerate(per_chunk):
        for index, outcome in chunk_outcomes:
            outcome.worker = worker_id
            outcomes[index] = outcome
    return outcomes


def _run_chunk(payload):
    """Pool task: run one chunk of (index, seed) pairs serially."""
    chunk, kwargs = payload
    return [(index, _one_run(seed, **kwargs)) for index, seed in chunk]


def _one_run(seed, config, steps, step_interval, op_interval, with_health,
             profile):
    started = time.perf_counter()
    if profile not in PROFILES:
        raise ValueError("unknown campaign profile: %r" % (profile,))
    schedule = PROFILES[profile](
        seed, n_voters=config.n_voters, steps=steps,
        step_interval=step_interval, op_interval=op_interval,
    )
    result = replay_schedule(
        schedule, config, op_interval=op_interval, health=with_health,
    )
    result.cluster = result.report = None
    result.elapsed = time.perf_counter() - started
    result.worker = 0
    return result


def render_campaign(outcomes):
    """Summary table plus a verdict line.

    The table is sorted by seed and every aggregate is computed over
    the outcome *values*, never their positions — merged multi-worker
    outcome lists render identically however the runs were interleaved.
    When any outcome carries parallel attribution stamps, a ``worker``
    and a wall-clock ``ms`` column join the table.
    """
    ordered = sorted(outcomes, key=lambda outcome: outcome.seed)
    with_health = any(outcome.health is not None for outcome in ordered)
    with_worker = any(outcome.worker is not None for outcome in ordered)
    rows = [
        (
            outcome.seed,
            "pass" if outcome.passed else "FAIL",
            len(outcome.schedule),
            max(outcome.epochs) if outcome.epochs else 0,
            outcome.deliveries,
        )
        + (
            (
                outcome.health.summary()["verdict"]
                if outcome.health is not None
                else "-",
            )
            if with_health else ()
        )
        + (
            (
                "-" if outcome.worker is None else outcome.worker,
                "-" if outcome.elapsed is None
                else "%.0f" % (outcome.elapsed * 1e3),
            )
            if with_worker else ()
        )
        + (
            outcome.error or ", ".join(outcome.violations) or
            ("diverged" if not outcome.converged else ""),
        )
        for outcome in ordered
    ]
    table = render_table(
        ["seed", "verdict", "faults", "max epoch", "deliveries"]
        + (["health"] if with_health else [])
        + (["worker", "ms"] if with_worker else []) + ["notes"],
        rows,
        title="Adversarial campaign (%d runs)" % len(ordered),
    )
    failed = [outcome for outcome in ordered if not outcome.passed]
    verdict = (
        "ALL %d RUNS PASSED" % len(ordered)
        if not failed
        else "%d/%d RUNS FAILED (seeds: %s)"
        % (len(failed), len(ordered),
           [outcome.seed for outcome in failed])
    )
    lines = [table, verdict]
    for outcome in failed:
        lines.append("")
        lines.append(
            "seed %d schedule (replay with `repro shrink --seed %d`):"
            % (outcome.seed, outcome.seed)
        )
        lines.append(outcome.schedule.dumps())
    return "\n".join(lines)


def campaign_report(outcomes, params=None):
    """Machine-readable campaign verdict (``repro-campaign/v1``).

    Contains only simulation-deterministic facts: per-seed verdicts,
    violation signatures, failing schedules, and the latency sketch
    merged across runs with :meth:`StreamingHistogram.merge` (exact at
    the bucket level, so the merged percentiles equal a single
    histogram that observed every run's samples).  Wall-clock elapsed
    and worker stamps are deliberately left out — they live on the
    outcomes and the rendered table — which is what
    makes serial and N-worker reports byte-identical.
    """
    runs = []
    merged_latency = StreamingHistogram()
    for outcome in sorted(outcomes, key=lambda outcome: outcome.seed):
        row = {
            "seed": outcome.seed,
            "passed": outcome.passed,
            "ok": outcome.ok,
            "converged": outcome.converged,
            "violations": sorted(outcome.violations),
            "signature": signature_json(outcome.signature),
            "deliveries": outcome.deliveries,
            "epochs": sorted(outcome.epochs),
            "actions": len(outcome.schedule),
            "error": outcome.error,
        }
        if outcome.health is not None:
            row["health"] = outcome.health.summary()
        if outcome.latency is not None:
            merged_latency.merge(outcome.latency)
            row["latency"] = outcome.latency.snapshot()
        if not outcome.passed:
            row["schedule"] = outcome.schedule.to_json()
        runs.append(row)
    failed = sorted(
        outcome.seed for outcome in outcomes if not outcome.passed
    )
    return {
        "schema": CAMPAIGN_SCHEMA,
        "params": params or {},
        "runs": runs,
        "summary": {
            "runs": len(runs),
            "passed": len(runs) - len(failed),
            "failed_seeds": failed,
            "deliveries": sum(
                outcome.deliveries for outcome in outcomes
            ),
            "latency": merged_latency.snapshot(),
        },
    }


def write_campaign_report(outcomes, path, params=None):
    """Write :func:`campaign_report` as sorted, indented JSON."""
    return write_report(campaign_report(outcomes, params=params), path)
