"""Every example in examples/ runs green, in-process.

The examples double as executable documentation; breaking one is
breaking the README.  They run entirely in simulated time, so the whole
sweep costs a few seconds.
"""

import importlib.util
import os
import sys

import pytest

EXAMPLES_DIR = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples"
)

EXAMPLES = [
    "quickstart",
    "lock_service",
    "config_service",
    "paxos_vs_zab",
    "failover_demo",
    "wan_deployment",
    "bank_transfers",
    "worker_pool",
    "custom_state_machine",
]


def load_example(name, monkeypatch):
    # Like ``python examples/<name>.py``: sibling modules are importable.
    monkeypatch.syspath_prepend(EXAMPLES_DIR)
    path = os.path.join(EXAMPLES_DIR, name + ".py")
    spec = importlib.util.spec_from_file_location(
        "example_" + name, path
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, capsys, monkeypatch):
    module = load_example(name, monkeypatch)
    module.main()   # examples assert their own claims internally
    out = capsys.readouterr().out
    assert out.strip()  # every example narrates what it shows
