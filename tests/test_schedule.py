"""Unit tests for declarative action schedules (repro.harness.schedule)."""

import pathlib
import re

import pytest

from repro.common.errors import ConfigError
from repro.harness.schedule import KINDS, Action, ActionSchedule

FAULT_REPRO = (
    pathlib.Path(__file__).resolve().parent.parent / "docs" / "FAULT_REPRO.md"
)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        Action(1.0, "meteor-strike")


def test_partition_requires_groups():
    with pytest.raises(ConfigError):
        Action(1.0, "partition", [])


def test_add_chains_and_keeps_time_order():
    schedule = (
        ActionSchedule()
        .add(2.0, "heal")
        .add(1.0, "crash", 1)
        .add(3.0, "recover", 1)
    )
    assert [action.kind for action in schedule] == [
        "crash", "heal", "recover",
    ]
    assert len(schedule) == 3
    assert schedule[0] == Action(1.0, "crash", 1)


def test_json_round_trip_is_identity():
    schedule = (
        ActionSchedule(meta={"seed": 9, "n_voters": 5})
        .add(0.5, "crash", 2)
        .add(1.0, "partition", [[1, 3], [2]])
        .add(1.5, "heal")
        .add(2.0, "crash_leader")
        .add(2.5, "submit", 10)
    )
    reloaded = ActionSchedule.loads(schedule.dumps())
    assert reloaded == schedule
    assert reloaded.meta == schedule.meta
    # and once more through the pretty-printed form
    assert ActionSchedule.loads(schedule.dumps(indent=2)) == schedule


def test_save_load_round_trip(tmp_path):
    schedule = ActionSchedule(meta={"seed": 1}).add(1.0, "crash", 3)
    path = schedule.save(str(tmp_path / "schedule.json"))
    assert ActionSchedule.load(path) == schedule


def test_partition_groups_normalised_sorted():
    action = Action(1.0, "partition", [[3, 1], [2]])
    assert action.target == [[1, 3], [2]]
    assert Action.from_json(action.to_json()) == action


def test_generate_is_deterministic_and_seed_sensitive():
    first = ActionSchedule.generate(7, n_voters=3, steps=10)
    again = ActionSchedule.generate(7, n_voters=3, steps=10)
    assert first == again
    assert len(first) == 10
    different = [
        seed for seed in range(5)
        if ActionSchedule.generate(seed, n_voters=3, steps=10) != first
    ]
    assert different, "every seed produced the same schedule"


def test_generate_never_crashes_beyond_minority():
    for seed in range(10):
        schedule = ActionSchedule.generate(seed, n_voters=5, steps=20)
        down = set()
        for action in schedule:
            if action.kind == "crash":
                down.add(action.target)
            elif action.kind == "recover":
                down.discard(action.target)
            assert len(down) <= 2  # (5 - 1) // 2


def test_replace_actions_preserves_meta():
    schedule = ActionSchedule(meta={"seed": 4}).add(1.0, "heal")
    trimmed = schedule.replace_actions([])
    assert len(trimmed) == 0
    assert trimmed.meta == {"seed": 4}
    assert len(schedule) == 1  # original untouched


def test_fault_repro_action_table_lists_every_kind():
    rows = re.findall(r"^\| `(\w+)` +\|", FAULT_REPRO.read_text(), re.M)
    assert sorted(rows) == sorted(KINDS)
