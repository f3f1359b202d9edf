#!/usr/bin/env python
"""Guard the stable public API surface against unreviewed drift.

Snapshots ``repro.__all__`` plus the call signature of every exported
callable (classes snapshot their ``__init__``) and compares against the
committed ``scripts/api_snapshot.json``.  Any mismatch — a name added or
removed, a parameter renamed, a default changed, keyword-onlyness
altered — fails with a diff, so API changes only land together with a
reviewed snapshot update.

Usage::

    python scripts/check_public_api.py          # verify
    python scripts/check_public_api.py --update # re-snapshot

Runs in CI alongside the tier-1 tests (also wrapped by
``tests/test_public_api.py`` so a plain pytest run covers it).
"""

import inspect
import json
import os
import sys

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
)

SNAPSHOT_PATH = os.path.join(os.path.dirname(__file__),
                             "api_snapshot.json")


def describe_signature(obj):
    """A stable string form of *obj*'s call signature."""
    target = obj.__init__ if inspect.isclass(obj) else obj
    try:
        return str(inspect.signature(target))
    except (TypeError, ValueError):
        return "<unintrospectable>"


def current_surface():
    import repro

    surface = {"__all__": sorted(repro.__all__)}
    signatures = {}
    for name in repro.__all__:
        obj = getattr(repro, name)
        if callable(obj):
            signatures[name] = describe_signature(obj)
        else:
            signatures[name] = "<%s>" % type(obj).__name__
    surface["signatures"] = signatures
    return surface


def diff_surfaces(snapshot, current):
    problems = []
    old_names = set(snapshot["__all__"])
    new_names = set(current["__all__"])
    for name in sorted(old_names - new_names):
        problems.append("removed from __all__: %s" % name)
    for name in sorted(new_names - old_names):
        problems.append("added to __all__: %s" % name)
    old_sigs = snapshot["signatures"]
    new_sigs = current["signatures"]
    for name in sorted(old_names & new_names):
        if old_sigs.get(name) != new_sigs.get(name):
            problems.append(
                "signature drift: %s\n  snapshot: %s\n  current:  %s"
                % (name, old_sigs.get(name), new_sigs.get(name))
            )
    return problems


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    current = current_surface()
    if "--update" in argv:
        with open(SNAPSHOT_PATH, "w", encoding="utf-8") as f:
            json.dump(current, f, indent=2, sort_keys=True)
            f.write("\n")
        print("snapshot updated: %s (%d names)"
              % (SNAPSHOT_PATH, len(current["__all__"])))
        return 0
    if not os.path.exists(SNAPSHOT_PATH):
        print("missing %s; run with --update to create it"
              % SNAPSHOT_PATH, file=sys.stderr)
        return 2
    with open(SNAPSHOT_PATH, encoding="utf-8") as f:
        snapshot = json.load(f)
    problems = diff_surfaces(snapshot, current)
    if problems:
        print("public API drifted from scripts/api_snapshot.json:",
              file=sys.stderr)
        for problem in problems:
            print("- " + problem, file=sys.stderr)
        print("\nif intentional, rerun with --update and commit the "
              "new snapshot.", file=sys.stderr)
        return 1
    print("public API matches snapshot (%d names)"
          % len(current["__all__"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
