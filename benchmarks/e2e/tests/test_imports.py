"""End-to-end metrics may depend only on the public surface."""

import ast
import os

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ALLOWED = {
    "repro": {"Cluster", "ClusterConfig", "explore_schedules", "check_all",
              "Trace"},
    "repro.net": {"NetworkConfig"},
}


def _repro_imports(path):
    with open(path) as source:
        tree = ast.parse(source.read())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "repro"]
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "repro":
            found += [(node.module, alias.name) for alias in node.names]
    return found


def test_end_to_end_files_import_only_the_public_names():
    for filename in ("run.py", "workloads.py", "loadgen.py", "selfcheck.py",
                     "compare.py", "stats.py", "metrics.py"):
        for module, name in _repro_imports(os.path.join(E2E, filename)):
            assert name is not None, \
                "%s: plain 'import %s'" % (filename, module)
            assert name in ALLOWED.get(module, ()), \
                "%s imports %s from %s" % (filename, name, module)


def test_only_the_boundary_table_reaches_below_the_surface():
    deep = []
    for filename in sorted(os.listdir(E2E)):
        if filename.endswith(".py"):
            for module, name in _repro_imports(os.path.join(E2E, filename)):
                if name not in ALLOWED.get(module, ()):
                    deep.append(filename)
    assert set(deep) <= {"boundaries.py"}
