"""Every module under ``src/repro`` is reached from an entry point.

The walk follows static imports, function-level ones included, from
``repro``, ``repro.cli`` and ``repro.__main__``.  A module that nothing
reaches is dead weight unless an open ROADMAP item owns it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
ENTRY_POINTS = ("repro", "repro.cli", "repro.__main__")

#: Unreached modules kept on purpose, each with the ROADMAP item owning it.
OWNED = {
    "repro.app.dedup": "C: the client-visible exactly-once property",
}


def _module_path(name):
    base = SRC.joinpath(*name.split("."))
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.is_file():
            return path
    return None


def _imported_names(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            for alias in node.names:
                yield "%s.%s" % (node.module, alias.name)


def _reached():
    seen, todo = set(), list(ENTRY_POINTS)
    while todo:
        name = todo.pop()
        path = _module_path(name)
        if name in seen or path is None:
            continue
        seen.add(name)
        parents = name.split(".")
        todo.extend(".".join(parents[:i]) for i in range(1, len(parents)))
        todo.extend(_imported_names(path))
    return seen


def test_every_src_module_is_reached_or_owned():
    modules = set()
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        modules.add(".".join(p for p in parts if p != "__init__"))
    assert sorted(modules - _reached()) == sorted(OWNED)
