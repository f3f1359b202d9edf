"""Every ``repro`` import in the docs' python examples resolves.

The documents show the library through fenced ``python`` blocks; a name
that a refactor deletes or moves leaves those examples importing
something that is no longer there.  This test parses each block with
:mod:`ast` and resolves every ``import repro...`` and ``from repro...
import name`` against the tree under test: a module must import, and a
``from`` name must be an attribute or a submodule of it.
"""

import ast
import glob
import importlib
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")

DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"] + sorted(
    os.path.relpath(path, ROOT)
    for path in glob.glob(os.path.join(ROOT, "docs", "*.md"))
)

_FENCE = re.compile(r"^```(\w*)[^\n]*\n(.*?)^```", re.M | re.S)


def _is_repro(module):
    return module is not None and module.split(".")[0] == "repro"


def doc_imports(doc):
    """[(module, name or None)] for every repro import in *doc*'s
    python blocks."""
    with open(os.path.join(ROOT, doc), encoding="utf-8") as handle:
        text = handle.read()
    found = []
    for match in _FENCE.finditer(text):
        if match.group(1) not in ("python", "py"):
            continue
        for node in ast.walk(ast.parse(match.group(2), filename=doc)):
            if isinstance(node, ast.Import):
                found.extend(
                    (alias.name, None) for alias in node.names
                    if _is_repro(alias.name)
                )
            elif isinstance(node, ast.ImportFrom) and _is_repro(node.module):
                found.extend((node.module, alias.name) for alias in node.names)
    return found


def _resolves(module, name):
    try:
        imported = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(imported, name):
        return True
    try:
        importlib.import_module("%s.%s" % (module, name))
    except ImportError:
        return False
    return True


def test_docs_show_repro_imports():
    # The scan itself must see the examples, or the test below is vacuous.
    assert sum(len(doc_imports(doc)) for doc in DOCS) > 50


@pytest.mark.parametrize("doc", DOCS)
def test_every_repro_import_in_a_doc_resolves(doc):
    broken = [
        "%s%s" % (module, "" if name is None else " import " + name)
        for module, name in doc_imports(doc)
        if not _resolves(module, name)
    ]
    assert not broken, "%s imports missing names: %s" % (
        doc, ", ".join(broken))
