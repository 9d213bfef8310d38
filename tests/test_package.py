"""The public surface: ``sparse_rips.__all__`` against what ``__init__`` binds."""

import ast
import inspect
import subprocess
import sys
import types

import sparse_rips as sr


def names_bound_in_init():
    """Public non-module names that ``sparse_rips/__init__.py`` imports or assigns."""
    names = set()
    for node in ast.parse(inspect.getsource(sr)).body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")
            and not isinstance(getattr(sr, name), types.ModuleType)}


def test_every_exported_name_resolves():
    assert [name for name in sr.__all__ if not hasattr(sr, name)] == []


def test_exports_have_no_duplicates():
    assert len(sr.__all__) == len(set(sr.__all__))


def test_exports_are_the_names_bound_in_init():
    assert set(sr.__all__) == names_bound_in_init()


def test_import_leaves_the_graph_routines_unloaded():
    # compare.py and metric.py import scipy.sparse.csgraph where they call it
    code = ("import sys, sparse_rips, sparse_rips.cli; "
            "assert 'scipy.sparse.csgraph' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True)
