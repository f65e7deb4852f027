"""The package's public surface, and code that left it.

Every name in ``zdinfty.__all__`` resolves.  The two-branch ring elements,
their polynomials and the ``MixedIndex`` error live in ``oracle_ring`` and
``mat_scale`` in ``oracle_membership``: no library module defines, imports
or reads them, since no computation does.  ``quiver_window`` takes no field,
because the window is the same over every field.  ``direct_sum_many`` is the
one public direct sum: the two-term ``direct_sum`` is gone.  ``FieldSpec``
formats no scalar, and ``no_proj_no_inj_witness`` takes the object alone,
since Serre duality fixes both twists at 1.
"""

import ast
import inspect
from pathlib import Path

import zdinfty
from zdinfty import ar, objects
from zdinfty.fields import FieldSpec

SRC = Path(zdinfty.__file__).resolve().parent
GONE = {"Poly", "RmElement", "ring_one", "ring_u", "ring_v", "MixedIndex", "mat_scale"}


def test_every_public_name_resolves():
    assert len(set(zdinfty.__all__)) == len(zdinfty.__all__)
    for name in zdinfty.__all__:
        assert getattr(zdinfty, name) is not None, name
    assert not GONE & set(zdinfty.__all__)


def _names(tree):
    """Every name a module defines or reads, and every module path part and
    name it imports, as two sets."""
    used, imported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            used.add(node.name)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            imported.update(node.name.split("."))
            imported.add(node.asname)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.update(node.module.split("."))
    return used, imported


def test_no_module_defines_or_imports_the_ring():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "singularity.py" in modules
    assert not (SRC / "poly.py").exists()
    for path in modules:
        used, imported = _names(ast.parse(path.read_text(), filename=str(path)))
        assert not GONE & (used | imported), (path.name, GONE & (used | imported))
        assert "poly" not in imported, path.name


def test_quiver_window_takes_no_field():
    params = inspect.signature(ar.quiver_window).parameters
    assert list(params) == ["m_max", "a_min", "a_max", "n_max"]


def test_direct_sum_many_is_the_one_sum_constructor():
    assert "direct_sum_many" in zdinfty.__all__
    assert "direct_sum" not in zdinfty.__all__
    assert not hasattr(zdinfty, "direct_sum") and not hasattr(objects, "direct_sum")


def test_field_spec_formats_no_scalar():
    assert not hasattr(FieldSpec, "fmt")


def test_witness_takes_the_object_alone():
    assert list(inspect.signature(ar.no_proj_no_inj_witness).parameters) == ["X"]
