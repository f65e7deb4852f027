"""The package's public surface, and code that left it.

Every name in ``zdinfty.__all__`` resolves.  The two-branch ring elements,
their polynomials and the ``MixedIndex`` error live in ``oracle_ring``, and
``mat_scale``, ``vec_scale`` and ``reduce_against`` in ``oracle_membership``:
no library module defines, imports or reads them, since no computation does
(the library combines and reduces by products).  ``min_jump`` is gone from
``GradedLattice``: ``jump_list[0]`` is the lowest jump.  ``quiver_window``
takes no field, because the window is the same over every field.
``direct_sum_many`` is the one public direct sum: the two-term
``direct_sum`` is gone.  ``FieldSpec`` formats no scalar, and
``no_proj_no_inj_witness`` takes the object alone, since Serre duality
fixes both twists at 1.

Each module declares its public names in its own ``__all__``, and
``zdinfty.__all__`` is their union: every declared name is defined at the
top level of the module that declares it, so no module re-exports another's.

Every top-level function, class and method in the package has a reader, or
it is public.  A reader is code, not text: an attribute or an import of the
name anywhere in ``src``, or the bare name in its own module; a docstring or
comment that names it is none.  A name in its module's ``__all__`` is public,
and so are the methods of a public class.  The allowlist names each exception
with its reason.  README's public-names table gives each module's row as that
module's ``__all__``, in order.
"""

import ast
import inspect
import re
from pathlib import Path

import zdinfty
from zdinfty import ar, objects
from zdinfty.fields import FieldSpec

SRC = Path(zdinfty.__file__).resolve().parent
README = SRC.parent.parent / "README.md"
GONE = {
    "Poly", "RmElement", "ring_one", "ring_u", "ring_v", "MixedIndex", "mat_scale",
    "from_filtration", "freeze", "vec_scale", "reduce_against", "min_jump",
}
# definitions no src code reads, each kept for a stated reason
UNREAD_ALLOWED = {
    "homext.validate_morphism": "the planned `verify` command checks a recorded map with it",
    "decomp.is_isomorphism":
        "the planned `verify` command checks a recorded decomposition map with it",
}


def declared_names(tree):
    """The names a module's ``__all__`` list declares; none when it has no list."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
            return ast.literal_eval(node.value)
    return []


def _trees(src):
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(src.glob("*.py"))}


def _declared_by_module(trees):
    """module -> its ``__all__``, for each module of the package that has one."""
    declared = {module: declared_names(tree) for module, tree in trees.items()}
    return {module: names for module, names in declared.items() if names}


def test_each_module_declares_the_names_it_defines():
    trees = _trees(SRC)
    declared = _declared_by_module(trees)
    assert sorted(zdinfty.__all__) == sorted(n for names in declared.values() for n in names)
    # errors, linalg, window and cli export nothing, and __init__ lists no name
    assert not {"errors", "linalg", "window", "cli", "__init__"} & set(declared)
    for module, names in declared.items():
        defined = set()
        for node in trees[module].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
        assert set(names) <= defined, (module, set(names) - defined)
        assert getattr(zdinfty, module).__all__ == names


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


def _definitions(tree):
    """(name, public) of each top-level function and class of a module and
    of each method of its top-level classes, dunders left out: public when
    the name, or for a method its class, is in the module's ``__all__``."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    declared = declared_names(tree)
    for node in tree.body:
        if isinstance(node, kinds):
            public = node.name in declared
            subs = node.body if isinstance(node, ast.ClassDef) else ()
            for d in (node, *(sub for sub in subs if isinstance(sub, kinds))):
                if not (d.name.startswith("__") and d.name.endswith("__")):
                    yield d.name, public


def unread_definitions(src):
    """``module.name`` of each definition in the package at ``src`` that is
    not public and that no code reads: no attribute or import of the name
    anywhere, and no bare name in its own module."""
    trees = _trees(src)
    anywhere, bare = set(), {}
    for module, tree in trees.items():
        bare[module] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                bare[module].add(node.id)
            elif isinstance(node, ast.Attribute):
                anywhere.add(node.attr)
            elif isinstance(node, ast.alias):
                anywhere.add(node.name)
    return {
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, public in _definitions(tree)
        if not public and name not in anywhere and name not in bare[module]
    }


def test_every_definition_has_a_reader():
    assert unread_definitions(SRC) == set(UNREAD_ALLOWED)


def test_readme_library_section_names_every_public_name():
    section = README.read_text().split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    table = section.split("| module | public names |\n| --- | --- |\n", 1)[1]
    rows = {}
    for line in table.split("\n\n", 1)[0].splitlines():
        module, names = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line).groups()
        rows[module] = re.findall(r"`(\w+)`", names)
    assert rows == _declared_by_module(_trees(SRC))
