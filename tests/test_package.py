"""The package's public names, no module-level name left without a use, and
no private name imported from a sibling module."""

import ast
from pathlib import Path

import thickpoints

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_every_public_name_resolves():
    missing = [name for name in thickpoints.__all__ if not hasattr(thickpoints, name)]
    assert not missing
    assert len(set(thickpoints.__all__)) == len(thickpoints.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from thickpoints import *", namespace)
    assert set(thickpoints.__all__) <= set(namespace)


def _names_used(node) -> set[str]:
    """Every name read or bound, and every attribute taken, under node."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _tracer_names() -> set[str]:
    """The names perfbench/tracer.py wraps: its CUE_FUNCTIONS and
    MEASURES_FUNCTIONS tuples and the literal names it passes to wrap.  The
    source is parsed, not imported."""
    names = set()
    for node in ast.walk(ast.parse(TRACER.read_text())):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("CUE_FUNCTIONS", "MEASURES_FUNCTIONS")
            for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wrap"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            names.add(node.args[1].value)
    return names


def _defined(statement) -> set[str]:
    """The names a module-level statement defines: a function or class, or
    the non-dunder names an assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return {
            node.id
            for target in targets
            for node in ast.walk(target)
            if isinstance(node, ast.Name)
            and not (node.id.startswith("__") and node.id.endswith("__"))
        }
    return set()


def test_every_module_level_definition_is_used():
    # a function, class or constant defined at module level must be used
    # somewhere in src/ outside its own definition, be public, or be wrapped
    # by the benchmark's tracer
    statements = [
        statement
        for path in sorted(Path(thickpoints.__file__).parent.glob("*.py"))
        for statement in ast.parse(path.read_text()).body
    ]
    uses = [_names_used(statement) for statement in statements]
    unused = {
        name
        for i, statement in enumerate(statements)
        for name in _defined(statement)
        if not any(name in names for j, names in enumerate(uses) if j != i)
    } - set(thickpoints.__all__)
    traced = _tracer_names()
    assert unused <= traced, f"no use in src/: {sorted(unused - traced)}"
    # only the tracer keeps these three; they are to move into tests/conftest.py
    assert unused == {"truncated_field", "eval_field_at", "barrier_mask"}


def test_no_module_imports_a_private_name_from_a_sibling():
    # a name a sibling module needs is public there, so renaming a private
    # helper never breaks another module
    package = Path(thickpoints.__file__).parent
    private = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "thickpoints")
        for alias in node.names
        if alias.name.startswith("_") and alias.name != "__version__"
    ]
    assert not private, f"private names imported from a sibling: {private}"
