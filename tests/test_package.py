"""The package's public names, no module-level name left without a use, no
private name imported from a sibling module, and no dotted name in the
README or the sources that the package lacks."""

import ast
import importlib
import re
from pathlib import Path

import thickpoints

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
    # somewhere in src/ outside its own definition, or be public
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
    assert not unused, f"no use in src/: {sorted(unused)}"


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


MODULE_NAMES = re.compile(r"\b(cue|kernels|measures|montecarlo|special_fn|gaussian|cli)\.([A-Za-z_]\w*)")


def test_every_dotted_name_in_the_readme_and_sources_resolves():
    # a renamed or deleted function leaves no stale module.name behind in
    # the prose that describes it
    package = Path(thickpoints.__file__).parent
    texts = [package.parents[1] / "README.md", *sorted(package.glob("*.py"))]
    cited = {
        (path.name, *match.groups())
        for path in texts
        for match in MODULE_NAMES.finditer(path.read_text())
    }
    assert cited
    stale = sorted(
        f"{where}: {module}.{name}"
        for where, module, name in cited
        if not hasattr(importlib.import_module(f"thickpoints.{module}"), name)
    )
    assert not stale, f"names that do not resolve: {stale}"
