"""The package's public names and imports."""

import ast
from pathlib import Path

import qhedge


def test_every_public_name_resolves_once():
    """Each name in ``__all__`` is listed once and resolves on the package,
    so a deleted function cannot linger in the public list."""
    names = qhedge.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(qhedge, n)] == []


def test_no_module_imports_a_name_it_never_uses():
    """Every name a module of the package imports is used in it, so a
    deleted helper leaves no import behind; ``__init__`` imports only to
    re-export."""
    unused = {}
    for path in sorted(Path(qhedge.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}


def test_one_module_steps_the_portfolio():
    """The self-financing step Pi_t = gamma (Pi_(t+1) - u_t dS_t) is taken
    only by ``portfolio._replicate``: no other module of the package names
    ``_pi_step``, so every solver rolls its portfolio through that one
    recursion."""
    steppers = [path.name for path in sorted(Path(qhedge.__file__).parent.glob("*.py"))
                if "_pi_step" in path.read_text()]
    assert steppers == ["portfolio.py"]
