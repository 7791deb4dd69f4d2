"""The package's public surface, and the source rules that keep one check per concept."""

import ast
import types
from pathlib import Path

import koopmanix

# public names that were removed; none may come back as a stale export
REMOVED = ("consecutive_pairs", "predict_step", "pseudo_inverse")


def test_public_names_resolve():
    namespace = {}
    exec("from koopmanix import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(koopmanix.__all__)
    assert len(koopmanix.__all__) == len(set(koopmanix.__all__))
    public = {
        name for name, value in vars(koopmanix).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(koopmanix.__all__) - {"__version__"} == public
    for name in REMOVED:
        assert not hasattr(koopmanix, name)


# The hand-written number checks allowed outside statespace: none.  Every
# count goes through statespace._count and every real through
# statespace._real, from a Python caller, a config key, a setting flag or a
# file field alike, so no module but statespace may use _is_int, _is_real or
# math.isfinite.
NUMBER_CHECKS_ALLOWED = []


def _number_checks(tree, scope: str) -> list[str]:
    """'<scope>: <check>' for each use of _is_int, _is_real or math.isfinite, scoped by def, class or assignment."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}"
        elif isinstance(node, ast.Assign) and isinstance(tree, ast.Module):
            inner = f"{scope}.{ast.unparse(node.targets[0])}"
        if isinstance(node, ast.Name) and node.id in ("_is_int", "_is_real") and isinstance(node.ctx, ast.Load):
            found.append(f"{scope}: {node.id}")
        if isinstance(node, ast.Attribute) and node.attr == "isfinite" and getattr(node.value, "id", None) == "math":
            found.append(f"{scope}: math.isfinite")
        found += _number_checks(node, inner)
    return found


def test_number_checks_go_through_statespace():
    source = Path(koopmanix.__file__).parent
    found = []
    for path in sorted(source.glob("*.py")):
        if path.name != "statespace.py":
            found += _number_checks(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sorted(found) == NUMBER_CHECKS_ALLOWED


# Every keyed block, from a Python caller, a config file or a saved file
# alike, checks its keys through statespace._keys, so no module but
# statespace may word a key error.
KEY_WORDS = ("unknown key", "accepted keys")


def test_key_checks_go_through_statespace():
    source = Path(koopmanix.__file__).parent
    found = [f"{path.stem}: {word}" for path in sorted(source.glob("*.py")) if path.name != "statespace.py"
             for word in KEY_WORDS if word in path.read_text(encoding="utf-8")]
    assert found == []


# Every array a caller or a file hands the package is read through
# statespace._array, so no module but statespace may read one with
# np.asarray.
def test_array_reads_go_through_statespace():
    source = Path(koopmanix.__file__).parent
    found = [path.stem for path in sorted(source.glob("*.py"))
             if path.name != "statespace.py" and "asarray" in path.read_text(encoding="utf-8")]
    assert found == []
