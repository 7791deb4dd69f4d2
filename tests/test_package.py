"""The package's public surface: `__all__` names exactly what the package exports."""

import types

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
