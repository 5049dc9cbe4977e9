"""The public surface: every exported name resolves, and nothing public hides
outside ``__all__``, so a name removed from a module cannot linger."""

import importlib
import inspect
import pkgutil
import types

import pytest

import equideform

MODULES = ["equideform"] + [
    "equideform." + info.name for info in pkgutil.iter_modules(equideform.__path__)
]

# modules whose surface was trimmed, pinned whole
PINNED = {
    "equideform.divisors": [
        "OrbitDivisor", "QuotientDivisor", "floor_pushforward_closed",
        "floor_pushforward_iterated", "tot_riemann_roch", "pullback",
    ],
    "equideform.gf": ["FiniteField", "FFElem", "make_field", "pth_root"],
    "equideform.localfield": [
        "LaurentSeriesTrunc", "series", "zero_series", "compose", "as_normalize",
        "ASExtension", "build_extension", "measure_jump", "extract_alpha_beta",
        "artin_schreier_root", "TowerElement", "Tower", "default_tower",
        "SemigroupReport", "weierstrass_check",
    ],
    "equideform.ramification": [
        "RamificationFiltration", "JumpData", "lower_to_upper", "upper_to_lower",
        "different_from_jumps",
    ],
}


def _public_definitions(module):
    return {
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == module.__name__
    }


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, missing


@pytest.mark.parametrize(
    "name", [m for m in MODULES[1:] if hasattr(importlib.import_module(m), "__all__")]
)
def test_public_definitions_are_exported(name):
    module = importlib.import_module(name)
    assert _public_definitions(module) <= set(module.__all__)


def test_package_exports_only_submodule_exports():
    # dir() and getattr, not vars(): the package binds a name on first access
    exports = {}
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        for n in getattr(module, "__all__", _public_definitions(module)):
            exports.setdefault(n, []).append(getattr(module, n))
    assert set(equideform.__all__) <= set(exports)
    for n in equideform.__all__:
        assert any(getattr(equideform, n) is obj for obj in exports[n]), n
    public = {
        n for n in dir(equideform)
        if not n.startswith("_") and not isinstance(getattr(equideform, n), types.ModuleType)
    }
    assert public == set(equideform.__all__)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_trimmed_surfaces(name):
    module = importlib.import_module(name)
    assert module.__all__ == PINNED[name]


def test_kernels_hold_one_build_per_operation():
    from equideform import kernels

    assert sorted(n for n in vars(kernels) if not n.startswith("__")) == [
        "matmul", "np", "rank",
    ]
