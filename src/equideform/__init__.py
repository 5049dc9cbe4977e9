"""Exact dimension counts for wild p-group actions on curves.

The tangent space of the equivariant deformation functor of a p-group
action on a curve has dimension equal to dim H^0(X, Omega^(x2))_G, and
for the ramification patterns covered here that number collapses to
explicit closed forms in the branch data.  This package evaluates those
closed forms over exact arithmetic and, independently, recomputes the
same numbers from first principles:

* :mod:`equideform.gf` -- table-driven finite fields GF(p^m);
* :mod:`equideform.ramification` -- higher ramification filtrations,
  Hilbert differents, cyclic jump patterns;
* :mod:`equideform.cover` / :mod:`equideform.divisors` -- branch data of
  a cover, invariant divisors, floor pushforwards, the Tot count;
* :mod:`equideform.formulas` -- the closed-form dimension formulas;
* :mod:`equideform.homology` -- chain-level group homology of the
  punctual quadratic differentials;
* :mod:`equideform.localfield` -- truncated Laurent series, normalized
  Artin-Schreier extensions, ramification jumps, (Z/p)^n towers;
* :mod:`equideform.ascurve` -- explicit curves y^p - y = f(x) with their
  monomial Riemann-Roch bases and Jordan decompositions, the
  ground-truth oracle for everything above;
* :mod:`equideform.cli` -- the ``equideform`` command.

The names in ``__all__`` resolve on first access, each from the submodule
named in ``_SOURCE``, so ``import equideform`` loads no submodule and a
caller pays only for the layers it uses.  The closed forms (``formulas``,
``cover``, ``divisors``, ``ramification``) run without numpy; ``gf``,
``kernels``, ``homology``, ``localfield`` and ``ascurve`` load it.
"""

import importlib

__version__ = "0.1.0"

# each public name and the submodule that defines it
_SOURCE = {
    "ASCurve": "ascurve",
    "JordanDecomposition": "ascurve",
    "parse_laurent": "ascurve",
    "BranchOrbit": "cover",
    "CoverData": "cover",
    "OrbitDivisor": "divisors",
    "QuotientDivisor": "divisors",
    "floor_pushforward_closed": "divisors",
    "floor_pushforward_iterated": "divisors",
    "pullback": "divisors",
    "tot_riemann_roch": "divisors",
    "EquideformError": "errors",
    "InternalError": "errors",
    "PreconditionError": "errors",
    "ValidationError": "errors",
    "DimensionReport": "formulas",
    "HomologyDims": "formulas",
    "dim_cyclic": "formulas",
    "dim_from_nilpotent_part": "formulas",
    "dim_tame": "formulas",
    "dim_weakly_ramified": "formulas",
    "free_rank_aug": "formulas",
    "hasse_arf_identity_rhs": "formulas",
    "homology_dims_closed": "formulas",
    "m_regular_cyclic_p": "formulas",
    "p_rank_free_rank": "formulas",
    "regular_multiplicity_nilpotent_part": "formulas",
    "FFElem": "gf",
    "FiniteField": "gf",
    "make_field": "gf",
    "AlphaBeta": "homology",
    "ChainComplex": "homology",
    "build_complex": "homology",
    "closed_form": "homology",
    "homology_dims": "homology",
    "random_alpha_beta": "homology",
    "ASExtension": "localfield",
    "LaurentSeriesTrunc": "localfield",
    "SemigroupReport": "localfield",
    "Tower": "localfield",
    "as_normalize": "localfield",
    "build_extension": "localfield",
    "compose": "localfield",
    "default_tower": "localfield",
    "extract_alpha_beta": "localfield",
    "measure_jump": "localfield",
    "series": "localfield",
    "weierstrass_check": "localfield",
    "JumpData": "ramification",
    "RamificationFiltration": "ramification",
    "lower_to_upper": "ramification",
}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _SOURCE[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
