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
"""

from .ascurve import ASCurve, JordanDecomposition, parse_laurent
from .cover import BranchOrbit, CoverData
from .divisors import (
    OrbitDivisor,
    QuotientDivisor,
    floor_pushforward_closed,
    floor_pushforward_iterated,
    pullback,
    tot_riemann_roch,
)
from .errors import EquideformError, InternalError, PreconditionError, ValidationError
from .formulas import (
    DimensionReport,
    HomologyDims,
    dim_cyclic,
    dim_from_nilpotent_part,
    dim_tame,
    dim_weakly_ramified,
    free_rank_aug,
    hasse_arf_identity_rhs,
    homology_dims_closed,
    m_regular_cyclic_p,
    p_rank_free_rank,
    regular_multiplicity_nilpotent_part,
)
from .gf import FFElem, FiniteField, make_field
from .homology import (
    AlphaBeta,
    ChainComplex,
    build_complex,
    closed_form,
    homology_dims,
    random_alpha_beta,
)
from .localfield import (
    ASExtension,
    LaurentSeriesTrunc,
    SemigroupReport,
    Tower,
    as_normalize,
    build_extension,
    compose,
    default_tower,
    extract_alpha_beta,
    measure_jump,
    series,
    weierstrass_check,
)
from .ramification import JumpData, RamificationFiltration, lower_to_upper

__version__ = "0.1.0"

__all__ = [
    "ASCurve",
    "ASExtension",
    "AlphaBeta",
    "BranchOrbit",
    "ChainComplex",
    "CoverData",
    "DimensionReport",
    "EquideformError",
    "FFElem",
    "FiniteField",
    "HomologyDims",
    "InternalError",
    "JordanDecomposition",
    "JumpData",
    "LaurentSeriesTrunc",
    "OrbitDivisor",
    "PreconditionError",
    "QuotientDivisor",
    "RamificationFiltration",
    "SemigroupReport",
    "Tower",
    "ValidationError",
    "as_normalize",
    "build_complex",
    "build_extension",
    "closed_form",
    "compose",
    "default_tower",
    "dim_cyclic",
    "dim_from_nilpotent_part",
    "dim_tame",
    "dim_weakly_ramified",
    "extract_alpha_beta",
    "floor_pushforward_closed",
    "floor_pushforward_iterated",
    "free_rank_aug",
    "hasse_arf_identity_rhs",
    "homology_dims",
    "homology_dims_closed",
    "lower_to_upper",
    "m_regular_cyclic_p",
    "make_field",
    "measure_jump",
    "p_rank_free_rank",
    "parse_laurent",
    "pullback",
    "random_alpha_beta",
    "regular_multiplicity_nilpotent_part",
    "series",
    "tot_riemann_roch",
    "weierstrass_check",
]
