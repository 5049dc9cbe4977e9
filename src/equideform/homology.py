"""Group homology of an elementary abelian p-group on the punctual sections.

Locally at a weakly ramified point the sections of the twisted quadratic
differentials along 3 R_red form a 3-dimensional space V = <w1, w2, w3> on
which g in G = (Z/p)^s acts unipotently through two functions
alpha, beta: G -> k:

    g(w1) = w1
    g(w2) = w2 + 2 alpha(g) w1
    g(w3) = w3 + alpha(g) w2 + beta(g) w1

alpha is an injective homomorphism (that is weak ramification); beta obeys
the cocycle-like rule beta(gh) = beta(g) + 2 alpha(g) alpha(h) + beta(h),
which holds for *any* choice of beta on the s generators, so
:class:`AlphaBeta` stores exactly the generator values.

``build_complex`` assembles the start of the standard free resolution for
(Z/p)^s tensored with V:

    C_2 --d2--> C_1 --d1--> V,   C_1 = V^s,  C_2 = V^s + V^(s choose 2),

where d1 acts on the i-th summand by g_i - 1, d2 acts on the i-th "norm"
summand by 1 + g_i + ... + g_i^(p-1) and on the (i, j) summand (i < j) by
g_j - 1 into slot i and 1 - g_i into slot j.  Every block is written
directly as a code matrix: g_i - 1 is strictly upper triangular with
entries (2 alpha_i, beta_i, alpha_i), and since x^p - 1 = (x - 1)^p over
F_p the norm is computed as (g_i - 1)^(p-1), at most two products of 3 x 3
code matrices because (g_i - 1)^3 = 0.  Then

    h0 = 3 - rank d1,    h1 = (3s - rank d1) - rank d2.

``closed_form`` is the independent prediction: (1, s) for p > 3,
(1, s - 1) for p = 3, and for p = 2 only the difference h0 - h1, namely
3 - 2s when beta is a k-multiple of alpha and 2 - s otherwise.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AlphaNotInjectiveError, ValidationError
from .formulas import HomologyDims
from .gf import make_field

__all__ = [
    "AlphaBeta",
    "ChainComplex",
    "build_complex",
    "homology_dims",
    "closed_form",
    "random_alpha_beta",
]


@dataclass(frozen=True)
class AlphaBeta:
    """Values of alpha and beta on the s generators of (Z/p)^s."""

    field: object
    s: int
    alpha: tuple
    beta: tuple

    def __post_init__(self):
        if self.s < 1:
            raise ValidationError("rank s must be >= 1")
        alpha = tuple(self.field(a) for a in self.alpha)
        beta = tuple(self.field(b) for b in self.beta)
        if len(alpha) != self.s or len(beta) != self.s:
            raise ValidationError(
                "alpha and beta must each have %d entries" % self.s
            )
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def p(self):
        return self.field.p

    def alpha_injective(self):
        """alpha injective on (Z/p)^s <=> its values F_p-linearly independent."""
        # the digit rows of alpha already are GF(p) codes
        digits = np.array([a.coeffs for a in self.alpha], dtype=np.int64)
        return make_field(self.p).rank(digits) == self.s

    def beta_multiple_of_alpha(self):
        """Exact linear dependence of (beta_i) on (alpha_i) over k."""
        for i in range(self.s):
            for j in range(i + 1, self.s):
                if self.alpha[i] * self.beta[j] != self.alpha[j] * self.beta[i]:
                    return False
        return True


@dataclass(frozen=True)
class ChainComplex:
    """The two differentials as code matrices over the field."""

    field: object
    s: int
    d1: np.ndarray
    d2: np.ndarray


def _strictly_upper(entries):
    """3 x 3 code matrix with entries (0, 1), (0, 2), (1, 2) and zeros elsewhere."""
    mat = np.zeros((3, 3), dtype=np.int64)
    mat[(0, 0, 1), (1, 2, 2)] = [x.code() for x in entries]
    return mat


def build_complex(ab):
    """Assemble d1 (3 x 3s) and d2 (3s x 3(s + s(s-1)/2)) for alpha, beta."""
    f = ab.field
    s = ab.s
    entries = [(2 * a, b, a) for a, b in zip(ab.alpha, ab.beta)]
    gen_minus_1 = [_strictly_upper(e) for e in entries]
    one_minus_gen = [_strictly_upper([-x for x in e]) for e in entries]
    # the norm (g - 1)^(p-1); the powers stop at the first zero one
    norms = []
    for nil in gen_minus_1:
        power = nil
        for _ in range(ab.p - 2):
            if not power.any():
                break
            power = f.matmul(power, nil)
        norms.append(power)

    d1 = np.hstack(gen_minus_1)
    pairs = [(i, j) for i in range(s) for j in range(i + 1, s)]
    d2 = np.zeros((3 * s, 3 * (s + len(pairs))), dtype=np.int64)
    for i in range(s):
        d2[3 * i : 3 * i + 3, 3 * i : 3 * i + 3] = norms[i]
    for col, (i, j) in enumerate(pairs, start=s):
        block = slice(3 * col, 3 * col + 3)
        d2[3 * i : 3 * i + 3, block] = gen_minus_1[j]
        d2[3 * j : 3 * j + 3, block] = one_minus_gen[i]
    return ChainComplex(f, s, d1, d2)


def homology_dims(ab_or_complex):
    """(h0, h1) of G acting on V, by explicit ranks of the complex."""
    cx = ab_or_complex
    if isinstance(cx, AlphaBeta):
        cx = build_complex(cx)
    r1 = cx.field.rank(cx.d1)
    r2 = cx.field.rank(cx.d2)
    h0 = 3 - r1
    h1 = (3 * cx.s - r1) - r2
    return h0, h1


def closed_form(ab):
    """The predicted homology dimensions from the classification.

    Returns a :class:`HomologyDims`; for p = 2 only the difference is
    meaningful.  Requires alpha injective.
    """
    if not ab.alpha_injective():
        raise AlphaNotInjectiveError(
            "alpha values are F_%d-linearly dependent" % ab.p
        )
    if ab.p > 3:
        return HomologyDims(1, ab.s, 1 - ab.s)
    if ab.p == 3:
        return HomologyDims(1, ab.s - 1, 2 - ab.s)
    if ab.beta_multiple_of_alpha():
        return HomologyDims(None, None, 3 - 2 * ab.s)
    return HomologyDims(None, None, 2 - ab.s)


def random_alpha_beta(p, s, rng, beta_mode="free", field=None):
    """Random AlphaBeta with injective alpha.

    ``beta_mode``: "free" draws beta uniformly; "multiple" forces
    beta = c * alpha for a random c; "independent" redraws until beta is
    *not* a multiple of alpha (needs s >= 2).  The field defaults to
    GF(p^s), the smallest carrying an injective alpha.
    """
    if field is None:
        field = make_field(p, s)
    if field.m < s:
        raise ValidationError(
            "GF(%d^%d) is too small for injective alpha with s = %d"
            % (p, field.m, s)
        )
    while True:
        alpha = tuple(field.sample(rng) for _ in range(s))
        probe = AlphaBeta(field, s, alpha, (field.zero,) * s)
        if probe.alpha_injective():
            break
    if beta_mode == "multiple":
        c = field.sample(rng)
        beta = tuple(c * a for a in alpha)
    elif beta_mode == "independent":
        if s < 2:
            raise ValidationError("beta independent of alpha needs s >= 2")
        while True:
            beta = tuple(field.sample(rng) for _ in range(s))
            if not AlphaBeta(field, s, alpha, beta).beta_multiple_of_alpha():
                break
    elif beta_mode == "free":
        beta = tuple(field.sample(rng) for _ in range(s))
    else:
        raise ValueError("unknown beta_mode %r" % (beta_mode,))
    return AlphaBeta(field, s, alpha, beta)
