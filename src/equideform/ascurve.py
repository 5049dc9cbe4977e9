"""Explicit Artin-Schreier curves as a ground-truth oracle.

A curve y^p - y = f(x) with f a Laurent polynomial whose poles sit at
x = 0 and/or x = infinity, each of order coprime to p, carries the cyclic
action sigma: y -> y + 1 of G = Z/p.  Over each pole of f there is one
totally ramified point with single lower jump equal to the pole order;
everywhere else the quotient map is unramified, so the quotient is the
projective line and the genus comes out of Riemann-Hurwitz.

On such a curve the spaces L(D), for D supported on the ramified points,
have an explicit monomial basis: the x^a y^b (0 <= b < p) whose pole
orders fit D.  Distinctness of the valuations (gcd(N, p) = 1) makes the
filtered monomials independent, and Riemann-Roch fixes the count, which
is verified on every call.  The sigma-action is binomial expansion of
(y + 1)^b, so ranks of powers of (sigma - 1) give the Jordan block
structure of any such L(D) as a k[G]-module; those numbers are what the
closed-form dimension formulas are tested against.

sigma sends x^a y^b into the span of the x^a y^b', so sigma - 1 is
block-diagonal up to a permutation, with blocks of size at most p, and
most blocks repeat.  ``decompose`` reads the blocks off the nonzero
pattern of the matrix itself (not off the monomial bookkeeping) and
ranks the powers of each distinct block once.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .cover import BranchOrbit, CoverData
from .divisors import OrbitDivisor, QuotientDivisor
from .errors import (
    BasisNotStableError,
    DegreeTooSmallError,
    DimensionMismatchError,
    GenusTooSmallError,
    NotRamifiedHereError,
    ValidationError,
)
from .gf import make_field
from .localfield import build_extension, series
from .ramification import RamificationFiltration

__all__ = [
    "ASCurve",
    "JordanDecomposition",
    "parse_laurent",
]

# Cap on dim L(D): sigma_matrix fills a dense dim x dim int64 matrix, and
# 4096^2 int64 is 128 MiB, the budget of the field tables and of a series
# window.  The largest L(D) of the test suite and of the benchmark
# workloads has dim 936 (L(2K + 3 R_red) for p = 17, f = x^40), 4.4 times
# below the cap; oracle --p 1000003 --f x^3 would need dim 3e6 (65 TiB).
_MAX_DIM = 4096

_TERM_RE = re.compile(
    r"^\s*(?P<coeff>\d+)?\s*\*?\s*(?P<var>x)?\s*(?:\^\s*(?P<exp>-?\d+))?\s*$"
)


def parse_laurent(text):
    """Parse "x^3", "x + x^-1", "2*x^2 + 3" into {exponent: int coefficient}."""
    # shield exponent signs ("x^-1") from the term split, restore them after
    guarded = re.sub(r"\^\s*-", "^~", text.strip())
    pieces = re.split(r"([+-])", guarded)
    signed = []
    if pieces[0].strip():
        signed.append(("+", pieces[0]))
    signed.extend(zip(pieces[1::2], pieces[2::2]))
    if not signed:
        raise ValidationError("cannot parse %r as a Laurent polynomial" % text)
    out = {}
    for sign, term in signed:
        m = _TERM_RE.match(term.replace("~", "-"))
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise ValidationError("cannot parse term %r in %r" % (term.strip(), text))
        coeff = int(m.group("coeff") or 1)
        if sign == "-":
            coeff = -coeff
        if m.group("var"):
            exp = int(m.group("exp") or 1)
        else:
            if m.group("exp") is not None:
                raise ValidationError("cannot parse term %r in %r" % (term.strip(), text))
            exp = 0
        out[exp] = out.get(exp, 0) + coeff
    return {e: c for e, c in out.items() if c != 0}


@dataclass(frozen=True)
class JordanDecomposition:
    """Jordan block data of a unipotent cyclic-p action on a space.

    ``ranks[i]`` is rank((sigma - 1)^i) for i = 0..p, ``mult[l - 1]`` the
    number of Jordan blocks of size l, and ``tot`` the number of blocks,
    which is the dimension of the coinvariants.
    """

    p: int
    dim: int
    ranks: tuple
    mult: tuple

    def __post_init__(self):
        if len(self.ranks) != self.p + 1 or len(self.mult) != self.p:
            raise ValidationError("ranks must cover i = 0..p, mult l = 1..p")
        if self.ranks[0] != self.dim or self.ranks[self.p] != 0:
            raise ValidationError("rank sequence must run from dim down to 0")
        if any(a < b for a, b in zip(self.ranks, self.ranks[1:])):
            raise ValidationError("ranks of powers must be non-increasing")
        if any(m < 0 for m in self.mult):
            raise ValidationError("negative block multiplicity")
        if sum(l * m for l, m in enumerate(self.mult, start=1)) != self.dim:
            raise ValidationError("block sizes do not add up to the dimension")

    @property
    def tot(self):
        """Number of indecomposable summands (= dim of coinvariants)."""
        return self.ranks[0] - self.ranks[1]

    def multiplicity(self, l):
        """Number of Jordan blocks of size l (1 <= l <= p)."""
        return self.mult[l - 1]

    @property
    def is_free(self):
        """True when every block is regular (size p)."""
        return all(m == 0 for m in self.mult[: self.p - 1])

    def to_json(self):
        return {
            "dim": self.dim,
            "ranks": list(self.ranks),
            "mult": {str(l): m for l, m in enumerate(self.mult, start=1) if m},
            "tot": self.tot,
            "free": self.is_free,
        }


def _diagonal_blocks(mat):
    """Index sets of the diagonal blocks of a square matrix, up to permutation.

    These are the connected components of the graph with an edge i -- j for
    every nonzero entry (i, j), each as an ascending index array, ordered by
    smallest index.  Labels start as the indices; every round hooks the
    label of each endpoint to the smaller label across the edge, then
    pointer jumping makes every label a root, until no edge joins two labels.
    """
    rows, cols = np.nonzero(mat)
    label = np.arange(mat.shape[0])
    while True:
        low = np.minimum(label[rows], label[cols])
        hooked = label.copy()
        np.minimum.at(hooked, label[rows], low)
        np.minimum.at(hooked, label[cols], low)
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, label):
            break
        label = hooked
    order = np.argsort(label, kind="stable")
    cuts = np.flatnonzero(np.diff(label[order])) + 1
    return np.split(order, cuts)


def _side_key(point):
    if point in (0, "0"):
        return "0"
    if point in ("inf", "oo", "infty", math.inf):
        return "inf"
    raise ValidationError("point must be 0 or inf, got %r" % (point,))


class ASCurve:
    """The curve y^p - y = f(x) with its Z/p-action y -> y + 1."""

    def __init__(self, p, f, field=None):
        self.field = make_field(p) if field is None else field
        if self.field.p != p:
            raise ValidationError("field characteristic %d != p = %d" % (self.field.p, p))
        self.p = p
        if isinstance(f, str):
            f = parse_laurent(f)
        self.f = {int(e): self.field(c) for e, c in f.items() if self.field(c) != self.field.zero}
        if not self.f:
            raise ValidationError("f must be a nonzero Laurent polynomial")
        exps = sorted(self.f)
        self.n_zero = max(0, -exps[0])
        self.n_inf = max(0, exps[-1])
        if self.n_zero == 0 and self.n_inf == 0:
            raise ValidationError("f is constant; the cover is unramified everywhere")
        for n in (self.n_zero, self.n_inf):
            if n and n % p == 0:
                raise ValidationError(
                    "pole order %d is divisible by p = %d; normalize f first" % (n, p)
                )
        # ramified sides in orbit-key order: x = 0 first, then x = infinity
        self.sides = tuple(
            s for s, n in (("0", self.n_zero), ("inf", self.n_inf)) if n > 0
        )
        self._ext_cache = {}

    # -- global invariants ---------------------------------------------------

    @property
    def r(self):
        """Number of ramified points (= branch orbits)."""
        return len(self.sides)

    def pole_order(self, point):
        side = _side_key(point)
        n = self.n_zero if side == "0" else self.n_inf
        if n == 0:
            raise NotRamifiedHereError("f has no pole at x = %s" % side)
        return n

    def different(self, point):
        """Hilbert different at the point above the given pole."""
        return (self.pole_order(point) + 1) * (self.p - 1)

    @property
    def genus(self):
        """Genus of the curve, from Riemann-Hurwitz over the line."""
        two_g = -2 * self.p + sum((n + 1) * (self.p - 1) for n in self._orders())
        if two_g % 2 != 0:
            raise ValidationError("Riemann-Hurwitz degree is odd")
        return two_g // 2 + 1

    def _orders(self):
        return tuple(self.pole_order(s) for s in self.sides)

    def orbit_key(self, point):
        side = _side_key(point)
        if side not in self.sides:
            raise NotRamifiedHereError("f has no pole at x = %s" % side)
        return self.sides.index(side)

    def cover(self):
        """The ramification-data view of this curve (g_Y = 0, G = Z/p)."""
        orbits = tuple(
            BranchOrbit(RamificationFiltration.from_lower_jumps(self.p, (n,)))
            for n in self._orders()
        )
        return CoverData(p=self.p, n=1, g_y=0, orbits=orbits, cyclic=True)

    def canonical_k_y(self):
        """K on the quotient line, supported on the branch locus."""
        cov = self.cover()
        if self.r == 1:
            return QuotientDivisor(cov, {0: -2})
        return QuotientDivisor(cov, {0: -1, 1: -1})

    def canonical_x(self):
        """K_X supported on the ramified points."""
        cov = self.cover()
        return cov.canonical_divisor_x(self.canonical_k_y())

    def two_k_plus(self, extra_r_red=0):
        """2 K_X + extra_r_red * R_red, the divisors the formulas live on."""
        cov = self.cover()
        d = 2 * self.canonical_x()
        if extra_r_red:
            d = d + extra_r_red * cov.reduced_ramification()
        return d

    # -- local analysis ------------------------------------------------------

    def _x_series(self, side, prec):
        # the right-hand side f, written in the local coordinate downstairs:
        # s = x at 0, s = 1/x at infinity
        if side == "0":
            terms = dict(self.f)
        else:
            terms = {-e: c for e, c in self.f.items()}
        return series(self.field, terms, prec)

    def extension_at(self, point, prec=None):
        """The solved local extension above the pole, cached per precision."""
        side = _side_key(point)
        n = self.pole_order(side)
        if prec is None:
            prec = self.different(side) + self.p + 4
        key = (side, prec)
        if key not in self._ext_cache:
            in_prec = prec + self.p * n + self.p + 32 + max(self.f) + 1
            self._ext_cache[key] = build_extension(
                self._x_series(side, in_prec), prec
            )
        return self._ext_cache[key]

    def local_valuations(self, point):
        """v_P(x), v_P(y), v_P(dx) and the different at the point above a pole."""
        side = _side_key(point)
        ext = self.extension_at(side)
        ds = ext.s_of_t.derivative()
        if side == "0":
            vx = ext.s_of_t.valuation()
            vdx = ds.valuation()
        else:
            vx = -ext.s_of_t.valuation()
            vdx = -2 * ext.s_of_t.valuation() + ds.valuation()
        return {
            "x": vx,
            "y": ext.y_of_t.valuation(),
            "dx": vdx,
            "different": ds.valuation(),
        }

    # -- Riemann-Roch spaces and the sigma-action ----------------------------

    def _monomial_range(self, b, n_at):
        """Allowed x-exponents for y^b under pole bounds n_at per side."""
        if self.n_zero:
            a_min = -(-(self.n_zero * b - n_at["0"]) // self.p)
        else:
            a_min = 0
        if self.n_inf:
            a_max = (n_at["inf"] - self.n_inf * b) // self.p
        else:
            a_max = 0
        return a_min, a_max

    def rr_basis(self, divisor):
        """Monomial basis x^a y^b of L(D), D supported on the ramified points.

        Requires deg D > 2g - 2 (or D = 0); the count is checked against
        Riemann-Roch and a mismatch is a hard error.  A Riemann-Roch count
        above _MAX_DIM is refused before any monomial is listed.
        """
        coeffs = {key: divisor.coeff(key) for key in range(self.r)}
        n_at = {side: coeffs[i] for i, side in enumerate(self.sides)}
        n_at.setdefault("0", 0)
        n_at.setdefault("inf", 0)
        deg = divisor.degree_x()
        if all(n == 0 for n in coeffs.values()):
            return [(0, 0)]
        if deg <= 2 * self.genus - 2:
            raise DegreeTooSmallError(
                "deg D = %d is not above 2g - 2 = %d" % (deg, 2 * self.genus - 2)
            )
        expected = deg + 1 - self.genus
        if expected > _MAX_DIM:
            raise ValidationError(
                "L(D) has dimension %d; the cap is %d" % (expected, _MAX_DIM)
            )
        basis = []
        for b in range(self.p):
            a_min, a_max = self._monomial_range(b, n_at)
            for a in range(a_min, a_max + 1):
                basis.append((a, b))
        if len(basis) != expected:
            raise DimensionMismatchError(
                "monomial count %d != Riemann-Roch dimension %d for deg %d"
                % (len(basis), expected, deg)
            )
        return basis

    def sigma_matrix(self, basis):
        """Matrix of y -> y + 1 on a monomial basis (columns are images)."""
        index = {mono: i for i, mono in enumerate(basis)}
        dim = len(basis)
        mat = np.zeros((dim, dim), dtype=np.int64)
        for j, (a, b) in enumerate(basis):
            for i2 in range(b + 1):
                target = (a, i2)
                if target not in index:
                    raise BasisNotStableError(
                        "image of x^%d y^%d needs x^%d y^%d, not in the basis"
                        % (a, b, a, i2)
                    )
                c = math.comb(b, i2) % self.p
                if c:
                    mat[index[target], j] = self.field(c).code()
        return mat

    def decompose(self, divisor):
        """Jordan decomposition of L(D) under sigma; needs genus >= 2.

        rank((sigma - 1)^l) is the sum over the diagonal blocks of
        sigma - 1 of rank(B^l), so each distinct block's powers are ranked
        once and weighted by how often the block occurs.
        """
        if self.genus < 2:
            raise GenusTooSmallError(
                "genus %d < 2; decomposition formulas need g >= 2" % self.genus
            )
        basis = self.rr_basis(divisor)
        dim = len(basis)
        # sigma fixes each monomial up to lower y-degree terms, so its
        # diagonal is 1 and sigma - 1 is the same matrix with diagonal zeroed
        nilp = self.sigma_matrix(basis)
        np.fill_diagonal(nilp, 0)
        blocks, counts = {}, {}
        for idx in _diagonal_blocks(nilp):
            block = nilp[np.ix_(idx, idx)]
            key = (idx.size, block.tobytes())
            blocks[key] = block
            counts[key] = counts.get(key, 0) + 1
        # ranks of (sigma - 1)^l for l = 0 .. p; a zero power ends its block
        ranks = [dim] + [0] * self.p
        for key, block in blocks.items():
            count = counts[key]
            power = block
            for l in range(1, self.p + 1):
                r = self.field.rank(power)
                if r == 0:
                    break
                ranks[l] += count * r
                power = self.field.matmul(power, block)
        ext = ranks + [0]
        mult = tuple(
            ext[l - 1] - 2 * ext[l] + ext[l + 1] for l in range(1, self.p + 1)
        )
        return JordanDecomposition(self.p, dim, tuple(ranks), mult)

    def pole_numbers(self, point, bound):
        """All pole numbers at the point above a pole, up to bound."""
        if self.genus < 2:
            raise GenusTooSmallError(
                "genus %d < 2; the semigroup checks need g >= 2" % self.genus
            )
        if bound < 2 * self.genus:
            raise ValidationError(
                "bound %d below 2g = %d; gaps could be missed" % (bound, 2 * self.genus)
            )
        side = _side_key(point)
        n_here = self.pole_order(side)
        # u^a y^b, with u = x at infinity and u = 1/x at 0, has a pole of
        # order p a + n_here b here and none over the other side's pole
        # while p a >= n_other b
        n_other = self.n_zero if side == "inf" else self.n_inf
        out = set()
        for b in range(self.p):
            a = -(-(n_other * b) // self.p)
            while self.p * a + n_here * b <= bound:
                out.add(self.p * a + n_here * b)
                a += 1
        return sorted(out)

    def __repr__(self):
        terms = []
        for e in sorted(self.f, reverse=True):
            c = self.f[e]
            cs = "" if str(c) == "1" and e != 0 else str(c)
            if e == 0:
                terms.append(str(c))
            elif e == 1:
                terms.append("%sx" % (cs + "*" if cs else ""))
            else:
                terms.append("%sx^%d" % (cs + "*" if cs else "", e))
        return "ASCurve(p=%d, f=%s)" % (self.p, " + ".join(terms))
