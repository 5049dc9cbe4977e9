"""Truncated Laurent series and wildly ramified degree-p local extensions.

Everything here works over a fixed finite field k = GF(p^m) and a local
parameter written ``t`` (or ``s`` for the base of an extension).  A series
is known only modulo t^prec and every operation propagates that bound
pessimistically; asking for a coefficient at or beyond the bound raises
:class:`PrecisionExhaustedError` rather than guessing.

The extension machinery implements, by explicit series manipulation, the
standard local analysis of a degree-p Artin-Schreier extension
y^p - y = x(s):

* ``as_normalize`` peels p-th powers off the pole part of x until the pole
  order m is coprime to p, recording the Artin-Schreier corrections.
* ``build_extension`` solves for the expansions s(t), y(t) in the local
  parameter t = s^r y^(-l) upstairs (rp + lm = 1) by a 2x2 Newton
  iteration on the pair of defining relations.
* ``measure_jump`` reads off the single ramification jump m from
  v(sigma(t) - t) - 1 for a generator sigma: y -> y + c.
* ``extract_alpha_beta`` reads the degree-2 and degree-3 coefficients of
  an automorphism's action on t, the data feeding the homology matrices.
* ``Tower`` chains weakly ramified degree-p layers
  t_i^(-p) - t_i^(-1) = c_(i-1) t_(i-1)^(-1) into a (Z/p)^n action whose
  every element acts on the top parameter by t -> t/(1 - a t).
* ``weierstrass_check`` tests the pole-number semigroup condition at a
  weakly ramified point with non-cyclic 2-group stabilizer.
"""

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConsistencyError,
    MissingRootError,
    NoConvergenceError,
    NonNegativeValuationError,
    NoOddPoleNumberError,
    NotWeaklyRamifiedActionError,
    PrecisionExhaustedError,
    PreconditionError,
    ValidationError,
)
from .gf import FFElem, make_field, pth_root

__all__ = [
    "LaurentSeriesTrunc",
    "series",
    "zero_series",
    "compose",
    "as_normalize",
    "ASExtension",
    "build_extension",
    "measure_jump",
    "extract_alpha_beta",
    "artin_schreier_root",
    "TowerElement",
    "Tower",
    "default_tower",
    "SemigroupReport",
    "weierstrass_check",
]


def _box(field, row):
    return FFElem(field, tuple(row.tolist()))


# Cap on the digits (coefficients times m) of one series window: 2^24
# int64, 128 MiB; a product packs each operand into float64 copies of up to
# twice that per digit chunk (see _product).  Windows grow as p^2 (about
# 10 p^2 for f = x in crosscheck).  The largest window of the test suite
# holds 950 digits and that of the benchmark workloads 20574 (crosscheck
# over GF(13)), 815 times below the cap; crosscheck --p 1009 --f x reaches
# 1.03e7 and still runs, while --p 1000003 would need 7e12 and is refused.
_MAX_DIGITS = 2**24


def _check_int64(field, terms):
    """Raise when digit sums of terms * m products could reach 2^63.

    Digits live in int64 arrays: a product recombines its float64 partial
    sums mod p there, and ``derivative`` and the extension-field reduction
    multiply two digits in int64.  Over GF(p) this refuses p above about
    3e9 outright, and p = 2^31 - 1 beyond two terms.
    """
    if terms * field.m * (field.p - 1) ** 2 >= 2**63:
        raise ValidationError(
            "digit sums of %d products over %r would overflow int64" % (terms, field)
        )


def _check_size(field, rows):
    """Raise rather than allocate a series window of more than _MAX_DIGITS digits."""
    if rows * field.m > _MAX_DIGITS:
        raise ValidationError(
            "a series window of %d coefficients over %r exceeds the cap of %d digits"
            % (rows, field, _MAX_DIGITS)
        )


def _product(field, a, b, n):
    """First n coefficients of the product of two digit windows."""
    p, m = field.p, field.m
    a, b = a[:n], b[:n]
    terms = min(len(a), len(b))
    _check_int64(field, terms)
    _check_size(field, n)
    # Kronecker packing: coefficient i fills slots i*w .. i*w + m - 1, and
    # x^u x^v with u + v <= 2m - 2 stays inside its block of w slots
    w = 2 * m - 1
    out = np.zeros(n * w, dtype=np.int64)
    if terms:
        # A float64 convolution is exact while every sum it forms, at most
        # terms * m products of two digits, stays below 2^53.  So split each
        # digit into base-2^k chunks with terms * m * (2^k - 1)^2 < 2^53 (one
        # chunk for small p), convolve chunk by chunk, recombine in int64.
        bits = (p - 1).bit_length()
        k = min(bits, (math.isqrt((2**53 - 1) // (terms * m)) + 1).bit_length() - 1)
        chunks = -(-bits // k)
        pa = np.zeros((chunks, len(a), w))
        pb = np.zeros((chunks, len(b), w))
        for c in range(chunks):
            pa[c, :, :m] = a >> (k * c) & ((1 << k) - 1)
            pb[c, :, :m] = b >> (k * c) & ((1 << k) - 1)
        # Horner in 2^k over the chunk weights c + d, highest first; a step
        # adds at most `chunks` <= 32 sums below 2^53 to a value below
        # p * 2^k < 2^58 (_check_int64 keeps p below 2^32, and k <= 26 once
        # there are two chunks), so int64 holds it
        for e in range(2 * chunks - 2, -1, -1):
            out <<= k
            for c in range(max(0, e - chunks + 1), min(e, chunks - 1) + 1):
                conv = np.convolve(pa[c].ravel(), pb[e - c].ravel())[: n * w]
                out[: len(conv)] += conv.astype(np.int64)
            out %= p
    out = out.reshape(n, w)
    if m == 1:
        return out
    return (out[:, :m] + out[:, m:] @ field.reduction_rows) % p


class _Coefficients(Sequence):
    """The window of a series as a read-only sequence of field elements."""

    def __init__(self, field, digits):
        self._field, self._digits = field, digits

    def __len__(self):
        return len(self._digits)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        return _box(self._field, self._digits[i])

    def __eq__(self, other):
        return isinstance(other, Sequence) and tuple(self) == tuple(other)


class LaurentSeriesTrunc:
    """A Laurent series over a finite field, known modulo t^prec.

    Stored as a dense coefficient window on [lo, prec): ``digits`` is an
    int64 array of shape (prec - lo, m) whose row i holds the base-p digits
    of the coefficient of t^(lo + i).  ``coeffs`` may be given as field
    elements or ints, or as such a digit array (used as is, not checked).
    Coefficients below lo are exactly zero, the one at lo is nonzero
    (unless the series is zero to the full window, in which case
    lo == prec and the window is empty).  Instances are immutable.
    """

    __slots__ = ("field", "lo", "digits", "prec")

    def __init__(self, field, lo, coeffs, prec):
        if isinstance(coeffs, np.ndarray) and coeffs.ndim == 2:
            digits = coeffs
        else:
            digits = np.array(
                [field(c).coeffs for c in coeffs], dtype=np.int64
            ).reshape(-1, field.m)
        if len(digits) != prec - lo:
            raise ValidationError(
                "coefficient list of length %d does not fill the window [%d, %d)"
                % (len(digits), lo, prec)
            )
        lead = 0
        if len(digits) and not digits[0].any():
            nonzero = np.flatnonzero(digits.any(axis=1))
            lead = int(nonzero[0]) if nonzero.size else len(digits)
        digits = digits[lead:]  # a view, so the caller's array stays writable
        digits.flags.writeable = False
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "lo", lo + lead)
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, name, value):
        raise AttributeError("series are immutable")

    # -- inspection ----------------------------------------------------------

    @property
    def coeffs(self):
        """The window [lo, prec) as a sequence of field elements."""
        return _Coefficients(self.field, self.digits)

    @property
    def is_zero(self):
        """True when every known coefficient vanishes (zero mod t^prec)."""
        return not len(self.digits)

    @property
    def val(self):
        """The valuation, or +infinity for a series that is zero mod t^prec."""
        return math.inf if self.is_zero else self.lo

    def valuation(self):
        """The valuation as an int; a zero-to-precision series has none."""
        if self.is_zero:
            raise PrecisionExhaustedError(
                "series is 0 mod t^%d; its valuation is not determined" % self.prec
            )
        return self.lo

    def coeff(self, k):
        """Coefficient of t^k; k must be below the precision bound."""
        if k >= self.prec:
            raise PrecisionExhaustedError(
                "coefficient of t^%d requested, series known only mod t^%d"
                % (k, self.prec)
            )
        if k < self.lo:
            return self.field.zero
        return _box(self.field, self.digits[k - self.lo])

    def terms(self):
        """Iterate (exponent, coefficient) over nonzero known terms."""
        for i in np.flatnonzero(self.digits.any(axis=1)):
            yield self.lo + int(i), _box(self.field, self.digits[i])

    def _window(self, lo, prec):
        """A fresh digit array for [lo, prec), where lo <= self.lo."""
        out = np.zeros((prec - lo, self.field.m), dtype=np.int64)
        if self.lo < prec:
            out[self.lo - lo :] = self.digits[: prec - self.lo]
        return out

    # -- ring operations -----------------------------------------------------

    def _scalar(self, other):
        if isinstance(other, (int, FFElem)):
            return self.field(other)
        return None

    def __add__(self, other):
        c = self._scalar(other)
        if c is not None:
            # a constant outside the window is lost in O(t^prec)
            if c == self.field.zero or self.prec <= 0:
                return self
            other = _monomial(self.field, c, 0, self.prec)
        if not isinstance(other, LaurentSeriesTrunc):
            return NotImplemented
        prec = min(self.prec, other.prec)
        lo = min(self.lo, other.lo, prec)
        out = (self._window(lo, prec) + other._window(lo, prec)) % self.field.p
        return LaurentSeriesTrunc(self.field, lo, out, prec)

    __radd__ = __add__

    def __neg__(self):
        out = -self.digits % self.field.p
        return LaurentSeriesTrunc(self.field, self.lo, out, self.prec)

    def __sub__(self, other):
        if isinstance(other, (int, FFElem, LaurentSeriesTrunc)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        field = self.field
        c = self._scalar(other)
        if c is not None:
            row = np.array([c.coeffs], dtype=np.int64)
            out = _product(field, self.digits, row, len(self.digits))
            return LaurentSeriesTrunc(field, self.lo, out, self.prec)
        if not isinstance(other, LaurentSeriesTrunc):
            return NotImplemented
        prec = min(self.lo + other.prec, other.lo + self.prec)
        lo = self.lo + other.lo
        out = _product(field, self.digits, other.digits, prec - lo)
        return LaurentSeriesTrunc(field, lo, out, prec)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse, preserving relative precision.

        Newton iteration b <- b (2 - a b) doubles the number of correct
        coefficients per step: when a b = 1 + t^k e, the next k
        coefficients of b are those of -b e.
        """
        if self.is_zero:
            raise PrecisionExhaustedError(
                "cannot invert a series that is 0 mod t^%d" % self.prec
            )
        field = self.field
        a = self.digits
        b = np.array([_box(field, a[0]).inverse().coeffs], dtype=np.int64)
        while len(b) < len(a):
            k = len(b)
            e = _product(field, a, b, min(2 * k, len(a)))[k:]
            b = np.concatenate([b, -_product(field, b, e, len(e)) % field.p])
        return LaurentSeriesTrunc(field, -self.lo, b, -self.lo + len(a))

    def __truediv__(self, other):
        if isinstance(other, LaurentSeriesTrunc):
            return self * other.inverse()
        c = self._scalar(other)
        if c is None:
            return NotImplemented
        return self * c.inverse()

    def __rtruediv__(self, other):
        c = self._scalar(other)
        if c is None:
            return NotImplemented
        return self.inverse() * c

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        if e == 0:
            if self.is_zero:
                raise PrecisionExhaustedError(
                    "0-th power of a series that is 0 mod t^%d" % self.prec
                )
            return _monomial(self.field, self.field.one, 0, self.prec - self.lo)
        out = None
        base = self
        while e:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def pth_power(self):
        """Frobenius: exact coefficient-wise p-th power, t^i -> t^(pi)."""
        field = self.field
        p = field.p
        _check_int64(field, 1)
        _check_size(field, p * len(self.digits))
        out = np.zeros((p * len(self.digits), field.m), dtype=np.int64)
        # Frobenius fixes GF(p); on GF(p^m) it is F_p-linear on the digits
        out[::p] = self.digits @ field.frobenius_rows % p
        return LaurentSeriesTrunc(field, p * self.lo, out, p * self.prec)

    def derivative(self):
        """Formal d/dt; exponents divisible by p drop out."""
        _check_int64(self.field, 1)
        exps = np.arange(self.lo, self.prec, dtype=np.int64)[:, None]
        out = self.digits * (exps % self.field.p) % self.field.p
        return LaurentSeriesTrunc(self.field, self.lo - 1, out, self.prec - 1)

    def shift(self, k):
        """Multiply by t^k (exact)."""
        return LaurentSeriesTrunc(self.field, self.lo + k, self.digits, self.prec + k)

    def truncate(self, prec):
        """Forget coefficients at or beyond prec; never extends."""
        if prec >= self.prec:
            return self
        lo = min(self.lo, prec)
        return LaurentSeriesTrunc(self.field, lo, self._window(lo, prec), prec)

    def agrees_with(self, other):
        """True when self - other vanishes on the shared window."""
        return (self - other).is_zero

    # -- comparison / display ------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentSeriesTrunc):
            return NotImplemented
        return (
            self.field is other.field
            and self.lo == other.lo
            and self.prec == other.prec
            and np.array_equal(self.digits, other.digits)
        )

    def __hash__(self):
        return hash((id(self.field), self.lo, self.digits.tobytes(), self.prec))

    def __repr__(self):
        parts = []
        for e, c in self.terms():
            cs = str(c)
            if any(op in cs[1:] for op in "+-"):
                cs = "(%s)" % cs
            if e == 0:
                parts.append(cs)
            else:
                te = "t" if e == 1 else "t^%d" % e
                parts.append(te if cs == "1" else "%s*%s" % (cs, te))
        parts.append("O(t^%d)" % self.prec)
        return " + ".join(parts)


def series(field, terms, prec):
    """Build a series from {exponent: coefficient} (or pairs), mod t^prec."""
    items = terms.items() if isinstance(terms, dict) else terms
    coeffs = {}
    for e, c in items:
        e = int(e)
        c = field(c)
        if e in coeffs:
            raise ValidationError("exponent %d listed twice" % e)
        if c == field.zero:
            continue
        if e >= prec:
            raise ValidationError(
                "term t^%d lies beyond the precision window O(t^%d)" % (e, prec)
            )
        coeffs[e] = c
    lo = min(coeffs, default=prec)
    _check_size(field, prec - lo)
    out = np.zeros((prec - lo, field.m), dtype=np.int64)
    for e, c in coeffs.items():
        out[e - lo] = c.coeffs
    return LaurentSeriesTrunc(field, lo, out, prec)


def zero_series(field, prec):
    """The zero series mod t^prec."""
    return LaurentSeriesTrunc(field, prec, np.zeros((0, field.m), dtype=np.int64), prec)


def _monomial(field, c, e, prec):
    return series(field, {e: c}, prec)


def compose(x, s):
    """Substitute s into x; s must have valuation >= 1.

    The result is capped at O(t^(v(s) * x.prec)) for the truncation error
    of x itself, on top of the precision flow through the arithmetic.
    """
    if not isinstance(s, LaurentSeriesTrunc):
        raise TypeError("substitution target must be a series")
    if s.is_zero or s.valuation() < 1:
        raise ValidationError("substitution requires a series of valuation >= 1")
    field = x.field
    w = s.lo
    cap = w * x.prec
    if x.is_zero:
        return zero_series(field, cap)
    span = (s.prec - s.lo) + w * (x.prec - x.lo) + 8
    # Horner's rule from the top of x's window, visiting only the nonzero
    # coefficients.  A run of j zero coefficients would multiply acc by s
    # j times; one product with s^j gives the same window
    # (lo + jw, min(lo + jw + s.prec - w, prec + jw)) and the same digits,
    # and a zero acc just gains jw of precision.
    acc = zero_series(field, span)
    at = len(x.digits) - 1
    powers = {}
    for i in np.flatnonzero(x.digits.any(axis=1))[::-1].tolist():
        j = at - i
        if acc.is_zero:
            acc = zero_series(field, acc.prec + j * w)
        else:
            if j not in powers:
                powers[j] = s ** j
            acc = acc * powers[j]
        acc = acc + _box(field, x.digits[i])
        at = i
    out = acc * (s ** x.lo) if x.lo != 0 else acc
    return out.truncate(min(out.prec, cap))


# -- Artin-Schreier normalization -------------------------------------------


def as_normalize(x):
    """Reduce the pole order of x to one coprime to p.

    Repeatedly replaces x by x - (w^p - w) with w = v0 / s^l whenever
    v(x) = -lp and v0^p matches the leading coefficient; this changes the
    generator y of y^p - y = x by y - w without changing the extension.
    Returns (x_norm, corrections) where corrections is the list of
    subtracted w, so that x - x_norm = sum(w^p - w) exactly to precision.
    """
    field = x.field
    p = field.p
    if not x.is_zero and x.valuation() >= 0:
        raise NonNegativeValuationError(
            "v(x) = %d >= 0; there is no pole to normalize" % x.valuation()
        )
    corrections = []
    while True:
        if x.is_zero:
            if x.prec >= 0:
                raise NonNegativeValuationError(
                    "pole part cancels entirely; the extension is unramified "
                    "or split here"
                )
            raise PrecisionExhaustedError(
                "series is 0 mod t^%d; cannot locate the remaining pole" % x.prec
            )
        v = x.valuation()
        if v >= 0:
            raise NonNegativeValuationError(
                "reduction reached v(x) = %d >= 0; the extension is "
                "unramified or split here" % v
            )
        if (-v) % p != 0:
            return x, corrections
        l = (-v) // p
        w = _monomial(field, pth_root(x.coeff(v)), -l, x.prec)
        x = x - w.pth_power() + w
        corrections.append(w)


# -- the local parameter of a degree-p extension ----------------------------


class ASExtension:
    """Solved expansions for y^p - y = x(s) at a totally ramified place.

    Attributes: the pole order ``m`` of x (coprime to p), the exponents
    ``r``, ``l`` with rp + lm = 1 defining the local parameter
    t = s^r y^(-l) upstairs, and the expansions ``s_of_t``, ``y_of_t``
    with v(s) = p, v(y) = -m, correct to at least ``prec``.
    """

    __slots__ = ("field", "p", "m", "r", "l", "x", "s_of_t", "y_of_t", "prec")

    def __init__(self, field, m, r, l, x, s_of_t, y_of_t, prec):
        self.field = field
        self.p = field.p
        self.m = m
        self.r = r
        self.l = l
        self.x = x
        self.s_of_t = s_of_t
        self.y_of_t = y_of_t
        self.prec = prec

    def residuals(self):
        """(y^p - y - x(s), s^r y^(-l) - t) as series in t."""
        r1 = self.y_of_t.pth_power() - self.y_of_t - compose(self.x, self.s_of_t)
        tt = _monomial(self.field, self.field.one, 1, self.s_of_t.prec)
        r2 = (self.s_of_t ** self.r) * (self.y_of_t ** (-self.l)) - tt
        return r1, r2

    def verify(self):
        """Check both defining relations hold to the advertised precision."""
        for name, res in zip(("y^p - y = x(s)", "s^r y^(-l) = t"), self.residuals()):
            if not res.truncate(self.prec).is_zero:
                raise ConsistencyError(
                    "relation %s fails at order %d" % (name, res.valuation())
                )
        return True

    def sigma_t(self, c=1):
        """The local parameter after y -> y + c, as a series in t."""
        c = self.field(c)
        return (self.s_of_t ** self.r) * ((self.y_of_t + c) ** (-self.l))


def _certified(res):
    return res.prec if res.is_zero else res.valuation()


def build_extension(x, prec):
    """Solve for s(t), y(t) in the extension y^p - y = x(s).

    ``x`` must have a pole of order m coprime to p (run ``as_normalize``
    first otherwise) and carry enough precision; the returned expansions
    make both defining relations vanish to order >= prec.
    """
    field = x.field
    p = field.p
    if x.is_zero:
        if x.prec >= 0:
            raise NonNegativeValuationError("x is 0 mod t^%d; no pole" % x.prec)
        raise PrecisionExhaustedError(
            "x is 0 mod t^%d; pole order unknown" % x.prec
        )
    v = x.valuation()
    if v >= 0:
        raise NonNegativeValuationError(
            "v(x) = %d >= 0; the place is unramified in this extension" % v
        )
    m = -v
    if m % p == 0:
        raise PreconditionError(
            "pole order %d is divisible by p = %d; apply as_normalize first"
            % (m, p)
        )
    r = pow(p, -1, m) if m > 1 else 0
    l = (1 - r * p) // m
    margin = 2 * (p * m + p + abs(l) * m) + 24
    W = prec + margin

    c = x.coeff(v)
    y = _monomial(field, c ** r, -m, -m + W)
    s = _monomial(field, c ** l, p, p + W)
    tt = _monomial(field, field.one, 1, 1 + W)
    dx = x.derivative()
    minus_one = -field.one

    best = None
    stalled = 0
    for _ in range(prec + 64):
        r1 = y.pth_power() - y - compose(x, s)
        # s^(r-1) s and y^(-l-1) y are s^r and y^(-l) with the same
        # relative precision, so each power is computed once per step
        s_r1 = s ** (r - 1)
        s_r = s_r1 * s
        y_l1 = y ** (-l - 1)
        y_l = y_l1 * y
        r2 = s_r * y_l - tt
        cert = min(_certified(r1), _certified(r2))
        if cert >= prec:
            ext = ASExtension(field, m, r, l, x, s, y, prec)
            if s.valuation() != p or y.valuation() != -m:
                raise ConsistencyError(
                    "solved expansions have v(s) = %s, v(y) = %s; expected %d, %d"
                    % (s.val, y.val, p, -m)
                )
            return ext
        # the two residuals can leapfrog, so the joint bound may pause for
        # a step or two before jumping; only a sustained plateau is a stall
        if best is not None and cert <= best:
            stalled += 1
            if stalled >= 3:
                if cert >= min(r1.prec, r2.prec):
                    raise PrecisionExhaustedError(
                        "residuals certified only to O(t^%d) < %d; "
                        "x needs more precision" % (cert, prec)
                    )
                raise NoConvergenceError(
                    "residual valuation stalled at %d" % cert
                )
        else:
            best = cert
            stalled = 0

        a12 = -compose(dx, s)
        a21 = field(-l) * (s_r * y_l1)
        a22 = field(r) * (s_r1 * y_l)
        det_inv = (minus_one * a22 - a12 * a21).inverse()
        b1, b2 = -r1, -r2
        dy = (b1 * a22 - b2 * a12) * det_inv
        ds = (minus_one * b2 - a21 * b1) * det_inv
        y = y + dy
        s = s + ds
    raise NoConvergenceError("no convergence after %d Newton steps" % (prec + 64))


def measure_jump(ext, c=1):
    """The ramification jump, read off as v(sigma(t) - t) - 1.

    ``c`` is the prime-field translation in sigma: y -> y + c; the result
    does not depend on which nonzero c is used.
    """
    c = ext.field(c)
    if any(d != 0 for d in c.coeffs[1:]) :
        raise ValidationError("sigma shifts y by a prime-field constant")
    if c == ext.field.zero:
        raise ValidationError("sigma must be a nontrivial generator (c != 0)")
    st = ext.sigma_t(c)
    tt = _monomial(ext.field, ext.field.one, 1, st.prec)
    return (st - tt).valuation() - 1


def extract_alpha_beta(gt):
    """Degree-2 and degree-3 coefficients of an action on the parameter.

    ``gt`` is the image of t under an automorphism of the local field;
    weak ramification means gt = t + alpha t^2 + beta t^3 + O(t^4).
    """
    if gt.is_zero or gt.valuation() != 1 or gt.coeff(1) != gt.field.one:
        raise NotWeaklyRamifiedActionError(
            "action on the parameter must start with t; got %r" % (gt,)
        )
    return gt.coeff(2), gt.coeff(3)


# -- elementary abelian towers ----------------------------------------------


@lru_cache(maxsize=None)
def _artin_schreier_solver(field):
    """Rows that take the digits of z to those of the root, then a check.

    w -> w^p - w is F_p-linear on digits, and its kernel, the prime field,
    moves only digit 0.  So every root of w^p - w = z has the same digits
    1..m-1, the lowest-coded root has digit 0 equal to 0, and those digits
    solve an m x (m-1) system of full column rank.  Row-reducing it with the
    identity carried along leaves rows whose product with z gives digits
    1..m-1 of the root and, last, a value that is zero exactly when a root
    exists.
    """
    p, m = field.p, field.m
    images = []
    for k in range(1, m):
        b = field.from_code(p**k)
        images.append((b**p - b).coeffs)
    rows = [[image[i] for image in images] + [int(i == j) for j in range(m)]
            for i in range(m)]
    for c in range(m - 1):
        pivot = next(i for i in range(c, m) if rows[i][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = pow(rows[c][c], -1, p)
        rows[c] = [v * inv % p for v in rows[c]]
        for i in range(m):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[c])]
    return tuple(tuple(row[m - 1:]) for row in rows)


@lru_cache(maxsize=None)
def artin_schreier_root(field, z):
    """The lowest-coded w with w^p - w = z, if one exists in the field."""
    z = field(z)
    digits = [
        sum(a * b for a, b in zip(row, z.coeffs)) % field.p
        for row in _artin_schreier_solver(field)
    ]
    if digits[-1]:
        raise MissingRootError(
            "w^%d - w = %s has no root in GF(%d^%d); the trace of %s is nonzero"
            % (field.p, z, field.p, field.m, z)
        )
    return FFElem(field, (0,) + tuple(digits[:-1]))


class TowerElement:
    """A group element of a tower, stored by its translations y_i -> y_i + d_i."""

    __slots__ = ("tower", "deltas")

    def __init__(self, tower, deltas):
        self.tower = tower
        self.deltas = tuple(tower.field(d) for d in deltas)
        if len(self.deltas) != tower.n:
            raise ValidationError(
                "need %d layer translations, got %d" % (tower.n, len(self.deltas))
            )

    @property
    def is_identity(self):
        return all(d == self.tower.field.zero for d in self.deltas)

    @property
    def alpha(self):
        """The coefficient a in g(t) = t/(1 - a t) on the top parameter."""
        return -self.deltas[-1]

    def __mul__(self, other):
        if not isinstance(other, TowerElement) or other.tower is not self.tower:
            return NotImplemented
        return TowerElement(
            self.tower, [a + b for a, b in zip(self.deltas, other.deltas)]
        )

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        return TowerElement(self.tower, [self.tower.field(e) * d for d in self.deltas])

    def __eq__(self, other):
        if not isinstance(other, TowerElement):
            return NotImplemented
        return self.tower is other.tower and self.deltas == other.deltas

    def __hash__(self):
        return hash((id(self.tower), self.deltas))

    def __repr__(self):
        return "TowerElement(%s)" % (", ".join(str(d) for d in self.deltas))

    def moebius_t(self, prec, level=None):
        """The exact action t/(1 + d t) on the parameter of a layer."""
        d = self.deltas[(self.tower.n if level is None else level) - 1]
        field = self.tower.field
        one_plus = series(field, {0: 1, 1: d}, prec)
        return _monomial(field, field.one, 1, 1 + prec) * one_plus.inverse()

    def action_on_t(self, prec):
        """g(t) on the top parameter, via the solved top-layer expansions.

        This goes through the Newton-solved extension rather than the
        closed form, so comparing it against t/(1 - alpha t) genuinely
        tests the solver.
        """
        ext = self.tower.top_extension(prec)
        out = (ext.s_of_t ** ext.r) * (
            (ext.y_of_t + self.deltas[-1]) ** (-ext.l)
        )
        if out.prec < prec:
            raise PrecisionExhaustedError(
                "action known only mod t^%d < requested %d" % (out.prec, prec)
            )
        return out.truncate(prec)


class Tower:
    """A weakly ramified (Z/p)^n tower over one point.

    Layer i adjoins y_i with y_i^p - y_i = c_(i-1) y_(i-1) where
    y_0 = t_0^(-1), c_0 = 1 and the remaining constants are supplied; the
    layer parameter is t_i = y_i^(-1).  Group elements translate each y_i
    by a field constant d_i subject to d_i^p - d_i = c_(i-1) d_(i-1), so
    the generator chains need Artin-Schreier roots in the residue field;
    :func:`default_tower` searches constants for which they all exist.
    """

    def __init__(self, field, n, constants=(), prec=24):
        if n < 1:
            raise ValidationError("tower rank must be >= 1")
        if field.m < n:
            raise ValidationError(
                "residue field GF(%d^%d) too small for rank %d (need m >= n)"
                % (field.p, field.m, n)
            )
        constants = tuple(field(c) for c in constants)
        if len(constants) != n - 1:
            raise ValidationError(
                "rank %d needs %d constants, got %d" % (n, n - 1, len(constants))
            )
        if any(c == field.zero for c in constants):
            raise ValidationError("tower constants must be nonzero")
        self.field = field
        self.p = field.p
        self.n = n
        self.constants = constants
        self.prec = prec
        self._ext_cache = {}
        gens = []
        for j in range(1, n + 1):
            deltas = [field.zero] * (j - 1) + [field.one]
            for i in range(j + 1, n + 1):
                z = self.level_constant(i) * deltas[-1]
                deltas.append(artin_schreier_root(field, z))
            gens.append(TowerElement(self, deltas))
        self.generators = gens

    def level_constant(self, i):
        """c_(i-1), the constant in front of layer i's right-hand side."""
        if not 1 <= i <= self.n:
            raise ValidationError("layer index %d outside 1..%d" % (i, self.n))
        return self.field.one if i == 1 else self.constants[i - 2]

    @property
    def identity(self):
        return TowerElement(self, [0] * self.n)

    def element(self, coeffs):
        """The element with generator exponents coeffs in (Z/p)^n."""
        coeffs = list(coeffs)
        if len(coeffs) != self.n:
            raise ValidationError("need %d exponents" % self.n)
        out = self.identity
        for b, g in zip(coeffs, self.generators):
            out = out * (g ** int(b))
        return out

    def elements(self):
        """All p^n group elements."""
        for vec in itertools.product(range(self.p), repeat=self.n):
            yield self.element(vec)

    def level_map(self, i, prec):
        """t_(i-1) as a series in t_i: c t^p / (1 - t^(p-1))."""
        field = self.field
        denom = series(field, {0: 1, self.p - 1: -field.one}, prec)
        return (
            _monomial(field, self.level_constant(i), self.p, self.p + prec)
            * denom.inverse()
        )

    def top_extension(self, prec):
        """The solved top layer y^p - y = c_(n-1) / s, cached per precision."""
        if prec not in self._ext_cache:
            c = self.level_constant(self.n)
            x = series(self.field, {-1: c}, prec + 8)
            self._ext_cache[prec] = build_extension(x, prec)
        return self._ext_cache[prec]

    def alpha_beta_pairs(self, prec=None):
        """Extracted (alpha, beta) for each generator, via the solver route."""
        prec = self.prec if prec is None else prec
        pairs = []
        for g in self.generators:
            pairs.append(extract_alpha_beta(g.action_on_t(max(prec, 4))))
        return pairs

    def check_structure(self, g, prec=None):
        """Verify g(t) agrees with t/(1 - alpha t) to precision."""
        prec = self.prec if prec is None else prec
        got = g.action_on_t(prec)
        want = g.moebius_t(prec)
        if not got.agrees_with(want):
            raise ConsistencyError(
                "solver action %r differs from t/(1 - a t) with a = %s"
                % (got, g.alpha)
            )
        return True

    def check_consistency(self, g, prec=None):
        """Verify layer compatibility S_i(g(t_i)) = g applied to S_i(t_i)."""
        prec = self.prec if prec is None else prec
        field = self.field
        for i in range(1, self.n + 1):
            smap = self.level_map(i, prec)
            via_arg = compose(smap, g.moebius_t(prec, level=i))
            d_prev = field.zero if i == 1 else g.deltas[i - 2]
            via_val = smap * (1 + d_prev * smap).inverse()
            if not via_arg.agrees_with(via_val):
                raise ConsistencyError(
                    "layer %d: S(g(t)) and g(S(t)) disagree" % i
                )
        return True


def _nonzero_tuples(field, k):
    """The k-tuples of nonzero elements in itertools.product order, lazily.

    The first tuple comes at once, however large the field.
    """
    if k == 0:
        yield ()
        return
    for head in range(1, field.q):
        for tail in _nonzero_tuples(field, k - 1):
            yield (field.from_code(head),) + tail


def default_tower(p, n, prec=24, max_m=None):
    """Deterministic search for a residue field and constants that work.

    Tries GF(p^m) for m = n, n+1, ... and constant tuples in code order,
    returning the first tower whose generator chains have all their
    Artin-Schreier roots.
    """
    top_m = (n + 4) if max_m is None else max_m
    for m in range(n, top_m + 1):
        field = make_field(p, m)
        for constants in _nonzero_tuples(field, n - 1):
            try:
                return Tower(field, n, constants, prec)
            except MissingRootError:
                continue
    raise MissingRootError(
        "no rank-%d tower found over GF(%d^m) for m <= %d" % (n, p, top_m)
    )


# -- pole-number semigroup check --------------------------------------------


@dataclass(frozen=True)
class SemigroupReport:
    """Outcome of the pole-number check at a non-cyclic 2-group point."""

    passed: bool
    witness: int
    reason: str

    def to_json(self):
        return {"passed": self.passed, "witness": self.witness, "reason": self.reason}


def weierstrass_check(pole_numbers, bound):
    """Check the smallest odd pole number m: m = 1 mod 4 and m-1 a pole number.

    ``pole_numbers`` lists the pole numbers at the point up to ``bound``;
    the caller asserts p = 2, weak ramification and non-cyclic stabilizer.
    """
    nums = sorted({int(x) for x in pole_numbers})
    if any(x < 0 for x in nums):
        raise ValidationError("pole numbers are nonnegative integers")
    odd = [x for x in nums if x % 2 == 1 and x <= bound]
    if not odd:
        raise NoOddPoleNumberError(
            "no odd pole number up to %d; nothing to check" % bound
        )
    m = odd[0]
    if m % 4 != 1:
        return SemigroupReport(
            False, m, "smallest odd pole number %d is %d mod 4" % (m, m % 4)
        )
    if m - 1 not in nums:
        return SemigroupReport(
            False, m, "%d is missing from the pole numbers" % (m - 1)
        )
    return SemigroupReport(
        True, m, "smallest odd pole number %d is 1 mod 4 and %d occurs" % (m, m - 1)
    )
