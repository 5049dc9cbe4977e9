"""Exact arithmetic in GF(p^m).

A field is constructed once per ``(p, m)`` by :func:`make_field` and cached,
so elements of "the same" field always share one :class:`FiniteField`
instance and mixing elements of different fields is detectable (and a hard
error).  Elements store their coefficient vector ``(c_0, ..., c_{m-1})``
with respect to the power basis of a fixed monic irreducible modulus: the
*lowest* one, where candidates ``x^m + c_{m-1} x^{m-1} + ... + c_0`` are
ordered by the integer ``c_0 + c_1 p + ... + c_{m-1} p^{m-1}``.  This makes
field construction reproducible across runs and machines; for example
GF(8) always uses ``x^3 + x + 1`` and GF(25) uses ``x^2 + 2``.

Irreducibility is certified by Rabin's test (no probabilism: the candidate
degrees here are tiny).  ``pth_root`` inverts Frobenius via
``a^(p^(m-1))``, which is exact because the field is perfect.

The code-level ``rank``/``matmul`` methods used by the heavier modules
run on integer code matrices through :mod:`equideform.kernels`.  Those
kernels take q x q lookup tables, which are built on first use and only
while they fit a fixed memory ceiling; series arithmetic works on base-p
digits and needs none.
"""

import functools
import itertools

import numpy as np

from . import kernels
from .errors import NotPrimeError, ValidationError

__all__ = ["FiniteField", "FFElem", "make_field", "pth_root"]


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over F_p; coefficient lists are little-endian and
# normalised (no trailing zeros).


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod(a, f, p):
    a = list(a)
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - df
            finv = pow(f[-1], p - 2, p)
            q = lead * finv % p
            for i, c in enumerate(f):
                a[shift + i] = (a[shift + i] - q * c) % p
        a.pop()
    return _ptrim(a)


def _pmulmod(a, b, f, p):
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    return _pmod(prod, f, p)


def _ppowmod(a, e, f, p):
    result = [1]
    base = _pmod(a, f, p)
    while e:
        if e & 1:
            result = _pmulmod(result, base, f, p)
        base = _pmulmod(base, base, f, p)
        e >>= 1
    return result


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(f, p):
    """Rabin's irreducibility test for a monic f of degree m >= 1."""
    m = len(f) - 1
    if m == 1:
        return True
    x = [0, 1]
    # x^(p^m) == x (mod f)
    if _ppowmod(x, p**m, f, p) != x:
        return False
    for q in _prime_factors(m):
        h = _ppowmod(x, p ** (m // q), f, p)
        diff = list(h)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _pgcd(f, _ptrim(diff), p)
        if len(g) - 1 > 0:
            return False
    return True


def _lowest_modulus(p, m):
    if m == 1:
        return (0, 1)
    for n in itertools.count():
        if n >= p**m:  # pragma: no cover - an irreducible always exists
            raise AssertionError("no irreducible polynomial found")
        low = []
        k = n
        for _ in range(m):
            low.append(k % p)
            k //= p
        f = low + [1]
        if _is_irreducible(f, p):
            return tuple(f)


# Ceiling on the lookup tables, in bytes of _table_bytes(q, m).  A build
# holds the add and mul tables and the (2m-1)-slot product convolution,
# q*q*(2m+1) int64 in all; its temporaries take the measured peak to about
# twice that.  Peak RSS growth of one build (numpy 2.4, x86-64): GF(1021)
# 32 MB, GF(3^6) 102 MB, GF(37^2) 129 MB, GF(11^3) 176 MB, GF(1999) 122 MB,
# GF(2^10) 329 MB and GF(47^2) 336 MB.  128 MiB admits every q <= 1021 and
# the first five, keeps a build under about 260 MB, and refuses the last two.
_TABLES_MAX_BYTES = 128 * 2**20


def _table_bytes(q, m):
    return 8 * q * q * (2 * m + 1)


class FiniteField:
    """The field GF(p^m) with a fixed lowest irreducible modulus.

    Do not instantiate directly; use :func:`make_field` so that equal
    parameters yield the identical (cached) instance.
    """

    def __init__(self, p, m, _token=None):
        if _token is not _TOKEN:
            raise TypeError("use make_field(p, m) to construct fields")
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = _lowest_modulus(p, m)
        self.zero = FFElem(self, (0,) * m)
        self.one = FFElem(self, (1,) + (0,) * (m - 1))
        self._tables = None

    # -- element construction ------------------------------------------------

    def __call__(self, value):
        """Coerce an int (reduced into the prime field) or pass an element."""
        if isinstance(value, FFElem):
            if value.field is not self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, int):
            return FFElem(self, (value % self.p,) + (0,) * (self.m - 1))
        raise TypeError("cannot coerce %r into GF(%d^%d)" % (value, self.p, self.m))

    def elem(self, coeffs):
        """Element with the given coefficient vector (length m)."""
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) != self.m:
            raise ValueError(
                "expected %d coefficients, got %d" % (self.m, len(coeffs))
            )
        return FFElem(self, coeffs)

    def from_code(self, code):
        """Element whose coefficient vector is the base-p digits of ``code``."""
        code = int(code)
        if not 0 <= code < self.q:
            raise ValueError("code %d out of range [0, %d)" % (code, self.q))
        digits = []
        for _ in range(self.m):
            digits.append(code % self.p)
            code //= self.p
        return FFElem(self, tuple(digits))

    def gen(self):
        """The class of x, a root of the modulus (only useful for m >= 2)."""
        if self.m == 1:
            return self.one
        return self.from_code(self.p)

    def sample(self, rng):
        """Uniformly random element.

        ``rng`` may be a random.Random or a numpy Generator.
        """
        if hasattr(rng, "randrange"):
            return self.from_code(rng.randrange(self.q))
        return self.from_code(int(rng.integers(self.q)))

    def elements(self):
        """Iterate over all q elements in code order."""
        for code in range(self.q):
            yield self.from_code(code)

    # -- lookup tables and code-matrix algebra -------------------------------

    def tables(self):
        """(add, mul, neg, inv) lookup tables on element codes."""
        if self._tables is None:
            need = _table_bytes(self.q, self.m)
            if need > _TABLES_MAX_BYTES:
                raise ValidationError(
                    "%r needs %d MiB of lookup tables; the ceiling is %d MiB"
                    % (self, need >> 20, _TABLES_MAX_BYTES >> 20)
                )
            self._tables = self._build_tables()
        return self._tables

    @functools.cached_property
    def reduction_rows(self):
        """Digits of x^k mod the modulus for k = m .. 2m-2, shape (m-1, m)."""
        p, m = self.p, self.m
        red = np.zeros((m - 1, m), dtype=np.int64)
        row = [(-c) % p for c in self.modulus[:-1]]  # x^m
        for k in range(m - 1):
            red[k] = row
            carry = row[-1]
            row = [0] + row[:-1]
            if carry:
                row = [
                    (row[i] + carry * ((-self.modulus[i]) % p)) % p for i in range(m)
                ]
        return red

    @functools.cached_property
    def frobenius_rows(self):
        """Digits of (x^k)^p for k < m: c -> c^p is digits @ rows mod p."""
        x = self.gen()
        return np.array([(x ** (k * self.p)).coeffs for k in range(self.m)], dtype=np.int64)

    def _build_tables(self):
        p, m, q = self.p, self.m, self.q
        pvec = p ** np.arange(m, dtype=np.int64)
        codes = np.arange(q, dtype=np.int64)
        digits = np.empty((q, m), dtype=np.int64)
        rest = codes.copy()
        for k in range(m):
            digits[:, k] = rest % p
            rest //= p

        add = ((digits[:, None, :] + digits[None, :, :]) % p) @ pvec
        neg = ((-digits) % p) @ pvec

        conv = np.zeros((q, q, 2 * m - 1), dtype=np.int64)
        for i in range(m):
            for j in range(m):
                conv[:, :, i + j] += digits[:, None, i] * digits[None, :, j]
        low = conv[:, :, :m]
        if m > 1:
            low = low + conv[:, :, m:] @ self.reduction_rows
        mul = (low % p) @ pvec

        inv = np.zeros(q, dtype=np.int64)
        for code in range(1, q):
            inv[code] = (self.from_code(code) ** (q - 2)).code()
        return add, mul, neg, inv

    def rank(self, codes):
        """Rank of an integer code matrix over this field."""
        codes = np.asarray(codes, dtype=np.int64)
        if codes.size == 0:
            return 0
        add, mul, neg, inv = self.tables()
        return kernels.rank(codes, add, mul, neg, inv)

    def matmul(self, a, b):
        """Product of two integer code matrices over this field."""
        add, mul, neg, inv = self.tables()
        return kernels.matmul(a, b, add, mul)

    # -- misc ----------------------------------------------------------------

    def __repr__(self):
        if self.m == 1:
            return "GF(%d)" % self.p
        return "GF(%d^%d)" % (self.p, self.m)

    def __reduce__(self):
        return (make_field, (self.p, self.m))


_TOKEN = object()


def make_field(p, m=1):
    """The field GF(p^m).  Raises NotPrimeError for composite p."""
    # normalize before caching so make_field(p) and make_field(p, 1)
    # return the identical instance
    return _make_field(int(p), int(m))


@functools.lru_cache(maxsize=None)
def _make_field(p, m):
    if not _is_prime(p):
        raise NotPrimeError("%d is not prime" % p)
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    return FiniteField(p, m, _token=_TOKEN)


class FFElem:
    """An element of a :class:`FiniteField`, as an immutable coefficient tuple."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("FFElem is immutable")

    def code(self):
        """Integer code sum(c_i p^i); inverse of FiniteField.from_code."""
        p = self.field.p
        out = 0
        for c in reversed(self.coeffs):
            out = out * p + c
        return out

    def _check(self, other):
        if isinstance(other, FFElem):
            if other.field is not self.field:
                raise ValueError("mixed-field arithmetic: %r vs %r"
                                 % (self.field, other.field))
            return other
        if isinstance(other, int):
            return self.field(other)
        return None

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        p = self.field.p
        return FFElem(
            self.field,
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FFElem(self.field, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        p = self.field.p
        return FFElem(
            self.field,
            tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __rsub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        f = self.field
        prod = _pmulmod(list(self.coeffs), list(other.coeffs), list(f.modulus), f.p)
        prod += [0] * (f.m - len(prod))
        return FFElem(f, tuple(prod))

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero in %r" % self.field)
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field(other)
        if isinstance(other, FFElem):
            return self.field is other.field and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __repr__(self):
        if self.field.m == 1:
            return str(self.coeffs[0])
        terms = []
        for i in reversed(range(self.field.m)):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                xi = "w" if i == 1 else "w^%d" % i
                terms.append(xi if c == 1 else "%d*%s" % (c, xi))
        return "+".join(terms) if terms else "0"


def pth_root(a):
    """The unique b with b^p = a, via b = a^(p^(m-1)) (Frobenius inverse)."""
    f = a.field
    return a ** (f.p ** (f.m - 1))
