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
degrees here are tiny), and an extension field is admitted only up to
``_FIELD_MAX_ORDER`` = 2^32 elements, so that the search stays well under a
second.  ``pth_root`` inverts Frobenius via
``a^(p^(m-1))``, which is exact because the field is perfect.

The code-level ``rank``/``matmul`` methods used by the heavier modules
run on integer code matrices through :mod:`equideform.kernels`.  Those
kernels take q x q lookup tables, which are built on first use, from
discrete logarithms to a primitive element, and only while they fit a
fixed memory ceiling; series arithmetic works on base-p digits and needs
none.
"""

import functools
import itertools

import numpy as np

from . import kernels
from .errors import NotPrimeError, ValidationError
from .primes import _is_prime

__all__ = ["FiniteField", "FFElem", "make_field", "pth_root"]


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


# Ceiling on the order of an extension field (m >= 2; a prime field needs no
# modulus).  _lowest_modulus runs Rabin's test on the candidates in code
# order, and its time grows with m, log p and the number of candidates that
# fail: GF(2^54) took 1.1 s and GF(65537^3) 7.7 s, where p = 2 mod 3 makes
# every x^3 + c reducible.  Each of the 6948 extension fields with q <= 2^32
# finds its modulus in at most 0.2 s (GF(2^32); the next is GF(1607^3) at
# 0.16 s), measured on a 2-vCPU x86-64 VM.
_FIELD_MAX_ORDER = 2**32


# Ceiling on the lookup tables, in bytes of _table_bytes(q, m) = 8 q^2 (2m+1).
# That counts the add and mul tables plus the (2m-1)-slot product
# convolution an earlier build held; the build from discrete logarithms
# keeps only add and mul (2 q^2 int64) and one q x q temporary, but the
# measure stays so that the same fields are admitted.  Peak RSS growth of
# one build (numpy 2.4, x86-64): GF(2^8) 2 MB, GF(1021) 24 MB, GF(3^6)
# 16 MB, GF(11^3) 54 MB, GF(37^2) 57 MB and GF(1999) 92 MB.  128 MiB admits
# every q <= 1021 and those fields, and refuses GF(2^10) and GF(47^2).
_TABLES_MAX_BYTES = 128 * 2**20


def _table_bytes(q, m):
    return 8 * q * q * (2 * m + 1)


def _field_name(p, m):
    return "GF(%d)" % p if m == 1 else "GF(%d^%d)" % (p, m)


def _check_table_size(p, m):
    """Raise ValidationError when GF(p^m) is too large for lookup tables.

    Cheap for any p and m, so callers can check before building the field.
    """
    if m * (p.bit_length() - 1) >= 64:
        # q >= 2^64, so the tables need more than 2^131 bytes; p^m itself
        # could have millions of digits
        need = "over 2^111"
    elif _table_bytes(p**m, m) > _TABLES_MAX_BYTES:
        need = "%d" % (_table_bytes(p**m, m) >> 20)
    else:
        return
    raise ValidationError(
        "%s needs %s MiB of lookup tables; the ceiling is %d MiB"
        % (_field_name(p, m), need, _TABLES_MAX_BYTES >> 20)
    )


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
            _check_table_size(self.p, self.m)
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

    def _primitive_element(self):
        """The lowest-coded element that generates the multiplicative group."""
        exponents = [(self.q - 1) // r for r in _prime_factors(self.q - 1)]
        for code in range(1, self.q):
            g = self.from_code(code)
            if all(g**e != self.one for e in exponents):
                return g
        raise AssertionError("no primitive element")  # pragma: no cover

    def _build_tables(self):
        # discrete logarithms to a primitive element g: row k of `powers`
        # holds the digits of g^k, and multiplying by g^n is the F_p-linear
        # map `step` on digits, so each pass doubles the rows known
        p, m, q = self.p, self.m, self.q
        pvec = p ** np.arange(m, dtype=np.int64)
        g = self._primitive_element()
        x = self.gen()
        step = np.array([(x**i * g).coeffs for i in range(m)], dtype=np.int64)
        powers = np.zeros((q - 1, m), dtype=np.int64)
        powers[0, 0] = 1
        n = 1
        while n < q - 1:
            k = min(n, q - 1 - n)
            powers[n : n + k] = powers[:k] @ step % p
            step = step @ step % p
            n += k
        exp = powers @ pvec
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)

        # log[i] + log[j] < 2(q - 1), so a doubled exp needs no reduction
        mul = np.concatenate([exp, exp])[np.add.outer(log, log)]
        mul[0, :] = 0
        mul[:, 0] = 0
        inv = exp[-log % (q - 1)]
        inv[0] = 0

        # add and neg one digit at a time, so no q x q x m temporary
        add = np.zeros((q, q), dtype=np.int64)
        neg = np.zeros(q, dtype=np.int64)
        codes = np.arange(q, dtype=np.int64)
        for k in range(m):
            digit = codes // pvec[k] % p
            term = np.add.outer(digit, digit)
            term %= p
            term *= pvec[k]
            add += term
            neg += (-digit) % p * pvec[k]
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
        return _field_name(self.p, self.m)

    def __reduce__(self):
        return (make_field, (self.p, self.m))


_TOKEN = object()


def make_field(p, m=1):
    """The field GF(p^m).

    Raises NotPrimeError for composite p, and ValidationError for a p at or
    above primes._PRIME_BOUND that no base proves composite or for an
    extension field of more than _FIELD_MAX_ORDER elements.
    """
    # normalize before caching so make_field(p) and make_field(p, 1)
    # return the identical instance
    return _make_field(int(p), int(m))


@functools.lru_cache(maxsize=None)
def _make_field(p, m):
    if not _is_prime(p):
        raise NotPrimeError("%d is not prime" % p)
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    # p >= 2, so m > 32 passes the ceiling without computing p^m
    if m > 1 and (m > 32 or p**m > _FIELD_MAX_ORDER):
        raise ValidationError(
            "%s has more than 2^32 elements, the ceiling for extension fields"
            % _field_name(p, m)
        )
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
