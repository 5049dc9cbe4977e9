"""Field arithmetic: axioms, fixed moduli, codes, Frobenius, code-matrix algebra."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equideform import kernels
from equideform.ascurve import ASCurve
from equideform.errors import NotPrimeError, ValidationError
from equideform.gf import (
    _FIELD_MAX_ORDER,
    _TABLES_MAX_BYTES,
    FFElem,
    _table_bytes,
    make_field,
    pth_root,
)
from equideform.primes import _is_prime


def test_make_field_caches():
    assert make_field(5) is make_field(5, 1)
    assert make_field(2, 3) is make_field(2, 3)


def test_composite_characteristic_rejected():
    with pytest.raises(NotPrimeError):
        make_field(6)
    with pytest.raises(NotPrimeError):
        make_field(1)


def test_primality_is_exact():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert all(_is_prime(n) == trial_division(n) for n in range(-3, 20000))
    # Carmichael numbers, then strong pseudoprimes to the bases up to 7 and 23
    for n in (561, 41041, 825265, 3215031751, 3825123056546413051):
        assert not _is_prime(n), n
    for p in (2**31 - 1, 1000003, 2**61 - 1, 2**64 - 59):
        assert _is_prime(p), p
    # a composite above the bound is still decided
    assert not _is_prime((2**61 - 1) * (2**31 - 1))
    # the least composite that passes every base, and a prime above it
    with pytest.raises(ValidationError, match="318665857834031151167461"):
        _is_prime(318665857834031151167461)
    with pytest.raises(ValidationError, match="only decided below"):
        make_field(2**89 - 1)


def test_extension_fields_past_the_order_ceiling_are_refused():
    # finding the modulus of GF(2^96) took seconds; a prime field needs none
    assert _FIELD_MAX_ORDER == 2**32
    for p, m in ((2, 33), (65537, 2), (2, 10**9), (2**61 - 1, 2)):
        with pytest.raises(ValidationError, match="more than 2\\^32 elements"):
            make_field(p, m)
    assert make_field(2**61 - 1).q == 2**61 - 1
    with pytest.raises(NotPrimeError):
        make_field(4, 100)


def test_fixed_lowest_moduli():
    # the modulus is the lowest monic irreducible in base-p code order,
    # so these are pinned forever
    assert make_field(2, 1).modulus == (0, 1)
    assert make_field(2, 2).modulus == (1, 1, 1)          # x^2 + x + 1
    assert make_field(2, 3).modulus == (1, 1, 0, 1)       # x^3 + x + 1
    assert make_field(3, 2).modulus == (1, 0, 1)          # x^2 + 1
    assert make_field(5, 2).modulus == (2, 0, 1)          # x^2 + 2
    assert make_field(7, 2).modulus == (1, 0, 1)


def test_int_coercion_wraps_mod_p():
    f = make_field(7)
    assert f(10) == f(3)
    assert f(-1) == f(6)
    assert f(0) == f.zero


def test_mixed_field_arithmetic_rejected():
    a = make_field(2, 2).one
    b = make_field(2, 3).one
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        make_field(2, 2)(b)


def test_code_round_trip():
    f = make_field(3, 3)
    for code in range(f.q):
        assert f.from_code(code).code() == code


def test_gf4_multiplication_table():
    f = make_field(2, 2)
    w = f.gen()
    # x^2 = x + 1 for the modulus x^2 + x + 1
    assert w * w == w + f.one
    assert w ** 3 == f.one
    assert (w + f.one) * w == f.one


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(2, 1), (2, 3), (3, 2), (5, 1), (5, 2), (7, 1)]),
       st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_field_axioms(pm, i, j, k):
    f = make_field(*pm)
    a, b, c = (f.from_code(x % f.q) for x in (i, j, k))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + f.zero == a
    assert a * f.one == a
    assert a - a == f.zero
    if a != f.zero:
        assert a * a.inverse() == f.one


def test_division_and_pow():
    f = make_field(5, 2)
    rng = random.Random(3)
    for _ in range(50):
        a, b = f.sample(rng), f.sample(rng)
        if b == f.zero:
            continue
        assert (a / b) * b == a
        assert b ** -1 == b.inverse()
        assert b ** f.q == b ** 1  # little Fermat in GF(q)


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        make_field(3).zero.inverse()


def test_pth_root_inverts_frobenius():
    for p, m in [(2, 3), (3, 2), (5, 2)]:
        f = make_field(p, m)
        for a in f.elements():
            r = pth_root(a)
            assert r ** p == a


def test_frobenius_is_additive():
    f = make_field(2, 3)
    rng = random.Random(9)
    for _ in range(30):
        a, b = f.sample(rng), f.sample(rng)
        assert (a + b) ** 2 == a ** 2 + b ** 2


def test_sample_accepts_both_rng_kinds():
    f = make_field(3, 2)
    a = f.sample(random.Random(0))
    b = f.sample(np.random.default_rng(0))
    assert isinstance(a, FFElem) and isinstance(b, FFElem)


def test_elem_immutable_and_hashable():
    f = make_field(5)
    a = f(2)
    with pytest.raises(AttributeError):
        a.coeffs = (1,)
    assert len({f(2), f(2), f(3)}) == 2


def _codes(rows, cols=None):
    """int64 code matrix of FFElem rows; ``cols`` fixes the width when empty."""
    if not rows:
        return np.zeros((0, cols or 0), dtype=np.int64)
    return np.array([[x.code() for x in row] for row in rows], dtype=np.int64)


def _elems(f, codes):
    return [[f.from_code(c) for c in row] for row in np.asarray(codes).tolist()]


def _reference_rank(rows):
    """Rank by schoolbook Gaussian elimination on FFElem rows."""
    rows = [list(r) for r in rows]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        scale = top[j].inverse()
        for i in range(rank + 1, len(rows)):
            factor = rows[i][j] * scale
            if factor:
                rows[i] = [x - factor * y for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def _reference_matmul(f, a, b, width):
    """a @ b by FFElem sums; b has ``width`` columns, also when it has no rows."""
    return [[sum((x * row[j] for x, row in zip(r, b)), f.zero) for j in range(width)]
            for r in a]


_FIELDS = [(2, 1), (5, 1), (17, 1), (2, 3), (3, 2)]


def _sigma_minus_one_powers():
    """(sigma - 1)^l, l = 1 .. p - 1, on L(2K) of y^5 - y = x^3: sparse unipotent traffic."""
    curve = ASCurve(5, "x^3")
    f = curve.field
    nilp = curve.sigma_matrix(curve.rr_basis(curve.two_k_plus()))
    np.fill_diagonal(nilp, 0)
    rows = _elems(f, nilp)
    power, out = rows, [rows]
    for _ in range(curve.p - 2):
        power = _reference_matmul(f, power, rows, len(rows))
        out.append(power)
    return f, out


def test_code_rank_matches_elem_rank():
    rng = np.random.default_rng(5)
    for p, m in _FIELDS:
        f = make_field(p, m)
        shapes = [(int(n), int(n)) for n in rng.integers(1, 9, size=25)]
        shapes += [(2, 7), (7, 2), (5, 6), (6, 3), (1, 4), (4, 1), (0, 3), (3, 0), (0, 0)]
        for rows, cols in shapes:
            codes = rng.integers(0, f.q, size=(rows, cols))
            # zero out a random set of entries so pivots are often off the diagonal
            codes[rng.random((rows, cols)) < 0.4] = 0
            want = _reference_rank(_elems(f, codes))
            assert f.rank(codes) == want, (f, codes.tolist())
    f, powers = _sigma_minus_one_powers()
    for rows in powers:
        for mat in (rows, [list(c) for c in zip(*rows)]):
            assert f.rank(_codes(mat)) == _reference_rank(mat)


def test_code_matmul_matches_elem_product():
    rng = random.Random(23)
    for p, m in _FIELDS:
        f = make_field(p, m)
        for n, k, w in [(4, 4, 4), (3, 5, 2), (1, 6, 1), (6, 1, 5), (0, 3, 2), (2, 0, 3)]:
            a = [[f.sample(rng) for _ in range(k)] for _ in range(n)]
            b = [[f.sample(rng) for _ in range(w)] for _ in range(k)]
            got = f.matmul(_codes(a, k), _codes(b, w))
            assert got.shape == (n, w)
            assert got.tolist() == _codes(_reference_matmul(f, a, b, w), w).tolist()
    with pytest.raises(ValueError, match="do not chain"):
        make_field(5).matmul(np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3), dtype=np.int64))


def test_kernel_paths_agree():
    # the table kernels, called on raw codes, agree with FFElem arithmetic
    # and leave their inputs untouched
    rng = np.random.default_rng(5)
    f = make_field(5, 1)
    add, mul, neg, inv = f.tables()
    for _ in range(25):
        n = int(rng.integers(1, 9))
        a = rng.integers(0, f.q, size=(n, n)).astype(np.int64)
        b = rng.integers(0, f.q, size=(n, n)).astype(np.int64)
        a_before, b_before = a.copy(), b.copy()
        assert kernels.rank(a, add, mul, neg, inv) == _reference_rank(_elems(f, a))
        want = _codes(_reference_matmul(f, _elems(f, a), _elems(f, b), n), n)
        assert np.array_equal(kernels.matmul(a, b, add, mul), want)
        assert np.array_equal(a, a_before) and np.array_equal(b, b_before)


def _assert_tables_match(f, pairs):
    add, mul, neg, inv = f.tables()
    for i, j in pairs:
        a, b = f.from_code(i), f.from_code(j)
        assert add[i, j] == (a + b).code(), (f, i, j)
        assert mul[i, j] == (a * b).code(), (f, i, j)
    for i in range(f.q):
        a = f.from_code(i)
        assert neg[i] == (-a).code()
        assert inv[i] == (a.inverse().code() if i else 0)


def test_tables_match_element_arithmetic_exhaustively():
    # GF(2^8) and GF(5^2) are fields whose x is not primitive, so the
    # discrete logarithms cannot be taken to x there
    for p, m in ((2, 1), (2, 3), (3, 2), (5, 2), (2, 8)):
        f = make_field(p, m)
        add, mul, _, _ = f.tables()
        # both tables are symmetric, so the upper triangle covers every pair
        assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
        _assert_tables_match(f, [(i, j) for i in range(f.q) for j in range(i, f.q)])
    for p, m in ((2, 8), (5, 2)):
        f = make_field(p, m)
        x, power, order = f.gen(), f.gen(), 1
        while power != f.one:
            power, order = power * x, order + 1
        assert order < f.q - 1, (f, order)


def test_tables_match_element_arithmetic_on_samples():
    rng = random.Random(11)
    for p, m in ((1021, 1), (3, 6)):
        f = make_field(p, m)
        _assert_tables_match(f, [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(2000)])


def test_tables_stop_at_the_ceiling():
    with pytest.raises(ValidationError, match="the ceiling is 128 MiB"):
        make_field(2, 10).tables()


def test_table_ceiling_is_on_bytes_not_order():
    # every field up to 1021 elements, and GF(37^2), GF(11^3), fit; GF(2^10) does not
    fields = [(p, m) for p in range(2, 1022) if _is_prime(p)
              for m in range(1, 11) if p**m <= 1021]
    fields += [(37, 2), (11, 3)]
    for p, m in fields:
        assert _table_bytes(p**m, m) <= _TABLES_MAX_BYTES, (p, m)
    assert _table_bytes(2**10, 10) > _TABLES_MAX_BYTES


def test_digit_rows_match_element_arithmetic():
    rng = random.Random(3)
    for p, m in ((2, 3), (3, 2), (2, 8), (5, 3)):
        f = make_field(p, m)
        x = f.gen()
        for k in range(m - 1):
            assert tuple(f.reduction_rows[k]) == (x ** (m + k)).coeffs
        for _ in range(10):
            c = f.sample(rng)
            frob = np.array(c.coeffs) @ f.frobenius_rows % p
            assert tuple(frob) == (c ** p).coeffs


def test_repr_forms():
    assert repr(make_field(5)) == "GF(5)"
    assert repr(make_field(2, 3)) == "GF(2^3)"
    f = make_field(3, 2)
    assert repr(f.zero) == "0"
    assert repr(f.gen()) == "w"
