"""Field arithmetic: axioms, fixed moduli, codes, Frobenius, code-matrix algebra."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equideform.errors import NotPrimeError, ValidationError
from equideform.gf import FFElem, make_field, matrix_rank, pth_root
from equideform import kernels


def test_make_field_caches():
    assert make_field(5) is make_field(5, 1)
    assert make_field(2, 3) is make_field(2, 3)


def test_composite_characteristic_rejected():
    with pytest.raises(NotPrimeError):
        make_field(6)
    with pytest.raises(NotPrimeError):
        make_field(1)


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


def test_matrix_rank_elem_level():
    f = make_field(2, 2)
    w = f.gen()
    rows = [[f.one, w], [w, w * w]]  # second row = w * first row
    assert matrix_rank(rows) == 1
    assert matrix_rank([]) == 0
    rows = [[f.one, f.zero], [f.zero, f.one]]
    assert matrix_rank(rows) == 2


def test_code_rank_matches_elem_rank():
    rng = random.Random(17)
    for p, m in [(2, 2), (3, 1), (5, 1)]:
        f = make_field(p, m)
        for _ in range(20):
            n = rng.randrange(1, 6)
            rows = [[f.sample(rng) for _ in range(n)] for _ in range(n)]
            codes = np.array([[x.code() for x in row] for row in rows],
                             dtype=np.int64)
            assert f.rank(codes) == matrix_rank(rows)


def test_code_matmul_matches_elem_product():
    f = make_field(3, 2)
    rng = random.Random(23)
    n = 4
    a = [[f.sample(rng) for _ in range(n)] for _ in range(n)]
    b = [[f.sample(rng) for _ in range(n)] for _ in range(n)]
    want = [
        [sum((a[i][t] * b[t][j] for t in range(n)), f.zero) for j in range(n)]
        for i in range(n)
    ]
    got = f.matmul(
        np.array([[x.code() for x in r] for r in a], dtype=np.int64),
        np.array([[x.code() for x in r] for r in b], dtype=np.int64),
    )
    assert got.tolist() == [[x.code() for x in r] for r in want]


def test_kernel_paths_agree():
    # the jit build and the pure-numpy fallback are the same function
    rng = np.random.default_rng(5)
    f = make_field(5, 1)
    add, mul, neg, inv = f.tables()
    for _ in range(25):
        n = int(rng.integers(1, 9))
        a = rng.integers(0, f.q, size=(n, n)).astype(np.int64)
        b = rng.integers(0, f.q, size=(n, n)).astype(np.int64)
        assert kernels.rank_py(a, add, mul, neg, inv) == kernels.rank(
            a, add, mul, neg, inv
        )
        assert np.array_equal(
            kernels.matmul_py(a, b, add, mul), kernels.matmul(a, b, add, mul)
        )
    if kernels.HAS_NUMBA:
        a = rng.integers(0, f.q, size=(7, 7)).astype(np.int64)
        assert kernels.rank_py(a.copy(), add, mul, neg, inv) == int(
            kernels.rank_jit(a.copy(), add, mul, neg, inv)
        )


def test_tables_stop_at_the_ceiling():
    with pytest.raises(ValidationError, match="1021"):
        make_field(2, 10).tables()


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
