"""Truncated Laurent series, Artin-Schreier solving, towers, pole numbers."""

import random

import pytest

from equideform import localfield
from equideform.ascurve import ASCurve
from equideform.errors import (
    ConsistencyError,
    MissingRootError,
    NoOddPoleNumberError,
    NonNegativeValuationError,
    NotWeaklyRamifiedActionError,
    PrecisionExhaustedError,
    PreconditionError,
    ValidationError,
)
from equideform.gf import make_field
from equideform.localfield import (
    LaurentSeriesTrunc,
    Tower,
    artin_schreier_root,
    as_normalize,
    build_extension,
    compose,
    default_tower,
    extract_alpha_beta,
    measure_jump,
    series,
    weierstrass_check,
    zero_series,
)

F5 = make_field(5)
F2 = make_field(2)
F3 = make_field(3)


def test_series_builder_and_window():
    x = series(F5, {-2: 3, 0: 1}, 4)
    assert x.lo == -2 and x.prec == 4
    assert x.coeff(-2) == F5(3)
    assert x.coeff(-5) == F5.zero
    assert x.coeff(3) == F5.zero
    with pytest.raises(PrecisionExhaustedError):
        x.coeff(4)
    assert list(x.terms()) == [(-2, F5(3)), (0, F5.one)]
    with pytest.raises(ValidationError):
        series(F5, [(-1, 1), (-1, 2)], 4)
    with pytest.raises(ValidationError):
        series(F5, {5: 1}, 4)


def test_leading_zeros_normalized():
    x = LaurentSeriesTrunc(F5, -3, [F5.zero, F5.one, F5.zero, F5(2)], 1)
    assert x.lo == -2
    assert x.coeffs == (F5.one, F5.zero, F5(2))
    with pytest.raises(ValidationError):
        LaurentSeriesTrunc(F5, 0, [F5.one], 3)  # window length mismatch


def test_zero_series_semantics():
    z = zero_series(F5, 6)
    assert z.is_zero
    assert z.val == float("inf")
    with pytest.raises(PrecisionExhaustedError):
        z.valuation()
    with pytest.raises(PrecisionExhaustedError):
        z.inverse()
    with pytest.raises(PrecisionExhaustedError):
        z ** 0


def test_addition_and_precision_flow():
    a = series(F5, {-1: 1, 2: 3}, 5)
    b = series(F5, {0: 4}, 3)
    c = a + b
    assert c.prec == 3
    assert c.coeff(-1) == F5.one and c.coeff(0) == F5(4)
    assert (a + 0) is a
    d = a + 2
    assert d.coeff(0) == F5(2)
    # cancellation shortens the known window but keeps the bound
    e = series(F5, {-1: 1}, 5) - series(F5, {-1: 1}, 5)
    assert e.is_zero and e.prec == 5


def test_multiplication_precision_flow():
    a = series(F5, {-1: 1}, 5)  # O(t^5)
    b = series(F5, {1: 1}, 3)  # O(t^3)
    c = a * b
    assert c.prec == min(-1 + 3, 1 + 5) == 2
    assert c.coeff(0) == F5.one
    assert (a * 0).is_zero
    assert (3 * a).coeff(-1) == F5(3)


def test_big_multiplication_matches_naive():
    rng = random.Random(31)
    f = make_field(3, 2)
    n = 40  # big enough for the table-driven path
    a = series(f, {i: f.sample(rng) for i in range(-3, n - 3)}, n - 3)
    b = series(f, {i: f.sample(rng) for i in range(0, n)}, n)
    prod = a * b
    for k in range(prod.lo, prod.prec):
        want = f.zero
        for i in range(a.lo, min(a.prec, k - b.lo + 1)):
            j = k - i
            if b.lo <= j < b.prec:
                want = want + a.coeff(i) * b.coeff(j)
        assert prod.coeff(k) == want


def test_inverse_round_trip():
    rng = random.Random(12)
    for f in (F5, make_field(2, 3)):
        for _ in range(10):
            coeffs = {i: f.sample(rng) for i in range(-2, 30)}
            coeffs[-2] = f.one
            x = series(f, coeffs, 30)
            inv = x.inverse()
            assert inv.lo == 2
            one = x * inv
            assert one.coeff(0) == f.one
            assert all(c == f.zero for e, c in one.terms() if e != 0)


def test_pow_shift_truncate():
    x = series(F5, {1: 2}, 6)
    assert (x ** 3).coeff(3) == F5(8 % 5)
    assert (x ** -2).coeff(-2) == F5(2).inverse() ** 2
    assert x.shift(-1).coeff(0) == F5(2)
    t = x.truncate(2)
    assert t.prec == 2 and t.coeff(1) == F5(2)
    assert x.truncate(99) is x


def test_pth_power_and_derivative():
    f = make_field(3, 2)
    w = f.gen()
    x = series(f, {-1: w, 2: 1}, 4)
    fr = x.pth_power()
    assert fr.coeff(-3) == w ** 3
    assert fr.coeff(6) == f.one
    assert fr.prec == 12
    d = x.derivative()
    assert d.coeff(-2) == -w
    assert d.coeff(1) == f(2)
    # exponent divisible by p drops out
    assert series(F3, {3: 1}, 5).derivative().is_zero


def test_series_equality_and_hash():
    a = series(F5, {1: 2}, 4)
    assert a == series(F5, {1: 2}, 4)
    assert a != series(F5, {1: 2}, 5)
    assert len({a, series(F5, {1: 2}, 4)}) == 1
    assert "t" in repr(a) and "O(t^4)" in repr(a)


def test_compose_basic():
    x = series(F5, {-1: 1, 1: 2}, 4)
    s = series(F5, {2: 1}, 8)
    y = compose(x, s)
    assert y.coeff(-2) == F5.one
    assert y.coeff(2) == F5(2)
    assert y.prec <= 2 * 4
    with pytest.raises(ValidationError):
        compose(x, series(F5, {0: 1, 1: 1}, 4))
    with pytest.raises(TypeError):
        compose(x, 3)


def test_compose_linear_substitution_exact():
    # x(t) = t^2, s = t + t^2: x(s) = t^2 + 2t^3 + t^4
    x = series(F5, {2: 1}, 6)
    s = series(F5, {1: 1, 2: 1}, 6)
    y = compose(x, s)
    assert y.coeff(2) == F5.one
    assert y.coeff(3) == F5(2)
    assert y.coeff(4) == F5.one


def test_as_normalize_trivial_when_coprime():
    x = series(F5, {-3: 1}, 4)
    xn, corr = as_normalize(x)
    assert xn is x and corr == []


def test_as_normalize_peels_pth_powers():
    x = series(F3, {-3: 1, -2: 1}, 4)
    xn, corr = as_normalize(x)
    assert xn.valuation() == -2
    assert len(corr) == 1
    # the Artin-Schreier class is unchanged: x - xn = sum(w^p - w)
    delta = x - xn
    recon = zero_series(F3, delta.prec)
    for w in corr:
        recon = recon + w.pth_power() - w
    assert delta.agrees_with(recon)


def test_as_normalize_detects_split():
    # over GF(2): t^-4 + t^-1 reduces all the way to zero
    x = series(F2, {-4: 1, -1: 1}, 2)
    with pytest.raises(NonNegativeValuationError):
        as_normalize(x)


def test_as_normalize_rejects_no_pole():
    with pytest.raises(NonNegativeValuationError):
        as_normalize(series(F5, {0: 1, 1: 1}, 3))


def test_build_extension_solves_relations():
    x = series(F5, {-3: 1}, 40)
    ext = build_extension(x, 16)
    assert ext.m == 3
    assert ext.s_of_t.valuation() == 5
    assert ext.y_of_t.valuation() == -3
    assert ext.verify()
    r1, r2 = ext.residuals()
    assert r1.truncate(16).is_zero and r2.truncate(16).is_zero


def test_build_extension_preconditions():
    with pytest.raises(PreconditionError):
        build_extension(series(F5, {-5: 1}, 30), 8)
    with pytest.raises(NonNegativeValuationError):
        build_extension(series(F5, {0: 1, 1: 1}, 30), 8)
    with pytest.raises(NonNegativeValuationError):
        build_extension(zero_series(F5, 4), 8)


def test_measure_jump_reads_the_single_jump():
    for p, m in [(2, 1), (3, 2), (5, 3), (5, 1)]:
        f = make_field(p)
        x = series(f, {-m: 1}, 60)
        if m % p == 0:
            continue
        ext = build_extension(x, 2 * m + 6)
        assert measure_jump(ext) == m
        assert measure_jump(ext, c=p - 1) == m


def test_measure_jump_validates_c():
    ext = build_extension(series(F5, {-1: 1}, 30), 10)
    with pytest.raises(ValidationError):
        measure_jump(ext, c=0)
    f = make_field(5, 2)
    x = series(f, {-1: 1}, 30)
    ext2 = build_extension(x, 10)
    with pytest.raises(ValidationError):
        measure_jump(ext2, c=f.gen())


def test_extract_alpha_beta_from_moebius():
    f = make_field(2, 2)
    a = f.gen()
    denom = series(f, {0: 1, 1: -a}, 6)
    gt = series(f, {1: 1}, 7) * denom.inverse()  # t/(1 - a t)
    alpha, beta = extract_alpha_beta(gt)
    assert alpha == a
    assert beta == a * a
    with pytest.raises(NotWeaklyRamifiedActionError):
        extract_alpha_beta(series(f, {2: 1}, 5))
    with pytest.raises(NotWeaklyRamifiedActionError):
        extract_alpha_beta(series(f, {1: a}, 5))


def test_artin_schreier_root():
    f = make_field(2, 2)
    for z in f.elements():
        try:
            w = artin_schreier_root(f, z)
        except MissingRootError:
            continue
        assert w ** 2 - w == z
    with pytest.raises(MissingRootError):
        artin_schreier_root(F2, F2.one)


@pytest.mark.parametrize("p, m", [(2, 1), (2, 3), (2, 4), (3, 1), (3, 3), (5, 2), (7, 2)])
def test_artin_schreier_root_is_the_lowest_coded_root(p, m):
    # the towers that default_tower finds depend on which root is returned
    f = make_field(p, m)
    for z in f.elements():
        roots = [w for w in f.elements() if w ** p - w == z]
        if roots:
            assert artin_schreier_root(f, z) == roots[0]
        else:
            with pytest.raises(MissingRootError):
                artin_schreier_root(f, z)


def test_tower_rank_one():
    tower = default_tower(2, 1, prec=12)
    g = tower.generators[0]
    assert g.alpha == -tower.field.one
    assert tower.check_structure(g)
    assert tower.check_consistency(g)
    alpha, beta = tower.alpha_beta_pairs()[0]
    assert alpha == g.alpha and beta == alpha * alpha


def test_tower_rank_two_group_law():
    tower = default_tower(2, 2, prec=12)
    g, h = tower.generators
    assert (g * h).deltas == tuple(a + b for a, b in zip(g.deltas, h.deltas))
    assert (g * h).alpha == g.alpha + h.alpha
    assert (g ** 2).is_identity  # exponents live in Z/2
    assert tower.identity.is_identity
    assert len(list(tower.elements())) == 4
    for el in tower.elements():
        if el.is_identity:
            continue
        assert tower.check_structure(el)
        assert tower.check_consistency(el)
        alpha, beta = extract_alpha_beta(el.action_on_t(8))
        assert alpha == el.alpha and beta == alpha * alpha


def test_tower_generator_chains():
    tower = default_tower(2, 2, prec=10)
    f = tower.field
    for g in tower.generators:
        for i in range(1, tower.n):
            d, d_next = g.deltas[i - 1], g.deltas[i]
            assert d_next ** tower.p - d_next == tower.level_constant(i + 1) * d


def test_tower_level_map():
    tower = default_tower(3, 1, prec=10)
    smap = tower.level_map(1, 10)
    assert smap.valuation() == 3
    assert smap.coeff(3) == tower.field.one


def test_tower_validation():
    f = make_field(2, 2)
    with pytest.raises(ValidationError):
        Tower(f, 0)
    with pytest.raises(ValidationError):
        Tower(make_field(2), 2, (1,))  # residue field too small
    with pytest.raises(ValidationError):
        Tower(f, 2, ())  # missing constant
    with pytest.raises(ValidationError):
        Tower(f, 2, (0,))  # zero constant
    tower = default_tower(2, 2)
    with pytest.raises(ValidationError):
        tower.element([1])
    with pytest.raises(ValidationError):
        tower.level_constant(5)


def test_default_tower_exhausts_and_fails_cleanly():
    with pytest.raises(MissingRootError):
        default_tower(2, 2, max_m=1)


def test_weierstrass_check_outcomes():
    ok = weierstrass_check([0, 4, 5, 8], bound=8)
    assert ok.passed and ok.witness == 5
    assert "1 mod 4" in ok.reason
    bad_mod = weierstrass_check([0, 3, 4], bound=8)
    assert not bad_mod.passed and bad_mod.witness == 3
    missing = weierstrass_check([0, 5, 8], bound=8)
    assert not missing.passed and "4" in missing.reason
    assert missing.to_json()["passed"] is False
    with pytest.raises(NoOddPoleNumberError):
        weierstrass_check([0, 2, 4], bound=8)
    with pytest.raises(ValidationError):
        weierstrass_check([-1, 5], bound=8)


# -- differential check of the digit-array arithmetic --------------------------
#
# A reference series is (lo, prec, [FFElem, ...]) with the window rules of
# LaurentSeriesTrunc; its arithmetic runs element by element in FFElem.


def ref_of(field, lo, vals, prec):
    vals = list(vals)
    while vals and vals[0] == field.zero:
        vals.pop(0)
        lo += 1
    return lo, prec, vals


def ref_coeff(field, x, k):
    lo, prec, vals = x
    assert k < prec
    return vals[k - lo] if k >= lo else field.zero


def ref_mul(field, x, y):
    prec = min(x[0] + y[1], y[0] + x[1])
    lo = x[0] + y[0]
    acc = [field.zero] * (prec - lo)
    for i, a in enumerate(x[2][: len(acc)]):
        for j, b in enumerate(y[2][: len(acc) - i]):
            acc[i + j] = acc[i + j] + a * b
    return ref_of(field, lo, acc, prec)


def ref_add_scalar(field, x, c):
    lo = min(x[0], 0, x[1])
    vals = [ref_coeff(field, x, k) for k in range(lo, x[1])]
    if lo <= 0 < x[1]:
        vals[-lo] = vals[-lo] + c
    return ref_of(field, lo, vals, x[1])


def ref_inverse(field, x):
    lo, prec, vals = x
    out = [vals[0].inverse()]
    for k in range(1, prec - lo):
        acc = field.zero
        for i in range(1, min(k, len(vals) - 1) + 1):
            acc = acc + vals[i] * out[k - i]
        out.append(-out[0] * acc)
    return ref_of(field, -lo, out, -lo + prec - lo)


def ref_pow(field, x, e):
    if e < 0:
        x, e = ref_inverse(field, x), -e
    out = x
    for _ in range(e - 1):
        out = ref_mul(field, out, x)
    return out


def ref_compose(field, x, s):
    w = s[0]
    span = (s[1] - s[0]) + w * (x[1] - x[0]) + 8
    acc = ref_of(field, 0, [ref_coeff(field, x, x[1] - 1)] + [field.zero] * (span - 1), span)
    for k in range(x[1] - 2, x[0] - 1, -1):
        acc = ref_add_scalar(field, ref_mul(field, acc, s), ref_coeff(field, x, k))
    if x[0] != 0:
        acc = ref_mul(field, acc, ref_pow(field, s, x[0]))
    cap = min(acc[1], w * x[1])
    lo = min(acc[0], cap)
    return ref_of(field, lo, [ref_coeff(field, acc, k) for k in range(lo, cap)], cap)


def random_series(field, rng, lo_range, max_len):
    lo = rng.randrange(*lo_range)
    vals = [field.sample(rng) for _ in range(rng.randrange(1, max_len + 1))]
    while vals[0] == field.zero:
        vals[0] = field.sample(rng)
    return LaurentSeriesTrunc(field, lo, vals, lo + len(vals)), (lo, lo + len(vals), vals)


def same(got, want):
    assert (got.lo, got.prec, list(got.coeffs)) == want


@pytest.mark.parametrize("p, m, max_len", [
    (2, 1, 24), (5, 1, 24), (13, 1, 24), (3, 2, 16), (2, 8, 12), (2, 11, 8),
])
def test_digit_arithmetic_matches_element_reference(p, m, max_len):
    field = make_field(p, m)
    rng = random.Random(1000 * p + m)
    for _ in range(8):
        (a, ra), (b, rb) = (random_series(field, rng, (-4, 3), max_len) for _ in "ab")
        same(a * b, ref_mul(field, ra, rb))
        same(a.inverse(), ref_inverse(field, ra))
        same(a.pth_power(), ref_of(field, p * ra[0], [
            ra[2][i // p] ** p if i % p == 0 else field.zero
            for i in range(p * len(ra[2]))], p * ra[1]))
        same(a.derivative(), ref_of(field, ra[0] - 1, [
            field(ra[0] + i) * c for i, c in enumerate(ra[2])], ra[1] - 1))
        c = field.sample(rng)
        same(c * a, ref_of(field, ra[0], [c * v for v in ra[2]], ra[1]))
        x, rx = random_series(field, rng, (-2, 2), 4)
        s, rs = random_series(field, rng, (1, 3), 6)
        same(compose(x, s), ref_compose(field, rx, rs))


def test_digit_products_never_wrap():
    # p = 2^31 - 1: two products of digits fit in int64, three could overflow
    field = make_field(2**31 - 1)
    rng = random.Random(7)
    a, ra = random_series(field, rng, (0, 1), 1)
    vals = [field(-1), field(-2)]
    b = LaurentSeriesTrunc(field, 0, vals, 2)
    same(b * b, ref_mul(field, (0, 2, vals), (0, 2, vals)))
    same(a * b, ref_mul(field, ra, (0, 2, vals)))
    c = LaurentSeriesTrunc(field, 0, vals + [field(-3)], 3)
    with pytest.raises(ValidationError):
        c * c
    # Newton's products for an inverse of length 3 sum at most two terms
    same(c.inverse(), ref_inverse(field, (0, 3, vals + [field(-3)])))
    # p = 2^32 + 15: a single product of digits can overflow
    big = make_field(2**32 + 15)
    x = series(big, {-1: -1, 0: 1}, 3)
    for op in (lambda: x * x, x.derivative, x.pth_power):
        with pytest.raises(ValidationError):
            op()


@pytest.mark.parametrize("p, m", [(2, 1), (5, 1), (13, 1), (3, 2), (2, 3)])
def test_sparse_compose_matches_element_reference(p, m):
    # x shaped like ASCurve._x_series: a pole at lo, at most one more term,
    # and a long window that is zero almost everywhere
    field = make_field(p, m)
    rng = random.Random(100 * p + m)

    def nonzero():
        c = field.sample(rng)
        return c if c != field.zero else field.one

    for shape in ("lo only", "lo and one more", "top set", "top only", "top zero"):
        for _ in range(2):
            lo = -rng.randrange(1, 30)
            prec = lo + rng.randrange(30, 121)
            vals = [field.zero] * (prec - lo)
            vals[0] = nonzero()
            if shape == "lo and one more":
                vals[rng.randrange(1, len(vals) - 1)] = nonzero()
            if shape in ("top set", "top only"):
                vals[-1] = nonzero()
            if shape == "top set":
                vals[rng.randrange(1, len(vals) - 1)] = nonzero()
            if shape == "top zero":
                vals[rng.randrange(1, len(vals) - 2)] = nonzero()
                vals[-2] = nonzero()
            x = LaurentSeriesTrunc(field, lo, vals, prec)
            s, rs = random_series(field, rng, (1, 3), 8)
            same(compose(x, s), ref_compose(field, (lo, prec, vals), rs))


# p - 1 just below 2^23: a middle sum of 128 digit products stays below
# 2^53, while 129 products (p - 2)^2 pass it with an odd sum that float64
# cannot hold.  Just above 2^26 one product of digits fits and two do not.
assert 128 * (8388593 - 1) ** 2 < 2**53 < 129 * (8388593 - 2) ** 2
assert (67108879 - 1) ** 2 < 2**53 <= 2 * (67108879 - 1) ** 2


@pytest.mark.parametrize("p, n", [
    (8388593, 128), (8388593, 129), (67108879, 1), (67108879, 2), (67108879, 60),
    (2**31 - 1, 2),
])
def test_products_across_the_float64_boundary(p, n):
    field = make_field(p)
    rng = random.Random(n)
    for vals in ([field(-2)] * n, [field(p - 1 - rng.randrange(3)) for _ in range(n)]):
        a = LaurentSeriesTrunc(field, 0, vals, n)
        same(a * a, ref_mul(field, (0, n, vals), (0, n, vals)))
    b, rb = random_series(field, rng, (-2, 2), n)
    same(a * b, ref_mul(field, (0, n, vals), rb))


def _dense_compose(x, s):
    """The substitution by Horner's rule over every coefficient of x's window."""
    field = x.field
    if x.is_zero:
        return zero_series(field, s.lo * x.prec)
    span = (s.prec - s.lo) + s.lo * (x.prec - x.lo) + 8
    acc = series(field, {0: x.coeff(x.prec - 1)}, span)
    for k in range(x.prec - 2, x.lo - 1, -1):
        acc = acc * s + x.coeff(k)
    out = acc * (s ** x.lo) if x.lo != 0 else acc
    return out.truncate(min(out.prec, s.lo * x.prec))


@pytest.mark.parametrize("p, f", [
    (2, "x^-5"), (2, "x^-3 + x^5"), (3, "2*x^-7"), (3, "x^-4 + 2*x^5"),
    (5, "x^3"), (5, "x^-3 + 3*x^4"), (13, "7*x^-3"), (13, "x^-2 + 5*x^3"),
])
def test_build_extension_is_the_same_with_dense_compose(p, f, monkeypatch):
    def solved():
        curve = ASCurve(p, f)  # a fresh curve, so no extension comes from a cache
        exts = [curve.extension_at(side) for side in curve.sides]
        return [(z.lo, z.prec, z.digits.tobytes()) for e in exts for z in (e.s_of_t, e.y_of_t)]

    sparse = solved()
    monkeypatch.setattr(localfield, "compose", _dense_compose)
    assert solved() == sparse
