"""The explicit-curve oracle: bases, local expansions, Jordan structure."""

import math

import pytest

from equideform.ascurve import ASCurve, JordanDecomposition, parse_laurent
from equideform.divisors import OrbitDivisor
from equideform.errors import (
    BasisNotStableError,
    DegreeTooSmallError,
    GenusTooSmallError,
    NotRamifiedHereError,
    ValidationError,
)
from equideform.formulas import dim_cyclic


def test_parse_laurent():
    assert parse_laurent("x^3") == {3: 1}
    assert parse_laurent("x + x^-1") == {1: 1, -1: 1}
    assert parse_laurent("2*x^2 + 3") == {2: 2, 0: 3}
    assert parse_laurent("-x^2 + x^-3 - 4") == {2: -1, -3: 1, 0: -4}
    assert parse_laurent("x - x") == {}
    assert parse_laurent("x ^ -2") == {-2: 1}
    with pytest.raises(ValidationError):
        parse_laurent("y^2")
    with pytest.raises(ValidationError):
        parse_laurent("")
    with pytest.raises(ValidationError):
        parse_laurent("3^2")


def test_curve_construction_validation():
    with pytest.raises(ValidationError):
        ASCurve(5, "x^5")  # pole order divisible by p
    with pytest.raises(ValidationError):
        ASCurve(5, "x - x")  # zero
    with pytest.raises(ValidationError):
        ASCurve(5, "3")  # constant: unramified everywhere
    with pytest.raises(ValidationError):
        ASCurve(5, "x^-10 + x")  # pole at 0 divisible by p


def test_genus_table():
    assert ASCurve(2, "x^5").genus == 2
    assert ASCurve(3, "x^4").genus == 3
    assert ASCurve(5, "x^3").genus == 4
    assert ASCurve(7, "x^3").genus == 6
    assert ASCurve(5, "x^7").genus == 12
    assert ASCurve(2, "x + x^-1").genus == 1
    assert ASCurve(3, "x + x^-1").genus == 2
    assert ASCurve(5, "x + x^-1").genus == 4
    assert ASCurve(7, "x + x^-1").genus == 6
    assert ASCurve(5, "x^2 + x^-3").genus == 10


def test_sides_and_pole_orders():
    curve = ASCurve(5, "x^2 + x^-3")
    assert curve.sides == ("0", "inf")
    assert curve.r == 2
    assert curve.pole_order(0) == 3
    assert curve.pole_order("inf") == 2
    assert curve.different(0) == 16
    assert curve.orbit_key("inf") == 1
    one_sided = ASCurve(5, "x^3")
    assert one_sided.sides == ("inf",)
    with pytest.raises(NotRamifiedHereError):
        one_sided.pole_order(0)
    with pytest.raises(ValidationError):
        one_sided.pole_order("elsewhere")


def test_cover_view_matches_curve():
    curve = ASCurve(5, "x^3")
    cov = curve.cover()
    assert cov.p == 5 and cov.n == 1 and cov.g_y == 0
    assert cov.cyclic
    assert cov.orbits[0].filtration.jumps == (3,)
    assert cov.genus_x() == curve.genus
    two = ASCurve(3, "x + x^-1").cover()
    assert two.r == 2
    assert [o.filtration.jumps for o in two.orbits] == [(1,), (1,)]


def test_canonical_divisors():
    curve = ASCurve(5, "x^3")
    k = curve.canonical_x()
    assert k.coeffs == {0: 6}
    assert k.degree_x() == 2 * curve.genus - 2
    two = ASCurve(5, "x + x^-1")
    k2 = two.canonical_x()
    assert k2.degree_x() == 2 * two.genus - 2 == 6
    assert k2.coeffs == {0: 3, 1: 3}
    aug = two.two_k_plus(extra_r_red=3)
    assert aug.coeffs == {0: 9, 1: 9}


def test_local_valuations_one_pole():
    curve = ASCurve(5, "x^3")
    vals = curve.local_valuations("inf")
    assert vals == {"x": -5, "y": -3, "dx": 6, "different": 16}
    # different from the jump: (N + 1)(p - 1) = 16; v(dx) = d - 2p over inf
    assert vals["different"] == curve.different("inf")
    assert vals["dx"] == vals["different"] - 2 * curve.p


def test_local_valuations_two_poles():
    curve = ASCurve(5, "x + x^-1")
    at0 = curve.local_valuations(0)
    ati = curve.local_valuations("inf")
    assert at0["y"] == -1 and ati["y"] == -1
    assert at0["different"] == ati["different"] == 8
    # over x = 0 the different equals v(dx); over infinity subtract 2p
    assert at0["dx"] == 8
    assert ati["dx"] == -2
    assert at0["x"] == 5 and ati["x"] == -5


def test_canonical_degree_from_local_data():
    # deg div(dx) assembled from the measured valuations matches 2g - 2
    for p, f in [(5, "x^3"), (3, "x^4"), (5, "x + x^-1"), (5, "x^2 + x^-3"),
                 (5, "x^-3")]:
        curve = ASCurve(p, f)
        total = sum(curve.local_valuations(side)["dx"] for side in curve.sides)
        if "inf" not in curve.sides:
            # p unramified points over x = infinity, each with v(dx) = -2
            total -= 2 * p
        assert total == 2 * curve.genus - 2


def test_rr_basis_frozen_for_quadratic_differentials():
    curve = ASCurve(5, "x^3")
    basis = curve.rr_basis(curve.two_k_plus())
    assert basis == [
        (0, 0), (1, 0), (2, 0),
        (0, 1), (1, 1),
        (0, 2), (1, 2),
        (0, 3),
        (0, 4),
    ]


def test_rr_basis_guards():
    curve = ASCurve(5, "x^3")
    with pytest.raises(DegreeTooSmallError):
        curve.rr_basis(OrbitDivisor(curve.cover(), {0: 6}))  # deg = 2g - 2
    assert curve.rr_basis(OrbitDivisor(curve.cover(), {})) == [(0, 0)]


def test_rr_basis_counts_match_riemann_roch():
    for p, f in [(2, "x^5"), (3, "x^4"), (5, "x^3"), (5, "x + x^-1"),
                 (5, "x^2 + x^-3")]:
        curve = ASCurve(p, f)
        cov = curve.cover()
        for extra in (0, 1, 3):
            d = curve.two_k_plus(extra)
            basis = curve.rr_basis(d)
            assert len(basis) == d.degree_x() + 1 - curve.genus


def test_sigma_matrix_is_binomial():
    curve = ASCurve(5, "x^3")
    basis = curve.rr_basis(curve.two_k_plus())
    mat = curve.sigma_matrix(basis)
    index = {mono: i for i, mono in enumerate(basis)}
    for (a, b), j in index.items():
        for (a2, b2), i in index.items():
            want = math.comb(b, b2) % 5 if a2 == a and b2 <= b else 0
            assert mat[i, j] == want


def test_sigma_matrix_detects_unstable_basis():
    curve = ASCurve(5, "x^3")
    with pytest.raises(BasisNotStableError):
        curve.sigma_matrix([(0, 1)])  # the image needs (0, 0)


def test_decompose_frozen_for_one_pole_member():
    curve = ASCurve(5, "x^3")
    dec = curve.decompose(curve.two_k_plus())
    assert dec.dim == 9
    assert dec.ranks == (9, 6, 4, 2, 1, 0)
    assert dec.multiplicity(1) == 1
    assert dec.multiplicity(3) == 1
    assert dec.multiplicity(5) == 1
    assert dec.tot == 3
    assert not dec.is_free
    assert dec.to_json()["mult"] == {"1": 1, "3": 1, "5": 1}


def test_decompose_free_for_augmented_weakly_member():
    curve = ASCurve(5, "x + x^-1")
    dec = curve.decompose(curve.two_k_plus(extra_r_red=3))
    assert dec.dim == 15
    assert dec.is_free
    assert dec.multiplicity(5) == 3
    assert dec.tot == 3


def test_decompose_takes_p_minus_one_products(monkeypatch):
    from equideform import kernels

    calls = []
    matmul = kernels.matmul

    def counting(*args):
        calls.append(1)
        return matmul(*args)

    monkeypatch.setattr(kernels, "matmul", counting)
    for p, f in ((2, "x^5"), (5, "x^3"), (7, "x^-9")):
        curve = ASCurve(p, f)
        calls.clear()
        dec = curve.decompose(curve.two_k_plus())
        assert len(calls) == p - 1
        assert len(dec.ranks) == p + 1 and dec.ranks[-1] == 0


def test_decompose_needs_genus_two():
    small = ASCurve(2, "x + x^-1")  # genus 1
    with pytest.raises(GenusTooSmallError):
        small.decompose(OrbitDivisor(small.cover(), {0: 5, 1: 5}))


def test_jordan_decomposition_validation():
    with pytest.raises(ValidationError):
        JordanDecomposition(2, 2, (2, 1), (0, 1))  # ranks must cover 0..p
    with pytest.raises(ValidationError):
        JordanDecomposition(2, 2, (2, 1, 1), (0, 1))  # must end at 0
    with pytest.raises(ValidationError):
        JordanDecomposition(2, 3, (3, 1, 0), (1, 2))  # sizes exceed dim
    dec = JordanDecomposition(2, 3, (3, 1, 0), (1, 1))
    assert dec.tot == 2 and not dec.is_free


def test_oracle_tot_equals_cyclic_formula():
    for p, f in [(2, "x^5"), (3, "x^4"), (5, "x^3"), (7, "x^3"), (5, "x^7")]:
        curve = ASCurve(p, f)
        dec = curve.decompose(curve.two_k_plus())
        assert dec.tot == dim_cyclic(curve.cover()).value


def test_pole_numbers_frozen():
    curve = ASCurve(5, "x^3")
    nums = curve.pole_numbers("inf", 16)
    assert nums == [0, 3, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16]
    gaps = sorted(set(range(17)) - set(nums))
    assert gaps == [1, 2, 4, 7]
    assert len(gaps) == curve.genus
    with pytest.raises(ValidationError):
        curve.pole_numbers("inf", 3)


def test_pole_number_gaps_count_genus_two_poles():
    curve = ASCurve(5, "x^2 + x^-3")
    bound = 4 * curve.genus
    for side in curve.sides:
        nums = curve.pole_numbers(side, bound)
        gaps = [k for k in range(2 * curve.genus) if k not in nums]
        assert len(gaps) == curve.genus


def test_extension_cache_and_repr():
    curve = ASCurve(5, "x^3")
    assert curve.extension_at("inf") is curve.extension_at("inf")
    assert repr(curve) == "ASCurve(p=5, f=x^3)"
    assert "x^-1" in repr(ASCurve(5, "x + x^-1"))
