"""The explicit-curve oracle: bases, local expansions, Jordan structure."""

import math

import numpy as np
import pytest

from equideform.ascurve import ASCurve, JordanDecomposition, _diagonal_blocks, parse_laurent
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


def test_decompose_ranks_blocks_of_at_most_p(monkeypatch):
    from equideform import kernels

    shapes, products = [], []
    rank, matmul = kernels.rank, kernels.matmul

    def ranking(a, *tables):
        shapes.append(a.shape)
        return rank(a, *tables)

    def multiplying(a, b, *tables):
        shapes.extend((a.shape, b.shape))
        products.append(1)
        return matmul(a, b, *tables)

    monkeypatch.setattr(kernels, "rank", ranking)
    monkeypatch.setattr(kernels, "matmul", multiplying)
    for p, f in ((2, "x^5"), (5, "x^3"), (7, "x^-9"), (17, "x^40")):
        curve = ASCurve(p, f)
        shapes.clear()
        products.clear()
        dec = curve.decompose(curve.two_k_plus())
        assert shapes and max(max(s) for s in shapes) <= p
        assert len(products) <= (p - 1) * p
        assert len(dec.ranks) == p + 1 and dec.ranks[-1] == 0


def _rank_mod_p(mat, p):
    """Rank over GF(p) by plain row reduction, without the package kernels."""
    a = np.array(mat, dtype=np.int64) % p
    r = 0
    for j in range(a.shape[1]):
        nz = np.flatnonzero(a[r:, j])
        if nz.size == 0:
            continue
        a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        a[r] = a[r] * pow(int(a[r, j]), -1, p) % p
        below = a[r + 1 :, j].copy()
        a[r + 1 :] = (a[r + 1 :] - below[:, None] * a[r]) % p
        r += 1
        if r == a.shape[0]:
            break
    return r


@pytest.mark.parametrize(
    "p, f",
    [
        (2, "x^5"), (2, "x^3 + x^-1"),
        (3, "2*x^4"), (3, "x^2 + 2*x^-1"),
        (5, "x^3"), (5, "3*x + x^-2"),
        (7, "x^-9"), (7, "x^2 + 4*x^-3"),
        (11, "x^3"), (11, "x + 5*x^-2"),
        (13, "6*x^-4"), (13, "x + x^-1"),
    ],
)
def test_decompose_matches_dense_powers(p, f):
    curve = ASCurve(p, f)
    for extra in (0, 3):
        dec = curve.decompose(curve.two_k_plus(extra))
        nilp = curve.sigma_matrix(curve.rr_basis(curve.two_k_plus(extra)))
        np.fill_diagonal(nilp, 0)
        power = np.eye(dec.dim, dtype=np.int64)
        dense = []
        for _ in range(p + 1):
            dense.append(_rank_mod_p(power, p))
            power = power @ nilp % p
        assert dec.ranks == tuple(dense)


def _partition(blocks):
    return {frozenset(b.tolist()) for b in blocks}


def _check_blocks(blocks, n):
    assert sorted(i for b in blocks for i in b.tolist()) == list(range(n))
    assert all(np.all(np.diff(b) > 0) for b in blocks)
    assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)


def test_diagonal_blocks_of_a_permuted_block_matrix():
    rng = np.random.default_rng(11)
    sizes = rng.integers(1, 9, size=40)
    n = int(sizes.sum())
    mat = np.zeros((n, n), dtype=np.int64)
    groups, start = [], 0
    for size in sizes:
        idx = np.arange(start, start + size)
        # a random spanning path keeps the block connected, extra entries fill it
        walk = rng.permutation(idx)
        mat[walk[:-1], walk[1:]] = rng.integers(1, 7, size=size - 1)
        sub = mat[np.ix_(idx, idx)]
        sub[rng.random((size, size)) < 0.3] = 5
        mat[np.ix_(idx, idx)] = sub
        groups.append(idx)
        start += size
    perm = rng.permutation(n)
    where = np.argsort(perm)  # old index i sits at where[i] after permuting
    permuted = mat[np.ix_(perm, perm)]
    blocks = _diagonal_blocks(permuted)
    _check_blocks(blocks, n)
    assert _partition(blocks) == _partition([where[g] for g in groups])


def test_diagonal_blocks_follow_a_long_path():
    rng = np.random.default_rng(7)
    n = 300
    for order in (np.arange(n)[::-1], rng.permutation(n)):
        mat = np.zeros((n, n), dtype=np.int64)
        mat[order[:-1], order[1:]] = 1
        blocks = _diagonal_blocks(mat)
        assert len(blocks) == 1 and blocks[0].tolist() == list(range(n))


def test_diagonal_blocks_keep_zero_rows_and_columns_apart():
    mat = np.zeros((7, 7), dtype=np.int64)
    mat[1, 4] = 3
    mat[4, 6] = 2
    mat[5, 5] = 1
    blocks = _diagonal_blocks(mat)
    _check_blocks(blocks, 7)
    assert [b.tolist() for b in blocks] == [[0], [1, 4, 6], [2], [3], [5]]
    assert [b.tolist() for b in _diagonal_blocks(np.zeros((3, 3)))] == [[0], [1], [2]]


def test_diagonal_blocks_of_one_dense_block():
    rng = np.random.default_rng(3)
    mat = rng.integers(1, 5, size=(12, 12))
    blocks = _diagonal_blocks(mat)
    assert len(blocks) == 1 and blocks[0].tolist() == list(range(12))


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
