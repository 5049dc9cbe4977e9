"""Orbit divisors, pullback, floor pushforwards, the Tot count."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from equideform.cover import CoverData
from equideform.divisors import (
    OrbitDivisor,
    QuotientDivisor,
    floor_pushforward_closed,
    floor_pushforward_iterated,
    pullback,
    tot_riemann_roch,
)
from equideform.errors import DegreeTooSmallError, NotCyclicError, ValidationError
from equideform.ramification import RamificationFiltration


def make_cover(p=5, jumps=(3,), n=1, g_y=0, r=1, cyclic=None):
    orbit = RamificationFiltration.from_lower_jumps(p, jumps)
    return CoverData(p, n, g_y, (orbit,) * r, cyclic=cyclic)


def test_coefficient_cleaning():
    cover = make_cover()
    d = OrbitDivisor(cover, {0: 3, "unram:a": 0})
    assert d.coeffs == {0: 3}  # zero coefficients dropped
    assert d.coeff("unram:a") == 0
    assert d.support() == [0]
    with pytest.raises(ValidationError):
        OrbitDivisor(cover, {1: 1})  # out of range
    with pytest.raises(ValidationError):
        OrbitDivisor(cover, {"infinity": 1})  # unprefixed label
    with pytest.raises(ValidationError):
        OrbitDivisor(cover, {True: 1})
    with pytest.raises(ValidationError):
        OrbitDivisor(cover, {1.5: 1})


def test_degrees():
    cover = make_cover(p=3, jumps=(1,), n=2, r=2)  # e_0 = 3, orbit size 3
    d = OrbitDivisor(cover, {0: 2, 1: -1, "unram:q": 4})
    assert d.degree_x() == 3 * 2 + 3 * (-1) + 9 * 4
    q = QuotientDivisor(cover, {0: 2, "unram:q": 4})
    assert q.degree_y() == 6


def test_arithmetic():
    cover = make_cover()
    a = OrbitDivisor(cover, {0: 3})
    b = OrbitDivisor(cover, {0: -1, "unram:t": 2})
    assert (a + b).coeffs == {0: 2, "unram:t": 2}
    assert (a - b).coeffs == {0: 4, "unram:t": -2}
    assert (2 * a).coeffs == {0: 6}
    assert (a * 0).coeffs == {}
    with pytest.raises(TypeError):
        a + QuotientDivisor(cover, {0: 1})
    other = make_cover(p=7)
    with pytest.raises(ValidationError):
        a + OrbitDivisor(other, {0: 1})


def test_divisors_are_unhashable_but_comparable():
    cover = make_cover()
    a = OrbitDivisor(cover, {0: 3})
    assert a == OrbitDivisor(cover, {0: 3})
    assert a != OrbitDivisor(cover, {0: 2})
    with pytest.raises(TypeError):
        hash(a)


def test_json_round_trip():
    cover = make_cover()
    d = OrbitDivisor(cover, {0: 3, "unram:z": -2})
    assert OrbitDivisor.from_json(cover, d.to_json()) == d
    with pytest.raises(ValidationError):
        OrbitDivisor.from_json(cover, {"coeffs": [{"orbit": 0}]})
    with pytest.raises(ValidationError):
        OrbitDivisor.from_json(
            cover, {"coeffs": [{"orbit": 0, "n": 1}, {"orbit": 0, "n": 2}]}
        )
    with pytest.raises(ValidationError):
        OrbitDivisor.from_json(cover, [])


def test_pullback_coefficients():
    cover = make_cover(p=5, jumps=(3,))
    q = QuotientDivisor(cover, {0: 2, "unram:w": 3})
    up = pullback(q)
    assert up.coeff(0) == 10  # e_0 = 5 over the branch point
    assert up.coeff("unram:w") == 3
    assert up.degree_x() == 1 * 10 + 5 * 3


def test_floor_pushforward_closed_and_iterated_agree():
    rng = random.Random(71)
    for p in (2, 3, 5):
        for kappa in range(0, 4):
            if kappa == 0:
                cover = CoverData(p, 1, 0, (
                    RamificationFiltration.from_lower_jumps(p, (1,)),
                ))
                key = "unram:pt"
            else:
                jumps = tuple(
                    sum(1 * p**t for t in range(s + 1)) for s in range(kappa)
                )
                cover = CoverData(p, kappa, 0, (
                    RamificationFiltration.from_lower_jumps(p, jumps),
                ))
                key = 0
            for _ in range(100):
                n = rng.randrange(-(10**4), 10**4 + 1)
                d = OrbitDivisor(cover, {key: n})
                closed = floor_pushforward_closed(d)
                iterated = floor_pushforward_iterated(d)
                assert closed == iterated
                assert closed.coeff(key) == n // cover.e0(key)


def test_pushforward_requires_cyclic():
    drop2 = RamificationFiltration(3, ((2, 9),))
    cover = CoverData(3, 2, 1, (drop2,))
    with pytest.raises(NotCyclicError):
        floor_pushforward_closed(OrbitDivisor(cover, {0: 5}))
    with pytest.raises(NotCyclicError):
        tot_riemann_roch(OrbitDivisor(cover, {0: 100}))


def test_tot_riemann_roch_values():
    # e_0 = 5, g_X = 4, K_X supported on the single branch orbit with n = 6
    cover = make_cover(p=5, jumps=(3,))
    assert cover.genus_x() == 4
    two_k = OrbitDivisor(cover, {0: 12})
    assert tot_riemann_roch(two_k) == 1 - 0 + 12 // 5 == 3
    with pytest.raises(DegreeTooSmallError):
        tot_riemann_roch(OrbitDivisor(cover, {0: 6}))  # deg = 2g - 2


def test_tot_riemann_roch_counts_dimension_when_unramified_free():
    # divisor supported off the branch locus: floor by e_0 = 1 does nothing
    cover = make_cover(p=5, jumps=(3,))
    d = OrbitDivisor(cover, {"unram:a": 2})  # degree 10 > 6
    assert tot_riemann_roch(d) == 1 + 2  # 1 - g_Y + 2


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(0, 6), st.integers(-(10**4), 10**4))
def test_iterated_floor_identity(p, kappa, n):
    # floor(floor(n / p^j) / p) = floor(n / p^(j+1)) chains to one division
    value = n
    for _ in range(kappa):
        value //= p
    assert value == n // p**kappa
