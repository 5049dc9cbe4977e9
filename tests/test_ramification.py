"""Filtration encoding, jump numbering conversions, Hilbert's different."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from equideform.errors import FiltrationError, NotHasseArfError
from equideform.ramification import (
    JumpData,
    RamificationFiltration,
    different_from_jumps,
    lower_to_upper,
    upper_to_lower,
)


def test_unramified_filtration():
    f = RamificationFiltration(5, ())
    assert f.e0 == 1
    assert f.order_at(0) == 1
    assert f.jumps == ()
    assert f.hilbert_different() == 0
    assert f.is_weakly_ramified()


def test_weakly_ramified_order_p():
    f = RamificationFiltration.from_lower_jumps(3, (1,))
    assert f.segments == ((1, 3),)
    assert f.e0 == 3
    assert f.order_at(0) == 3 and f.order_at(1) == 3 and f.order_at(2) == 1
    assert f.hilbert_different() == 2 * (3 - 1)
    assert f.is_weakly_ramified()
    assert f.is_cyclic_pattern()


def test_deep_order_p_filtration():
    # single jump at 3: e_0 = e_1 = e_2 = e_3 = 5, then trivial
    f = RamificationFiltration.from_lower_jumps(5, (3,))
    assert f.hilbert_different() == 4 * (5 - 1) == 16
    assert not f.is_weakly_ramified()
    assert f.jump_data().different() == 16


def test_two_step_cyclic_filtration():
    # lower jumps (1, 1 + 2*2) = (1, 5) for p=2: a_0 = 1, a_1 = 2
    f = RamificationFiltration.from_lower_jumps(2, (1, 5))
    assert f.segments == ((1, 4), (5, 2))
    assert f.order_at(0) == 4
    assert f.order_at(3) == 2
    assert f.order_at(6) == 1
    # Hilbert: 2 indices of order 4, then 4 more of order 2
    assert f.hilbert_different() == 2 * 3 + 4 * 1 == 10
    assert f.jump_data().upper == (1, 3)
    assert different_from_jumps(2, (1, 5)) == (1 + 3) * 4 - (1 + 5) == 10


def test_segment_validation():
    with pytest.raises(FiltrationError):
        RamificationFiltration(4, ((1, 4),))  # composite characteristic
    with pytest.raises(FiltrationError):
        RamificationFiltration(2, ((0, 2),))  # G_0 = G_1 violated
    with pytest.raises(FiltrationError):
        RamificationFiltration(2, ((1, 3),))  # order not a 2-power
    with pytest.raises(FiltrationError):
        RamificationFiltration(2, ((1, 4), (1, 2)))  # indices not increasing
    with pytest.raises(FiltrationError):
        RamificationFiltration(2, ((1, 2), (3, 4)))  # orders not decreasing
    with pytest.raises(ValueError):
        RamificationFiltration(2, ((1, 2),)).order_at(-1)


def test_non_cyclic_pattern_detected():
    # one jump dropping straight from p^2 to 1
    f = RamificationFiltration(3, ((2, 9),))
    assert not f.is_cyclic_pattern()
    with pytest.raises(NotHasseArfError):
        f.jump_data()


def test_json_round_trip():
    f = RamificationFiltration(2, ((1, 8), (3, 4), (7, 2)))
    assert RamificationFiltration.from_json(f.to_json(), 2) == f
    with pytest.raises(FiltrationError):
        RamificationFiltration.from_json({"jumps": []}, 2)
    with pytest.raises(FiltrationError):
        RamificationFiltration.from_json({"orders": [[1]]}, 2)


def test_jump_data_validates_on_construction():
    with pytest.raises(NotHasseArfError):
        JumpData(2, (2, 3))  # second gap is 1, not a multiple of p


def test_jump_data_basic():
    jd = JumpData(2, (2,))
    assert jd.upper == (2,)
    assert jd.e0 == 2 and jd.k == 1
    assert jd.different() == (1 + 2) * 2 - (1 + 2) == 3


def test_lower_upper_inverse_round_trip():
    rng = random.Random(41)
    for p in (2, 3, 5):
        for _ in range(200):
            a = [rng.randrange(1, 20) for _ in range(rng.randrange(1, 5))]
            lower = upper_to_lower(p, [sum(a[: t + 1]) for t in range(len(a))])
            assert lower_to_upper(p, lower) == tuple(
                sum(a[: t + 1]) for t in range(len(a))
            )


def test_bad_jump_sequences_rejected():
    with pytest.raises(NotHasseArfError):
        lower_to_upper(2, (2, 3))  # gap 1 not divisible by p
    with pytest.raises(NotHasseArfError):
        lower_to_upper(2, (3, 3))  # gap 0
    with pytest.raises(NotHasseArfError):
        upper_to_lower(2, (1, 1))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.lists(st.integers(1, 12), min_size=1, max_size=4),
)
def test_closed_different_matches_hilbert_sum(p, a):
    lower = upper_to_lower(p, [sum(a[: t + 1]) for t in range(len(a))])
    f = RamificationFiltration.from_lower_jumps(p, lower)
    assert f.hilbert_different() == different_from_jumps(p, lower)
    assert f.jump_data().different() == f.hilbert_different()
