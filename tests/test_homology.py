"""Explicit chain-complex homology versus the closed-form classification."""

import random

import numpy as np
import pytest

from equideform.errors import AlphaNotInjectiveError, ValidationError
from equideform.gf import make_field
from equideform.homology import (
    AlphaBeta,
    ChainComplex,
    build_complex,
    closed_form,
    homology_dims,
    random_alpha_beta,
)


def test_alpha_beta_validation():
    f = make_field(5)
    with pytest.raises(ValidationError):
        AlphaBeta(f, 0, (), ())
    with pytest.raises(ValidationError):
        AlphaBeta(f, 2, (1,), (0, 0))


def test_alpha_injective():
    f = make_field(3, 2)
    w = f.gen()
    assert AlphaBeta(f, 2, (f.one, w), (0, 0)).alpha_injective()
    # 2*1 and 1 are F_3-dependent
    assert not AlphaBeta(f, 2, (f.one, f(2)), (0, 0)).alpha_injective()
    assert not AlphaBeta(f, 1, (f.zero,), (0,)).alpha_injective()


def test_beta_multiple_of_alpha():
    f = make_field(5, 2)
    w = f.gen()
    ab = AlphaBeta(f, 2, (f.one, w), (w, w * w))
    assert ab.beta_multiple_of_alpha()
    ab = AlphaBeta(f, 2, (f.one, w), (w, f.one))
    assert not ab.beta_multiple_of_alpha()
    # the zero beta is a multiple (c = 0)
    assert AlphaBeta(f, 2, (f.one, w), (0, 0)).beta_multiple_of_alpha()


def _generator(ab, i):
    """Code matrix of g_i: the identity plus the d1 block g_i - 1."""
    return build_complex(ab).d1[:, 3 * i : 3 * i + 3] + np.eye(3, dtype=np.int64)


def test_module_action_is_unipotent_order_p():
    for p, m in [(2, 3), (3, 1), (3, 2), (5, 2), (7, 1)]:
        f = make_field(p, m)
        rng = random.Random(p * m)
        ab = AlphaBeta(f, 1, (f.sample(rng),), (f.sample(rng),))
        g = _generator(ab, 0)
        power = g
        for _ in range(p - 1):
            power = f.matmul(power, g)
        assert power.tolist() == np.eye(3, dtype=np.int64).tolist(), (p, m)


def test_generators_commute():
    rng = random.Random(11)
    for p, s in [(2, 3), (3, 2), (5, 2), (7, 3)]:
        ab = random_alpha_beta(p, s, rng)
        f = ab.field
        gens = [_generator(ab, i) for i in range(s)]
        for i in range(s):
            for j in range(i + 1, s):
                a, b = gens[i], gens[j]
                assert f.matmul(a, b).tolist() == f.matmul(b, a).tolist()


def _element_norm(ab, i):
    """1 + g_i + ... + g_i^(p-1) from field elements, no code matrices."""
    f = ab.field
    one, zero = f.one, f.zero
    a, b = ab.alpha[i], ab.beta[i]
    g = ((one, 2 * a, b), (zero, one, a), (zero, zero, one))
    total = [[one if r == c else zero for c in range(3)] for r in range(3)]
    power = [row[:] for row in total]
    for _ in range(ab.p - 1):
        power = [
            [sum((power[r][t] * g[t][c] for t in range(3)), zero) for c in range(3)]
            for r in range(3)
        ]
        total = [[total[r][c] + power[r][c] for c in range(3)] for r in range(3)]
    return [[x.code() for x in row] for row in total]


def test_norm_blocks_are_sums_of_generator_powers():
    # d1 d2 = 0 cannot pin the exponent: (g - 1)^k vanishes for every k >= 3
    cases = [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2), (31, 1), (31, 2)]
    for p, m in cases:
        f = make_field(p, m)
        rng = random.Random(31 * p + m)
        for s in (1, 2, 3):
            for _ in range(3):
                alpha = tuple(f.sample(rng) for _ in range(s))
                beta = tuple(f.sample(rng) for _ in range(s))
                ab = AlphaBeta(f, s, alpha, beta)
                d2 = build_complex(ab).d2
                for i in range(s):
                    block = d2[3 * i : 3 * i + 3, 3 * i : 3 * i + 3]
                    assert block.tolist() == _element_norm(ab, i), (p, m, s, i)


def test_complex_shapes():
    rng = random.Random(7)
    ab = random_alpha_beta(3, 3, rng)
    cx = build_complex(ab)
    assert isinstance(cx, ChainComplex)
    assert cx.d1.shape == (3, 9)
    assert cx.d2.shape == (9, 3 * (3 + 3))


def test_complex_composes_to_zero():
    for p, s in [(2, 1), (2, 3), (3, 2), (5, 2), (7, 1)]:
        rng = random.Random(100 * p + s)
        ab = random_alpha_beta(p, s, rng)
        cx = build_complex(ab)
        prod = ab.field.matmul(cx.d1, cx.d2)
        assert not prod.any()


def test_closed_form_values():
    f = make_field(5, 2)
    ab = AlphaBeta(f, 2, (f.one, f.gen()), (0, 0))
    h = closed_form(ab)
    assert (h.h0, h.h1, h.difference) == (1, 2, -1)
    f = make_field(3, 2)
    ab = AlphaBeta(f, 2, (f.one, f.gen()), (0, 0))
    assert closed_form(ab).to_json() == {"h0": 1, "h1": 1, "difference": 0}
    f = make_field(2, 2)
    w = f.gen()
    assert closed_form(AlphaBeta(f, 2, (f.one, w), (w, w * w))).difference == -1
    assert closed_form(AlphaBeta(f, 2, (f.one, w), (w, f.one))).difference == 0


def test_closed_form_needs_injective_alpha():
    f = make_field(5)
    with pytest.raises(AlphaNotInjectiveError):
        closed_form(AlphaBeta(f, 1, (0,), (1,)))


def test_homology_matches_closed_form_odd_p():
    for p in (3, 5, 7):
        for s in (1, 2, 3):
            rng = random.Random(1000 * p + s)
            for _ in range(25):
                ab = random_alpha_beta(p, s, rng)
                h0, h1 = homology_dims(ab)
                want = closed_form(ab)
                assert (h0, h1) == (want.h0, want.h1)


def test_homology_matches_closed_form_p2_both_branches():
    for s in (1, 2, 3):
        rng = random.Random(77 + s)
        modes = ["multiple"] if s == 1 else ["multiple", "independent"]
        for mode in modes:
            for _ in range(25):
                ab = random_alpha_beta(2, s, rng, beta_mode=mode)
                h0, h1 = homology_dims(ab)
                assert h0 - h1 == closed_form(ab).difference


def test_homology_accepts_prebuilt_complex():
    rng = random.Random(5)
    ab = random_alpha_beta(5, 1, rng)
    assert homology_dims(build_complex(ab)) == homology_dims(ab)


def test_random_alpha_beta_modes():
    rng = random.Random(13)
    ab = random_alpha_beta(3, 2, rng, beta_mode="multiple")
    assert ab.beta_multiple_of_alpha()
    ab = random_alpha_beta(3, 2, rng, beta_mode="independent")
    assert not ab.beta_multiple_of_alpha()
    with pytest.raises(ValidationError):
        random_alpha_beta(3, 1, rng, beta_mode="independent")
    with pytest.raises(ValueError):
        random_alpha_beta(3, 1, rng, beta_mode="sideways")
    with pytest.raises(ValidationError):
        random_alpha_beta(5, 2, rng, field=make_field(5, 1))


def test_beta_value_does_not_move_dims_for_odd_p():
    # for p > 2 the classification depends on alpha only
    f = make_field(5, 2)
    alpha = (f.one, f.gen())
    rng = random.Random(3)
    dims = {
        homology_dims(AlphaBeta(f, 2, alpha, (f.sample(rng), f.sample(rng))))
        for _ in range(10)
    }
    assert dims == {(1, 2)}
