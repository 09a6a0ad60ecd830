import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinchains.weights import (
    dominant,
    from_fundamental,
    fundamental_pairing_signs,
    norm_sq,
    rho_doubled,
    spin_norm_sq,
    to_fundamental,
)

vectors = st.lists(st.integers(-30, 30), min_size=1, max_size=10).map(tuple)


def norm_sq_by_generator(v) -> int:
    """norm_sq before its map form, kept as its oracle."""
    return sum(x * x for x in v)


def spin_norm_sq_by_generator(delta) -> int:
    """spin_norm_sq before its map form, kept as its oracle."""
    rho = rho_doubled(len(delta))
    shifted = dominant(x - r for x, r in zip(delta, rho))
    return norm_sq_by_generator(s + r for s, r in zip(shifted, rho))


def test_rho_doubled_small_ranks():
    assert rho_doubled(1) == (0,)
    assert rho_doubled(2) == (1, -1)
    assert rho_doubled(9) == (8, 6, 4, 2, 0, -2, -4, -6, -8)


def test_rho_doubled_rejects_nonpositive_rank():
    with pytest.raises(ValueError):
        rho_doubled(0)


def test_dominant_sorts_descending():
    assert dominant((3, 5)) == (5, 3)
    assert dominant((6, 6, 6, 6, 6, 6, 6, 6, 5)) == (6, 6, 6, 6, 6, 6, 6, 6, 5)
    assert dominant((5, 2, 10, 9, 8, 7, 5, 4, 3)) == (10, 9, 8, 7, 5, 5, 4, 3, 2)


def test_norm_sq_values():
    assert norm_sq((1, -1)) == 2
    assert norm_sq((0,) * 6) == 0
    assert norm_sq((3, 1)) == 10


def test_spin_norm_fixed_point_at_twice_rho():
    # delta = 2*rho is a fixed point of delta -> {delta - rho} + rho
    assert spin_norm_sq((2, -2)) == 8


def test_spin_norm_of_worked_tau():
    # both sides evaluated directly: {tau - rho} + rho rearranges tau into
    # the doubled lambda vector, so the two squared norms agree at 1524
    tau = tuple(2 * x for x in (10, 9, 8, 7, 5, 5, 4, 3, 2))
    lam2 = tuple(2 * x for x in (10, 9, 8, 7, 6, 5, 4, 3, 1))
    assert spin_norm_sq(tau) == norm_sq(lam2) == 1524


def test_spin_norm_of_zero_vector_rank_two():
    # {0 - rho} + rho = 2*rho, of squared length 8
    assert spin_norm_sq((0, 0)) == 8


def test_pairing_signs_zero_vector():
    assert fundamental_pairing_signs((0,) * 5) == (0, 0, 0, 0)


def test_pairing_signs_simple_root():
    # alpha_1 = e_1 - e_2 pairs positively with omega_1, trivially with omega_2
    assert fundamental_pairing_signs((2, -2, 0)) == (6, 0)


def test_pairing_signs_worked_u_small_instance():
    tau = (10, 9, 8, 7, 5, 5, 4, 3, 2)
    rho = (8, 6, 4, 2, 0, -2, -4, -6, -8)
    v = tuple(2 * t - 2 * r for t, r in zip(tau, rho))
    signs = fundamental_pairing_signs(v)
    assert signs == (-70, -122, -156, -172, -188, -168, -130, -74)
    assert all(x <= 0 for x in signs)


def test_to_fundamental_worked_values():
    assert to_fundamental((10, 9, 8, 7, 6, 5, 4, 3, 1)) == (1, 1, 1, 1, 1, 1, 1, 2)
    assert to_fundamental((20, 18, 16, 14, 10, 10, 8, 6, 4)) == (2, 2, 2, 4, 0, 2, 2, 2)
    assert to_fundamental((7, 7, 7)) == (0, 0)


def test_to_fundamental_rejects_non_dominant():
    with pytest.raises(ValueError):
        to_fundamental((1, 2))


@given(vectors)
def test_dominant_idempotent(v):
    assert dominant(dominant(v)) == dominant(v)


@given(vectors, st.randoms())
def test_dominant_and_norm_permutation_invariant(v, rng):
    shuffled = list(v)
    rng.shuffle(shuffled)
    assert dominant(shuffled) == dominant(v)
    assert norm_sq(shuffled) == norm_sq(v)


@given(vectors, st.integers(-20, 20))
def test_pairing_signs_trace_shift_invariant(v, c):
    shifted = tuple(x + c for x in v)
    assert fundamental_pairing_signs(shifted) == fundamental_pairing_signs(v)


@given(vectors)
def test_spin_norm_dominates_distance_to_rho(v):
    rho = rho_doubled(len(v))
    assert spin_norm_sq(v) >= norm_sq(x - r for x, r in zip(v, rho))


@given(vectors)
def test_fundamental_round_trip(v):
    w = dominant(v)
    assert from_fundamental(to_fundamental(w), last=w[-1]) == w


@given(vectors)
def test_norm_sq_equals_its_generator_form(v):
    # a tuple, a list and a one-pass iterator, as callers hand it any iterable
    assert norm_sq(v) == norm_sq(list(v)) == norm_sq(x for x in v) == norm_sq_by_generator(v)


@given(vectors)
def test_spin_norm_sq_equals_its_generator_form(v):
    # any integer vector, dominant or not
    assert spin_norm_sq(v) == spin_norm_sq_by_generator(v)
