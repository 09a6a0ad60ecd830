from itertools import product

import pytest

from spinchains.chains import ChainSet
from spinchains.scattered import generate
from spinchains.spin import spin_lowest_k_type
from spinchains.verify import (
    dominant_ball,
    run_verification,
    spin_minimal_candidates,
)
from spinchains.weights import norm_sq, rho_doubled


def test_dominant_ball_matches_box_search():
    n, coord_sum, bound = 3, 4, 60
    rho = rho_doubled(n)
    expected = {
        v
        for v in product(range(-8, 9), repeat=n)
        if sorted(v, reverse=True) == list(v)
        and sum(v) == coord_sum
        and norm_sq(2 * x - r for x, r in zip(v, rho)) <= bound
    }
    assert set(dominant_ball(n, coord_sum, bound)) == expected
    assert expected  # the bound is wide enough for the check to mean something


def test_spin_minimal_candidates_base_parameter():
    cs = ChainSet.from_lists([[3, 1]])
    tau, hits = spin_minimal_candidates(cs)
    assert tau == (4, 4)
    assert hits == [(4, 4)]


def test_spin_minimal_candidates_rank_four():
    for cs in generate(4):
        tau, hits = spin_minimal_candidates(cs)
        assert hits == [tau]


def test_run_verification_small():
    lines, ok = run_verification(3)
    assert ok
    assert any(line.startswith("count n=3: PASS") for line in lines)


def test_run_verification_rejects_tiny_rank():
    with pytest.raises(ValueError):
        run_verification(1)


def test_tau_spin_norm_is_in_ball():
    # the candidate search must always see tau itself
    for cs in generate(5):
        res = spin_lowest_k_type(cs)
        tau_std = tuple(x // 2 for x in res.tau)
        total = sum(tau_std)
        assert tau_std in set(dominant_ball(cs.n, total, norm_sq(res.lambda2)))
