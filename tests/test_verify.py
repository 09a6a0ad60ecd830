import dataclasses
from itertools import product

import pytest

from spinchains import verify
from spinchains.chains import ChainSet
from spinchains.verify import dominant_ball, run_verification
from spinchains.weights import norm_sq, rho_doubled


def _with_tau(p, tau):
    return p._replace(res=dataclasses.replace(p.res, tau=tau))


def _bump_tau(p):
    return _with_tau(p, (p.res.tau[0] + 4 * p.cs.n,) + p.res.tau[1:])


# per-parameter check, by name -> a doctored copy of a multi-chain rank-4 parameter that it must reject
DOCTORED = {
    "involutions_use_all_simple_reflections": lambda p: p._replace(cs=ChainSet.from_lists([[7, 5], [3, 1]])),
    "spin_identity_tau_rho_2lambda_rho": _bump_tau,
    "tau_differs_from_lowest_K_type_on_multi_chain_parameters": lambda p: _with_tau(p, p.lowest),
    "spin_norm_of_tau_equals_2lambda": _bump_tau,
    "rules_preserve_the_coordinate_sum": _bump_tau,
    "tau_is_u_small": _bump_tau,
    "lambda_fundamental_coefficients_are_1_2_or_1": lambda p: p._replace(cs=ChainSet.from_lists([[9, 7], [3, 1]])),
    "tau_has_multiplicity_one": _bump_tau,
    "tau_is_the_unique_spin_minimal_K_type": _bump_tau,
}


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


def test_run_verification_rejects_tiny_rank():
    with pytest.raises(ValueError):
        run_verification(1)


@pytest.mark.parametrize("name", DOCTORED)
def test_sweep_fails_on_a_doctored_parameter(name, monkeypatch):
    ranks = verify.build_ranks(4)
    bad = DOCTORED[name](next(p for p in ranks[4] if len(p.cs.chains) > 1))
    ranks[4].insert(0, bad)
    monkeypatch.setattr(verify, "build_ranks", lambda n_max: ranks)
    monkeypatch.setattr(verify, "CHECKS", [c for c in verify.CHECKS if c.__name__ == name])
    [line], ok = run_verification(4)
    assert not ok
    assert line.endswith(f", n<=4: FAIL ({bad.cs.to_json()})")
