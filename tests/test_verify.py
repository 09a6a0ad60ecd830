import hashlib
from itertools import product
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinchains import cli, verify
from spinchains.cli import VERIFY_CAP
from spinchains.chains import ChainSet, canonical_order, involves_all_simple_reflections, is_interlaced, lambda_doubled
from spinchains.lr import multiplicity_in_induced
from spinchains.scattered import _BASE, _branch, _levels, _pair_decompositions, generate
from spinchains.spin import lowest_k_type, spin_lowest_k_type
from spinchains.verify import _strictly_decreasing, run_verification, spin_minimal_candidates, spin_norm_shell
from spinchains.weights import norm_sq, rho_doubled, spin_norm_sq


ORDER = "tau_does_not_depend_on_the_order_the_linked_pairs_are_resolved_in"


def _bump_tau(p):
    return p._replace(tau=(p.tau[0] + 4 * len(p.tau),) + p.tau[1:])


def _bump_row(p):
    # a new list: the walk's lists are shared with later parameters
    return p._replace(vals=[p.vals[0] + 1, *p.vals[1:]])


# per-parameter check, by name -> a doctored copy of a multi-chain rank-4 parameter that it must reject
DOCTORED = {
    "involutions_use_all_simple_reflections": lambda p: p._replace(chains=((7, 2), (3, 2))),  # {7,5} {3,1}
    ORDER: _bump_row,
    "spin_identity_tau_rho_2lambda_rho": _bump_tau,
    "tau_differs_from_lowest_K_type_on_multi_chain_parameters": lambda p: p._replace(tau=p.lowest),
    "spin_norm_of_tau_equals_2lambda": _bump_tau,
    "rules_preserve_the_coordinate_sum": _bump_tau,
    "tau_is_u_small": _bump_tau,
    "lambda_fundamental_coefficients_are_1_2_or_1": lambda p: p._replace(chains=((9, 2), (3, 2))),  # {9,7} {3,1}
    "tau_has_multiplicity_one": _bump_tau,
    "tau_is_the_unique_spin_minimal_K_type": _bump_tau,
}

# sha256 of the stdout of `spinchains verify -n 12`, at VERIFY_CAP = 12
VERIFY_12_SHA256 = "60ce884126d53e662db8a60c6b662402d11c6e6b9af07bb5a0017d075f072d40"


def build_ranks_by_chain_sets(n_max: int) -> dict:
    """build_ranks as it was before the prefix walk, kept as its oracle:
    (ChainSet, spin_lowest_k_type run, lowest_k_type) of each parameter of
    rank 2..n_max, keyed by rank in generate's order."""
    levels = zip(range(2, n_max + 1), _levels(_BASE, _branch))
    return {n: [(cs, spin_lowest_k_type(cs), lowest_k_type(cs)) for cs in map(ChainSet, sorted(level))] for n, level in levels}


def dominant_ball(n: int, coord_sum: int, norm_bound: int):
    """Weakly decreasing integer vectors v of length n with sum(v) = coord_sum
    and norm_sq(2v - rho_doubled(n)) <= norm_bound.

    The search the uniqueness check used before the spin-norm shell, kept as
    its oracle: the ball holds the shell, since |{x}|^2 <= |{x} + rho|^2
    whenever <{x}, rho> >= 0, which holds for every dominant {x}.
    """
    rho = rho_doubled(n)
    vec = [0] * n

    def rec(i: int, prev: int, rem: int, used: int):
        if i == n:
            if rem == 0:
                yield tuple(vec)
            return
        left = norm_bound - used
        if left < 0:
            return
        r = isqrt(left)
        hi = min(prev, (rho[i] + r) // 2)
        lo = max(-((r - rho[i]) // 2), -(-rem // (n - i)))
        for v in range(hi, lo - 1, -1):
            vec[i] = v
            yield from rec(i + 1, v, rem - v, used + (2 * v - rho[i]) ** 2)

    big = coord_sum + norm_bound + 1
    yield from rec(0, big, coord_sum, 0)


def ball_shell(n: int, coord_sum: int, norm: int) -> list:
    """The ball's points with spin norm exactly norm, in the ball's (descending) order."""
    return [v for v in dominant_ball(n, coord_sum, norm) if spin_norm_sq(tuple(2 * x for x in v)) == norm]


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


BOX = 5  # coordinates in -BOX..BOX: every vector of squared norm <= BOX^2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_strictly_decreasing_matches_box_search(n):
    expected = {}
    for v in product(range(-BOX, BOX + 1), repeat=n):
        if all(a > b for a, b in zip(v, v[1:])):
            expected.setdefault((sum(v), norm_sq(v)), set()).add(v)
    for coord_sum, norm in product(range(-2 * BOX, 2 * BOX + 1), range(BOX * BOX + 1)):
        found = list(_strictly_decreasing(n, coord_sum, norm))
        assert len(found) == len(set(found))
        assert set(found) == expected.get((coord_sum, norm), set()), (coord_sum, norm)


@given(st.lists(st.integers(-BOX, BOX), min_size=1, max_size=4, unique=True))
def test_strictly_decreasing_finds_every_vector_and_nothing_else(coords):
    v = tuple(sorted(coords, reverse=True))
    found = list(_strictly_decreasing(len(v), sum(v), norm_sq(v)))
    assert v in found
    for w in found:
        assert all(a > b for a, b in zip(w, w[1:])) and sum(w) == sum(v) and norm_sq(w) == norm_sq(v)


def test_shell_equals_ball_on_small_ranges():
    # beyond the bounds of any parameter, and norms that no even vector has
    for n, coord_sum, norm in product(range(1, 5), range(-3, 4), range(81)):
        shell = list(spin_norm_shell(n, coord_sum, norm))
        assert len(shell) == len(set(shell))
        assert set(shell) == set(ball_shell(n, coord_sum, norm)), (n, coord_sum, norm)


def test_shell_lifts_and_hits_equal_the_ball():
    # every chain decomposition to rank 5, interlaced or not (the scattered
    # parameters among them), and every scattered parameter of rank 6
    for cs in [*(ChainSet(pairs) for n in range(2, 6) for pairs in _pair_decompositions(n)), *generate(6)]:
        coord_sum, norm = sum(lambda_doubled(cs)), norm_sq(spin_lowest_k_type(cs).lambda2)
        points = ball_shell(cs.n, coord_sum, norm)
        lifts = list(spin_norm_shell(cs.n, coord_sum, norm))
        assert len(lifts) == len(set(lifts)) and set(lifts) == set(points), cs.to_lists()
        # the hits as spin_minimal_candidates found them in the ball
        hits = [dv for dv in (tuple(2 * x for x in v) for v in points) if multiplicity_in_induced(cs, dv) > 0]
        assert spin_minimal_candidates(cs) == hits, cs.to_lists()


def spin_minimal_candidates_unfiltered(cs) -> list:
    """spin_minimal_candidates before its prefilter, kept as its oracle:
    every lift of the shell is asked for its multiplicity."""
    ordered = canonical_order(cs)
    lam = lambda_doubled(ordered)
    lifts = (tuple(2 * x for x in v) for v in spin_norm_shell(len(lam), sum(lam), 4 * norm_sq(lam)))
    return sorted((dv for dv in lifts if multiplicity_in_induced(ordered, dv) > 0), reverse=True)


def test_prefilter_keeps_every_hit(ranks):
    # every chain decomposition to rank 5, interlaced or not, also moved
    # down by 6 so that multiplicity_in_induced must shift, and every
    # scattered parameter to rank 7
    decompositions = [pairs for n in range(2, 6) for pairs in _pair_decompositions(n)]
    lowered = [tuple((top - 6, length) for top, length in pairs) for pairs in decompositions]
    for pairs in [*decompositions, *lowered, *(p.chains for n in range(2, 8) for p in ranks[n])]:
        assert spin_minimal_candidates(pairs) == spin_minimal_candidates_unfiltered(pairs), pairs


def test_prefilter_asks_for_266_of_the_1623_lifts_to_rank_7(ranks, monkeypatch):
    params = [p.chains for n in range(2, 8) for p in ranks[n]]
    lifts = 0
    for pairs in params:
        lam = lambda_doubled(pairs)
        lifts += sum(1 for _ in spin_norm_shell(len(lam), sum(lam), 4 * norm_sq(lam)))
    asked = []
    monkeypatch.setattr(verify, "multiplicity_in_induced", lambda cs, dv: asked.append(dv) or multiplicity_in_induced(cs, dv))
    for pairs in params:
        spin_minimal_candidates(pairs)
    assert (lifts, len(asked)) == (1623, 266)


def test_build_ranks_is_generate_at_every_rank(ranks):
    assert list(ranks) == list(range(2, VERIFY_CAP + 1))
    for n, params in ranks.items():
        assert [p.chains for p in params] == [cs.chains for cs in generate(n)], n


def test_build_ranks_equals_the_chain_set_build(ranks):
    # chains, tau and lowest K-type of every parameter the walk's table
    # holds, against a ChainSet and a spin_lowest_k_type run for each
    expected = build_ranks_by_chain_sets(VERIFY_CAP)
    assert list(ranks) == list(expected)
    for n, params in ranks.items():
        found = [(p.chains, p.tau, p.lowest) for p in params]
        assert found == [(cs.chains, res.tau, lowest) for cs, res, lowest in expected[n]], n


def test_verify_output_is_pinned(check_lines):
    # the session's lines of every check, printed as `spinchains verify -n
    # VERIFY_CAP` prints them; re-pin when VERIFY_CAP or a line changes
    lines = [
        f"{label}: {'PASS' if ok else 'FAIL'}{f' ({detail})' if detail else ''}"
        for check in verify.CHECKS
        for label, ok, detail in check_lines(check.__name__)
    ]
    passed = all(line.split(": ", 1)[1].startswith("PASS") for line in lines)
    text = "".join(f"{line}\n" for line in [*lines, f"RESULT: {'PASS' if passed else 'FAIL'}"])
    assert VERIFY_CAP == 12 and hashlib.sha256(text.encode()).hexdigest() == VERIFY_12_SHA256


def test_oracle_and_spherical_lines_count_their_items(check_lines):
    oracle = [(label, detail) for label, _, detail in check_lines("check_oracle")]
    assert oracle == [(f"definition search equals branching tree, n={n}", f"{2 ** (n - 2)} parameters") for n in range(2, VERIFY_CAP + 1)]
    [(label, _, detail)] = check_lines("check_spherical")
    top = int(label.rsplit("a+b<=", 1)[1])
    # a > b > 0 with a + b odd and at most top
    assert detail == f"{sum(total // 2 for total in range(3, top + 1, 2))} pairs"


def test_oracle_fails_on_a_rank_out_of_order():
    # the oracle compares lists, so the right sets in the wrong order fail
    ranks = verify.build_ranks(5)
    ranks[5].reverse()
    assert [ok for _, ok, _ in verify.check_oracle(ranks, 5)] == [True, True, True, False]


def test_run_verification_rejects_tiny_rank():
    with pytest.raises(ValueError):
        next(run_verification(1))


@pytest.mark.parametrize("name", DOCTORED)
def test_sweep_fails_on_a_doctored_parameter(name, monkeypatch):
    ranks = verify.build_ranks(4)
    bad = DOCTORED[name](next(p for p in ranks[4] if len(p.chains) > 1))
    ranks[4].insert(0, bad)
    monkeypatch.setattr(verify, "build_ranks", lambda n_max: ranks)
    monkeypatch.setattr(verify, "CHECKS", [c for c in verify.CHECKS if c.__name__ == name])
    [(line, ok)] = run_verification(4)
    assert not ok
    assert line.endswith(f", n<=4: FAIL ({ChainSet(bad.chains).to_json()})")


def test_every_per_parameter_check_has_a_doctored_parameter():
    swept = {c.__name__ for c in verify.CHECKS if c.__qualname__.startswith("_sweep.")}
    assert swept == set(DOCTORED)


def test_round_trip_line_names_the_node_whose_child_unbranches_wrong(monkeypatch):
    # one child of one rank-5 node sent to the root instead of its parent
    target = verify.build_ranks(5)[5][3]
    child = _branch(target.chains)[1]
    real = verify._unbranch
    monkeypatch.setattr(verify, "_unbranch", lambda pairs: _BASE if pairs == child else real(pairs))
    monkeypatch.setattr(verify, "CHECKS", [verify.reduce_expand_round_trip])
    [(line, ok)] = run_verification(5)
    assert not ok
    assert line == f"reduce/expand round trip, n<=5: FAIL ({ChainSet(target.chains).to_json()})"


def _drop_last(ranks):
    return ranks[5].pop().chains


def _insert_stranger(ranks):
    ranks[4].insert(0, DOCTORED["involutions_use_all_simple_reflections"](ranks[4][1]))
    return ranks[4][0].chains


@pytest.mark.parametrize("edit", [_drop_last, _insert_stranger])
def test_round_trip_line_names_a_parameter_missing_from_or_foreign_to_the_tree(edit, monkeypatch):
    ranks = verify.build_ranks(5)
    named = edit(ranks)
    monkeypatch.setattr(verify, "build_ranks", lambda n_max: ranks)
    monkeypatch.setattr(verify, "CHECKS", [verify.reduce_expand_round_trip])
    [(line, ok)] = run_verification(5)
    assert not ok
    assert line == f"reduce/expand round trip, n<=5: FAIL ({ChainSet(named).to_json()})"


@pytest.mark.parametrize("name", ["spin_identity_tau_rho_2lambda_rho", "spin_norm_of_tau_equals_2lambda"])
def test_sweeps_take_lambda_from_the_chains(name, monkeypatch):
    # {5,3,1} {4} with its own tau, but the chains of {7,5,3,1}
    ranks = verify.build_ranks(4)
    real = next(p for p in ranks[4] if p.chains == ((5, 3), (4, 1)))
    ranks[4].insert(0, real._replace(chains=((7, 4),)))
    monkeypatch.setattr(verify, "build_ranks", lambda n_max: ranks)
    monkeypatch.setattr(verify, "CHECKS", [c for c in verify.CHECKS if c.__name__ == name])
    [(line, ok)] = run_verification(4)
    assert not ok
    assert line.endswith(', n<=4: FAIL ({"chains": [[7, 5, 3, 1]]})')


def test_lambda_memo_holds_every_parameter_to_verify_cap(ranks):
    # cli reads the cap from verify, and the memo is sized from it: the three
    # lambda lines at the cap miss once per parameter and hit twice
    assert cli.VERIFY_CAP is verify.VERIFY_CAP
    assert verify._lambda2.cache_info().maxsize == 2 ** (VERIFY_CAP - 1)
    names = ("spin_identity_tau_rho_2lambda_rho", "spin_norm_of_tau_equals_2lambda", "lambda_fundamental_coefficients_are_1_2_or_1")
    params = sum(map(len, ranks.values()))
    verify._lambda2.cache_clear()
    lines = [line for check in verify.CHECKS if check.__name__ in names for line in check(ranks, VERIFY_CAP)]
    assert len(lines) == 3 and all(ok for _, ok, _ in lines), lines
    info = verify._lambda2.cache_info()
    assert (info.misses, info.hits) == (params, 2 * params)


def test_order_line_names_the_parameter_whose_canonical_rows_differ(monkeypatch):
    # the canonical-order rules, made to change one row of one rank-5
    # parameter: the walk's rows no longer match there, and only there
    target = [p for p in verify.build_ranks(5)[5] if len(p.chains) > 1][2]
    real = verify._rules

    def perturbed(pairs):
        ordered, rows, trace = real(pairs)
        if pairs == target.chains:
            rows[-1] = [rows[-1][0] + 1, *rows[-1][1:]]
        return ordered, rows, trace

    monkeypatch.setattr(verify, "_rules", perturbed)
    monkeypatch.setattr(verify, "CHECKS", [c for c in verify.CHECKS if c.__name__ == ORDER])
    [(line, ok)] = run_verification(5)
    assert not ok
    assert line == f"tau does not depend on the order the linked pairs are resolved in, n<=5: FAIL ({ChainSet(target.chains).to_json()})"


def test_multiplicity_and_uniqueness_lines_build_no_chain_set(ranks, chain_sets_built):
    checks = [c for c in verify.CHECKS if c.__name__ in ("tau_has_multiplicity_one", "tau_is_the_unique_spin_minimal_K_type")]
    lines = [line for check in checks for line in check(ranks, 7)]
    assert [(label, ok) for label, ok, _ in lines] == [
        ("tau has multiplicity one, n<=7", True),
        ("tau is the unique spin-minimal K-type, n<=7", True),
    ]
    assert chain_sets_built == []


def test_equivalence_failure_names_the_first_offender(monkeypatch):
    # an involution that is the identity on every multi-chain set breaks the
    # equivalence on the first interlaced one; the offender is found on
    # ChainSets, as the check found it before it ran on pairs
    real = verify.extract_involution

    def fake(pairs):
        return real(pairs) if len(pairs) == 1 else tuple(range(1, 1 + sum(length for _, length in pairs)))

    monkeypatch.setattr(verify, "extract_involution", fake)
    monkeypatch.setattr(verify, "CHECKS", [verify.check_equivalence])
    bad = next(
        cs
        for n in range(2, 8)
        for cs in map(ChainSet, _pair_decompositions(n))
        if is_interlaced(cs) != involves_all_simple_reflections(fake(cs.chains))
    )
    [(line, ok)] = run_verification(7)
    assert not ok
    assert line == f"interlaced <=> involution uses all reflections, n<=7: FAIL ({bad.to_json()})"
    assert bad.to_json() == '{"chains": [[3, 1], [2]]}'
