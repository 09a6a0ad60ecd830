import hashlib
from collections import Counter
from itertools import product
from math import inf, isqrt
from operator import le

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinchains import verify
from spinchains.cli import VERIFY_CAP
from spinchains.chains import ChainSet, canonical_order, involves_all_simple_reflections, is_interlaced, lambda_doubled
from spinchains.lr import multiplicity_in_induced
from spinchains.scattered import _BASE, _branch, _interlaced_pairs, _levels, _pair_decompositions, _prefix_walk, generate
from spinchains.spin import lowest_k_type, spin_lowest_k_type
from spinchains.verify import _strictly_decreasing, run_verification, spin_minimal_candidates, spin_norm_shell
from spinchains.weights import norm_sq, rho_doubled, spin_norm_sq

from conftest import NAMES, SPEC_NAMES

ORDER = "tau_does_not_depend_on_the_order_the_linked_pairs_are_resolved_in"


def _bump_tau(p):
    return p._replace(tau=(p.tau[0] + 4 * len(p.tau),) + p.tau[1:])


def _bump_row(p):
    # a new list: the walk's lists are shared with later parameters
    return p._replace(vals=[p.vals[0] + 1, *p.vals[1:]])


# per-parameter check, by name -> a doctored copy of a multi-chain rank-4
# parameter that it must reject; doctored chains go through verify._param,
# which builds lambda from them
DOCTORED = {
    "involutions_use_all_simple_reflections": lambda p: verify._param(((7, 2), (3, 2)), p.vals),  # {7,5} {3,1}
    ORDER: _bump_row,
    "spin_identity_tau_rho_2lambda_rho": _bump_tau,
    "tau_differs_from_lowest_K_type_on_multi_chain_parameters": lambda p: p._replace(tau=p.lowest),
    "spin_norm_of_tau_equals_2lambda": _bump_tau,
    "rules_preserve_the_coordinate_sum": _bump_tau,
    "tau_is_u_small": _bump_tau,
    "lambda_fundamental_coefficients_are_1_2_or_1": lambda p: verify._param(((9, 2), (3, 2)), p.vals),  # {9,7} {3,1}
    "tau_has_multiplicity_one": _bump_tau,
    "tau_is_the_unique_spin_minimal_K_type": _bump_tau,
    # not scattered, so _branch raises; the line fails on it all the same
    "reduce_expand_round_trip": lambda p: verify._param(((7, 2), (3, 2)), p.vals),  # {7,5} {3,1}
}

# sha256 of the stdout of `spinchains verify -n 12`, at VERIFY_CAP = 12
VERIFY_12_SHA256 = "94388ba69f4598a9ff235ba83c7bd1bb13f4911fd09ba8d2bf7a6d4f0f27b6f7"


def params_by_chain_sets(n_max: int) -> dict:
    """The parameters as verify built them before the prefix walk, kept as
    its oracle: (ChainSet, spin_lowest_k_type run, lowest_k_type) of each
    parameter of rank 2..n_max, keyed by rank in generate's order."""
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


# (floor, ceiling) bounds for the shell, cut to length n: none, then floors
# that cut, negative ones and ones that rise among them, then ceilings that
# cut, and both at once
NO_FLOOR, NO_CEILING = (-inf,) * 4, (inf,) * 4
FLOORS = [(1, 0, -1, -2), (0, 0, -inf, -inf), (-1, -1, -1, -1), (2, -inf, 0, -inf), (-inf, -inf, -inf, 0)]
CEILINGS = [(inf, inf, 0, -1), (1, 1, 1, 1), (2, inf, 0, inf), (inf, inf, inf, -2), (0, -1, -1, -1)]
BOUNDS = [
    (NO_FLOOR, NO_CEILING),
    *((floor, NO_CEILING) for floor in FLOORS),
    *((NO_FLOOR, ceiling) for ceiling in CEILINGS),
    ((-1, -1, -1, -2), (2, 1, 1, 0)),
]


def test_shell_equals_ball_on_small_ranges():
    # beyond the bounds of any parameter, and norms that no even vector has;
    # with bounds, the shell is the ball's points between them
    kept, cut = Counter(), Counter()
    for n, coord_sum, norm in product(range(1, 5), range(-3, 4), range(81)):
        ball = ball_shell(n, coord_sum, norm)
        for floor, ceiling in BOUNDS:
            shell = list(spin_norm_shell(n, coord_sum, norm, floor[:n], ceiling[:n]))
            assert len(shell) == len(set(shell))
            expected = {v for v in ball if all(map(le, floor, v)) and all(map(le, v, ceiling))}
            assert set(shell) == expected, (n, coord_sum, norm, floor[:n], ceiling[:n])
            kept[floor, ceiling] += len(expected)
            cut[floor, ceiling] += len(ball) - len(expected)
    # every pair of bounds keeps points, and every one but the first cuts some
    assert all(kept[bounds] for bounds in BOUNDS)
    assert [bool(cut[bounds]) for bounds in BOUNDS] == [False] + [True] * (len(BOUNDS) - 1)


def test_shell_lifts_and_hits_equal_the_ball():
    # every chain decomposition to rank 5, interlaced or not (the scattered
    # parameters among them), and every scattered parameter of rank 6
    for cs in [*(ChainSet(pairs) for n in range(2, 6) for pairs in _pair_decompositions(n)), *generate(6)]:
        coord_sum, norm = sum(lambda_doubled(cs)), norm_sq(spin_lowest_k_type(cs).lambda2)
        points = ball_shell(cs.n, coord_sum, norm)
        lifts = list(spin_norm_shell(cs.n, coord_sum, norm, [-inf] * cs.n, [inf] * cs.n))
        assert len(lifts) == len(set(lifts)) and set(lifts) == set(points), cs.to_lists()
        # the hits as spin_minimal_candidates found them in the ball
        hits = [dv for dv in (tuple(2 * x for x in v) for v in points) if multiplicity_in_induced(cs, dv) > 0]
        assert spin_minimal_candidates(cs) == hits, cs.to_lists()


def spin_minimal_candidates_unfiltered(cs) -> list:
    """spin_minimal_candidates without its containment floor and ceiling,
    kept as its oracle: every lift of the shell is asked for its
    multiplicity."""
    ordered = canonical_order(cs)
    lam = lambda_doubled(ordered)
    lifts = (tuple(2 * x for x in v) for v in spin_norm_shell(len(lam), sum(lam), 4 * norm_sq(lam), [-inf] * len(lam), [inf] * len(lam)))
    return sorted((dv for dv in lifts if multiplicity_in_induced(ordered, dv) > 0), reverse=True)


def test_prefilter_keeps_every_hit():
    # every chain decomposition to rank 5, interlaced or not, also moved
    # down by 6 so that the floor and the ceiling go negative, and every scattered
    # parameter to rank 7
    decompositions = [pairs for n in range(2, 6) for pairs in _pair_decompositions(n)]
    lowered = [tuple((top - 6, length) for top, length in pairs) for pairs in decompositions]
    for pairs in [*decompositions, *lowered, *(pairs for n in range(2, 8) for pairs in _interlaced_pairs(n))]:
        assert spin_minimal_candidates(pairs) == spin_minimal_candidates_unfiltered(pairs), pairs


def test_prefilter_asks_for_97_of_the_1623_lifts_to_rank_7(monkeypatch):
    # the floor alone asked 267; the ceiling, its dual half, cuts 170 more
    params = [pairs for n in range(2, 8) for pairs in _interlaced_pairs(n)]
    lifts = 0
    for pairs in params:
        lam = lambda_doubled(pairs)
        lifts += sum(1 for _ in spin_norm_shell(len(lam), sum(lam), 4 * norm_sq(lam), [-inf] * len(lam), [inf] * len(lam)))
    asked = []
    monkeypatch.setattr(verify, "multiplicity_in_induced", lambda cs, dv: asked.append(dv) or multiplicity_in_induced(cs, dv))
    for pairs in params:
        spin_minimal_candidates(pairs)
    assert (lifts, len(asked)) == (1623, 97)


def sweep_line(name, n_max):
    """The one (label, ok, detail) line that the spec `name` of verify.SPECS
    gives at n_max."""
    return list(verify.check_params(n_max))[SPEC_NAMES.index(name)]


def test_tree_is_generate_at_every_rank():
    tree = list(verify._tree(VERIFY_CAP))
    assert [n for n, _ in tree] == list(range(2, VERIFY_CAP + 1))
    for n, level in tree:
        assert sorted(level) == [cs.chains for cs in generate(n)], n


def test_params_equal_the_chain_set_build():
    # chains, tau, lowest K-type and lambda of every parameter the sweep
    # builds from the search, against a ChainSet and a spin_lowest_k_type
    # run for each parameter of the sorted tree level
    expected = params_by_chain_sets(VERIFY_CAP)
    for n in range(2, VERIFY_CAP + 1):
        found = [verify._param(leaf, vals) for leaf, _, vals in _prefix_walk(_interlaced_pairs(n))]
        assert [(p.chains, p.tau, p.lowest, p.lambda2) for p in found] == [
            (cs.chains, res.tau, lowest, res.lambda2) for cs, res, lowest in expected[n]
        ], n


def test_verify_output_is_pinned(check_lines):
    # the session's lines of every check, printed as `spinchains verify -n
    # VERIFY_CAP` prints them; re-pin when VERIFY_CAP or a line changes
    lines = [
        f"{label}: {'PASS' if ok else 'FAIL'}{f' ({detail})' if detail else ''}"
        for name in NAMES
        for label, ok, detail in check_lines(name)
    ]
    passed = all(line.split(": ", 1)[1].startswith("PASS") for line in lines)
    text = "".join(f"{line}\n" for line in [*lines, f"RESULT: {'PASS' if passed else 'FAIL'}"])
    assert VERIFY_CAP == 12 and hashlib.sha256(text.encode()).hexdigest() == VERIFY_12_SHA256


def test_oracle_and_spherical_lines_count_their_items(check_lines):
    oracle = [(label, detail) for label, _, detail in check_lines("check_oracle")]
    assert oracle == [(f"definition search equals branching tree, n={n}", f"{2 ** (n - 2)} parameters") for n in range(2, VERIFY_CAP + 1)]
    [(label, _, detail)] = check_lines("check_spherical")
    top = int(label.rsplit("a+b<=", 1)[1])
    assert top == VERIFY_CAP
    # a > b > 0 with a + b odd and at most top
    assert detail == f"{sum(total // 2 for total in range(3, top + 1, 2))} pairs"


def test_oracle_fails_on_a_rank_out_of_order(monkeypatch):
    # the oracle compares lists, so the right sets in the wrong order fail
    real = verify._interlaced_pairs
    monkeypatch.setattr(verify, "_interlaced_pairs", lambda n: list(real(n))[::-1] if n == 5 else real(n))
    assert [ok for _, ok, _ in verify.check_oracle(5)] == [True, True, True, False]


def _drop_last(found):
    return 5, found[5].pop()


def _insert_stranger(found):
    found[4].insert(0, ((7, 2), (3, 2)))  # {7,5} {3,1}: not interlaced
    return 4, found[4][0]


@pytest.mark.parametrize("edit", [_drop_last, _insert_stranger])
def test_oracle_line_names_a_parameter_missing_from_or_foreign_to_the_tree(edit, monkeypatch):
    found = {n: list(_interlaced_pairs(n)) for n in range(2, 6)}
    rank, named = edit(found)
    monkeypatch.setattr(verify, "_interlaced_pairs", found.__getitem__)
    lines = list(verify.check_oracle(5))
    assert [ok for _, ok, _ in lines] == [n != rank for n in range(2, 6)]
    assert lines[rank - 2] == (f"definition search equals branching tree, n={rank}", False, ChainSet(named).to_json())


def test_run_verification_rejects_tiny_rank():
    with pytest.raises(ValueError):
        next(run_verification(1))


@pytest.mark.parametrize("name", DOCTORED)
def test_sweep_fails_on_a_doctored_parameter(name, monkeypatch):
    target = next(cs.chains for cs in generate(4) if len(cs.chains) > 1)
    real, doctored = verify._param, []

    def build(leaf, vals):
        p = real(leaf, vals)
        if leaf == target:
            doctored.append(p := DOCTORED[name](p))
        return p

    monkeypatch.setattr(verify, "_param", build)
    label, ok, detail = sweep_line(name, 4)
    assert label.endswith(", n<=4") and not ok
    assert detail == ChainSet(doctored[0].chains).to_json()


def test_every_per_parameter_check_has_a_doctored_parameter():
    assert set(SPEC_NAMES) == set(DOCTORED)


def test_round_trip_line_names_the_node_whose_child_unbranches_wrong(monkeypatch):
    # one child of one rank-5 node sent to the root instead of its parent
    target = generate(5)[3].chains
    child = _branch(target)[1]
    real = verify._unbranch
    monkeypatch.setattr(verify, "_unbranch", lambda pairs: _BASE if pairs == child else real(pairs))
    assert sweep_line("reduce_expand_round_trip", 5) == ("reduce/expand round trip, n<=5", False, ChainSet(target).to_json())


@pytest.mark.parametrize("name", ["spin_identity_tau_rho_2lambda_rho", "spin_norm_of_tau_equals_2lambda"])
def test_sweeps_take_lambda_from_the_chains(name, monkeypatch):
    # {5,3,1} {4} with its own rows, so its own tau, but the chains of {7,5,3,1}
    real = verify._param
    monkeypatch.setattr(verify, "_param", lambda leaf, vals: real(((7, 4),) if leaf == ((5, 3), (4, 1)) else leaf, vals))
    assert sweep_line(name, 4)[1:] == (False, '{"chains": [[7, 5, 3, 1]]}')


def test_order_line_names_the_parameter_whose_canonical_rows_differ(monkeypatch):
    # the canonical-order rules, made to change one row of one rank-5
    # parameter: the walk's rows no longer match there, and only there
    target = [cs.chains for cs in generate(5) if len(cs.chains) > 1][2]
    real = verify._rules

    def perturbed(pairs):
        ordered, rows, trace = real(pairs)
        if pairs == target:
            rows[-1] = [rows[-1][0] + 1, *rows[-1][1:]]
        return ordered, rows, trace

    monkeypatch.setattr(verify, "_rules", perturbed)
    label = "tau does not depend on the order the linked pairs are resolved in, n<=5"
    assert sweep_line(ORDER, 5) == (label, False, ChainSet(target).to_json())


def test_multiplicity_and_uniqueness_lines_build_no_chain_set(chain_sets_built):
    lines = [sweep_line(name, 7) for name in ("tau_has_multiplicity_one", "tau_is_the_unique_spin_minimal_K_type")]
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


class _ParamBuilt(Exception):
    pass


def test_count_oracle_and_equivalence_lines_come_before_any_param(monkeypatch):
    # the benchmark's verify query_p50_ms is the arrival of line 19, an
    # oracle line, so no Param may be built before the oracle lines
    def build(leaf, vals):
        raise _ParamBuilt

    monkeypatch.setattr(verify, "_param", build)
    labels = []
    with pytest.raises(_ParamBuilt):
        for line, _ in run_verification(12):
            labels.append(line.split(": ", 1)[0])
    assert labels == [
        *(f"count n={n}" for n in range(2, 13)),
        *(f"definition search equals branching tree, n={n}" for n in range(2, 13)),
        "interlaced <=> involution uses all reflections, n<=7",
    ]


def test_verify_walks_each_rank_once(monkeypatch):
    # one walk of each whole rank 2..12, whatever the specs' caps; each
    # rank's Params are freed before the next rank is walked, so every walk
    # starts with none alive and the pass peaks at one rank's Params
    live, walked = [0], []

    class Counted(verify.Param):
        def __new__(cls, *fields):
            live[0] += 1
            return super().__new__(cls, *fields)

        def __del__(self):
            live[0] -= 1

    real = verify._prefix_walk

    def walk(leaves):
        leaves = list(leaves)
        walked.append((len(leaves), live[0]))
        return real(leaves)

    monkeypatch.setattr(verify, "Param", Counted)
    monkeypatch.setattr(verify, "_prefix_walk", walk)
    assert all(ok for _, ok in run_verification(12))
    assert walked == [(2 ** (n - 2), 0) for n in range(2, 13)]


def test_count_and_oracle_grow_the_tree_and_the_round_trip_branches_each_parameter(monkeypatch):
    # count and oracle branch ranks 2..11 (1,023 nodes each) to grow the
    # tree; the round-trip row branches each parameter of ranks 2..12
    # (2,047) once, and no other line branches
    calls = []
    monkeypatch.setattr(verify, "_branch", lambda pairs: calls.append(pairs) or _branch(pairs))
    assert all(ok for _, ok in run_verification(12))
    assert len(calls) == 1023 + 1023 + 2047


def test_each_spec_runs_on_the_parameters_up_to_its_cap(monkeypatch):
    calls = {label: 0 for label, _, _ in verify.SPECS}

    def counted(label, predicate):
        def run(p):
            calls[label] += 1
            return predicate(p)

        return run

    monkeypatch.setattr(verify, "SPECS", tuple((label, counted(label, predicate), cap) for label, predicate, cap in verify.SPECS))
    assert all(ok for _, ok in run_verification(12))
    # ranks <= 9, ranks <= 7, and every rank <= 12 for the uncapped nine
    assert list(calls.values()) == [2047] * 8 + [255, 63, 2047]
    labels = [label for label, _, _ in verify.check_params(8)]
    assert labels[-3:] == ["tau has multiplicity one, n<=8", "tau is the unique spin-minimal K-type, n<=7", "reduce/expand round trip, n<=8"]
