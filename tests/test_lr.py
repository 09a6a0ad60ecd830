"""Littlewood-Richardson engine against an independent Pieri/Jacobi-Trudi oracle.

The oracle never looks at tableau fillings or lattice words: it expands the
weight partition through the Jacobi-Trudi determinant into complete
homogeneous factors and counts chains of horizontal strips, one Pieri step
per factor, with the determinant providing the signs.
"""

from functools import cache
from itertools import permutations, product
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinchains import lr
from spinchains.chains import Chain, ChainSet, canonical_order, lambda_doubled
from spinchains.lr import (
    _coefficient,
    _count_tableaux,
    _grow_candidates,
    _is_candidate,
    _two_rectangles,
    contains,
    is_lattice_word,
    lr_coefficient,
    multiplicity_in_induced,
    normalize_partition,
    partitions_up_to,
    sub_partitions,
)
from spinchains.scattered import _pair_decompositions, generate
from spinchains.spin import lowest_k_type, spin_lowest_k_type
from spinchains.verify import spin_norm_shell
from spinchains.weights import norm_sq

from test_chains import EX22


def horizontal_strips_above(mu, size):
    """All partitions nu obtained from mu by adding a horizontal strip."""
    out = []
    acc = []

    def rec(i, rem):
        if i == len(mu) + 1:
            if rem == 0:
                out.append(tuple(x for x in acc if x))
            return
        base = mu[i] if i < len(mu) else 0
        cap = min(acc[i - 1] if i else base + rem, mu[i - 1] if i else base + rem)
        for v in range(base, min(cap, base + rem) + 1):
            acc.append(v)
            rec(i + 1, rem - (v - base))
            acc.pop()

    rec(0, size)
    return out


def lr_oracle(outer, inner, weight):
    """Signed count of horizontal-strip chains via the Jacobi-Trudi expansion."""
    outer = normalize_partition(outer)
    inner = normalize_partition(inner)
    weight = normalize_partition(weight)
    k = len(weight)
    if k == 0:
        return 1 if outer == inner else 0
    total = 0
    for sigma in permutations(range(k)):
        sizes = [weight[i] - i + sigma[i] for i in range(k)]
        if any(s < 0 for s in sizes):
            continue
        inversions = sum(
            1 for a in range(k) for b in range(a + 1, k) if sigma[a] > sigma[b]
        )
        states = {inner: 1}
        for r in sizes:
            grown = {}
            for mu, c in states.items():
                for nu in horizontal_strips_above(mu, r):
                    if contains(outer, nu):
                        grown[nu] = grown.get(nu, 0) + c
            states = grown
        total += (-1) ** inversions * states.get(outer, 0)
    return total


def count_tableaux_by_cells(outer, inner, weight):
    """The reference for the memoised _count_tableaux, and its slow
    predecessor: the same fill of outer/inner in reverse reading order with
    the same pruning, counting every LR tableau one at a time, with no memo."""
    cells = []  # (row, col)
    pos_index = {}
    for r, outer_len in enumerate(outer):
        inner_len = inner[r] if r < len(inner) else 0
        for c in range(outer_len - 1, inner_len - 1, -1):
            pos_index[(r, c)] = len(cells)
            cells.append((r, c))
    right = [pos_index.get((r, c + 1)) for r, c in cells]
    above = [pos_index.get((r - 1, c)) for r, c in cells]

    nletters = len(weight)
    remaining = list(weight)
    counts = [0] * (nletters + 1)  # counts[v] = number of v's placed so far
    values = [0] * len(cells)
    total = 0

    def fill(k):
        nonlocal total
        if k == len(cells):
            total += 1
            return
        hi = values[right[k]] if right[k] is not None else nletters
        lo = values[above[k]] + 1 if above[k] is not None else 1
        for v in range(lo, hi + 1):
            if remaining[v - 1] == 0:
                continue
            # lattice prefix: placing v keeps counts[v] <= counts[v-1]
            if v > 1 and counts[v - 1] <= counts[v]:
                continue
            values[k] = v
            counts[v] += 1
            remaining[v - 1] -= 1
            fill(k + 1)
            counts[v] -= 1
            remaining[v - 1] += 1
        values[k] = 0

    fill(0)
    return total


def grow_candidates_unpruned(mu, k, d, limit):
    """The reference for the pruned _grow_candidates: the same walk over
    mu <= nu <= limit with |nu| = |mu| + k*d, kept to weakly decreasing rows
    and to the column cap nu[i] <= mu[i-d] (Weyl, j = d + 1), and to
    mu[0] + k in the first d rows.  It omits every other bound of
    _grow_candidates: the row bound nu[i] <= mu[i] + k (Weyl, j = 1), the
    rectangle floor nu[i] >= k for i < d, and room (rows too few for the
    cells left)."""
    goal = sum(mu) + k * d
    maxlen = min(len(limit), len(mu) + d)
    acc = []

    def rec(i, prev, remaining):
        if remaining == 0:
            if all(mu[j] == 0 for j in range(i, len(mu))):
                yield tuple(acc)
            return
        if i >= maxlen:
            return
        lo = mu[i] if i < len(mu) else 0
        col_cap = mu[i - d] if i >= d else (mu[0] if mu else 0) + k
        hi = min(prev, limit[i], col_cap, remaining)
        for part in range(hi, max(lo, 1) - 1, -1):
            acc.append(part)
            yield from rec(i + 1, part, remaining - part)
            acc.pop()

    yield from rec(0, goal, goal)


def shifted_target(cs, delta):
    """The target of cs and delta in their given orientation: delta_std
    moved up by the least shift that makes it and every average
    non-negative."""
    delta_std = tuple(x // 2 for x in delta)
    shift = max(0, -min(c.avg for c in cs), -delta_std[-1])
    return normalize_partition(x + shift for x in delta_std), shift


def dual_query(cs, delta):
    """The dual twist of (cs, delta) that multiplicity_in_induced may count
    instead: with C the larger of the top average and delta_std[0], each
    chain of average k and length d becomes one of average C - k and length
    d, and delta_std becomes (C - delta_std[n-1], ..., C - delta_std[0]).
    Its averages and target need no shift."""
    C = max(max(c.avg for c in cs), delta[0] // 2)
    chains = tuple(Chain(C - c.avg + c.length - 1, c.length) for c in cs)
    return chains, tuple(2 * C - x for x in reversed(delta))


def tight_problem(cs, delta):
    """The given side of (cs, delta) shifted tight, as multiplicity_in_induced
    keys it: every average and delta_std moved down by the least of them
    (up, when that is negative), then the chains whose average is now 0
    and the target's zero parts dropped.  The factors (k, d) keep the
    canonical order."""
    delta_std = tuple(x // 2 for x in delta)
    low = min(min(c.avg for c in cs), delta_std[-1])
    target = normalize_partition(x - low for x in delta_std)
    return target, tuple((c.avg - low, c.length) for c in canonical_order(cs) if c.avg != low)


def chosen_problem(cs, delta):
    """The problem multiplicity_in_induced counts: of the given side and
    the dual twist's given side, both tight, the one whose target has fewer
    cells, and the smaller (target, factors) on a tie.  Also whether that
    was a tie between two different problems."""
    given, dual = tight_problem(cs, delta), tight_problem(*dual_query(cs, delta))
    return min(given, dual, key=lambda p: (sum(p[0]), p)), sum(given[0]) == sum(dual[0]) and given != dual


def multiplicity_by_lr_coefficient(cs, delta):
    """The reference for multiplicity_in_induced, and its slow predecessor:
    the same iterated product over the same candidates, each coefficient
    taken from the public lr_coefficient with all of its checks, always in
    the given orientation.  It takes only input that
    multiplicity_in_induced accepts, as Chains."""
    delta_std = tuple(x // 2 for x in delta)
    ordered = canonical_order(cs)
    if sum(delta_std) != sum(c.avg * c.length for c in ordered):
        return 0
    target, shift = shifted_target(ordered, delta)

    states = {(): 1}
    for c in ordered:
        k, d = c.avg + shift, c.length
        new = {}
        for mu, coeff in states.items():
            if k == 0:
                new[mu] = new.get(mu, 0) + coeff
                continue
            rect = (k,) * d
            for nu in _grow_candidates(mu, k, d, target):
                c_lr = lr_coefficient(nu, mu, rect)
                if c_lr:
                    new[nu] = new.get(nu, 0) + coeff * c_lr
        states = new
        if not states:
            return 0
    return states.get(target, 0)


def lr_triples(max_size):
    """Every (outer, inner, weight) with |outer| <= max_size, inner inside
    outer and |weight| = |outer| - |inner|, whether weight fits in outer or not."""
    for outer in partitions_up_to(max_size):
        for inner in sub_partitions(outer):
            rest = sum(outer) - sum(inner)
            for weight in partitions_up_to(rest):
                if sum(weight) == rest:
                    yield outer, inner, weight


def test_lattice_word_examples():
    assert is_lattice_word((1, 1, 2, 1, 2, 3))
    assert not is_lattice_word((2, 1, 1))
    assert not is_lattice_word((1, 2, 2))
    assert is_lattice_word(())


def test_single_cell():
    assert lr_coefficient((1, 1), (1,), (1,)) == 1


def test_two_cell_skew_has_one_lattice_filling():
    # fillings (1,2) and (2,1) of (2,1)/(1); only the first reads as a lattice word
    assert lr_coefficient((2, 1), (1,), (1, 1)) == 1


def test_three_cell_skew_counts_two():
    assert lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2
    assert lr_oracle((3, 2, 1), (2, 1), (2, 1)) == 2


def test_lr_validates_inputs():
    with pytest.raises(ValueError):
        lr_coefficient((1,), (2,), ())
    with pytest.raises(ValueError):
        lr_coefficient((2, 1), (1,), (1,))
    with pytest.raises(ValueError):
        lr_coefficient((2, 1), (1,), (1, 2))
    # both checks come before the early 0 for a weight outside outer
    with pytest.raises(ValueError, match="not contained"):
        lr_coefficient((4,), (1, 1), (1, 1))
    for inner, weight in [((1,), (2, 1)), ((2, 1), (1,)), ((2,), (4,))]:
        with pytest.raises(ValueError, match="cells but content has size"):
            lr_coefficient((3, 2), inner, weight)


def test_empty_skew():
    assert lr_coefficient((2, 1), (2, 1), ()) == 1


def test_lr_coefficient_is_the_raw_counter_on_the_smaller_shape(monkeypatch):
    """The same answer as the raw counter called as given; no call when
    weight does not fit (the raw counter checks nothing), otherwise one
    call on the skew shape with fewer cells, ties as given."""
    calls = []

    def recording(outer, inner, weight):
        calls.append((outer, inner, weight))
        return _count_tableaux(outer, inner, weight)

    monkeypatch.setattr(lr, "_count_tableaux", recording)
    for outer, inner, weight in lr_triples(6):
        calls.clear()
        got = lr_coefficient(outer, inner, weight)
        assert got == _count_tableaux(outer, inner, weight), (outer, inner, weight)
        if not contains(outer, weight):
            assert got == 0 and calls == [], (outer, inner, weight)
        elif sum(inner) < sum(outer) - sum(inner):
            assert calls == [(outer, weight, inner)]
        else:
            assert calls == [(outer, inner, weight)]


def test_agrees_with_oracle_exhaustively_small():
    for outer, inner, weight in lr_triples(6):
        assert lr_coefficient(outer, inner, weight) == lr_oracle(outer, inner, weight), (outer, inner, weight)


def test_agrees_with_oracle_on_larger_spot_checks():
    cases = [
        ((4, 3, 2), (2, 1), (3, 2, 1)),
        ((5, 4, 2, 1), (3, 1), (4, 3, 1)),
        ((4, 4, 3, 1), (2, 2), (4, 3, 1)),
        ((6, 4, 2), (3, 1), (4, 3, 1)),
    ]
    for outer, inner, weight in cases:
        assert lr_coefficient(outer, inner, weight) == lr_oracle(outer, inner, weight)


def test_memo_counter_matches_cell_by_cell_counter():
    for outer, inner, weight in lr_triples(9):
        assert _count_tableaux(outer, inner, weight) == count_tableaux_by_cells(outer, inner, weight), (outer, inner, weight)
        if contains(outer, weight):
            assert _count_tableaux(outer, weight, inner) == count_tableaux_by_cells(outer, weight, inner), (outer, inner, weight)


def test_24_cell_staircase_triples():
    # count_tableaux_by_cells gave these in about 1 s and 11 s
    outer, inner = tuple(range(13, 0, -1)), (7, 6, 5, 3, 2, 1)
    assert lr_coefficient(outer, inner, (12, 11, 10, 9, 8, 7, 6, 3, 1)) == 54_705
    assert lr_coefficient(outer, inner, (11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 1)) == 3_984_598


def test_multiplicity_single_chain_is_one():
    cs = ChainSet.from_lists([[5, 3, 1]])
    assert multiplicity_in_induced(cs, lowest_k_type(cs)) == 1


def test_multiplicity_of_tau_in_worked_example():
    res = spin_lowest_k_type(EX22)
    assert multiplicity_in_induced(EX22, res.tau) == 1


def test_multiplicity_of_lowest_k_type_is_one():
    for lists in ([[5, 3, 1], [4]], [[3, 1], [4, 2]], [[9, 7, 5, 3, 1], [6, 4]]):
        cs = ChainSet.from_lists(lists)
        assert multiplicity_in_induced(cs, lowest_k_type(cs)) == 1


def test_multiplicity_of_lowest_k_type_over_enumeration():
    from spinchains.scattered import generate

    for n in range(2, 7):
        for cs in generate(n):
            assert multiplicity_in_induced(cs, lowest_k_type(cs)) == 1, cs.to_lists()


def test_multiplicity_shift_invariance():
    # moving every chain by 2t moves each average, and so tau, by 2t (4t
    # doubled).  Shifted tight, every t gives the same given side, a 35-cell
    # target (the dual's has 37): shifted up by 12 and 4 for t = -7 and -3,
    # and down by 2 + 2t for t >= 0.  One product, computed once and read
    # from the memo five times
    tau = spin_lowest_k_type(EX22).tau
    assert multiplicity_in_induced(EX22, tau) == 1
    for t in (-7, -3, 1, 3, 7):
        moved = ChainSet(tuple(Chain(c.top + 2 * t, c.length) for c in EX22.chains))
        assert multiplicity_in_induced(moved, tuple(x + 4 * t for x in tau)) == 1, t
    info = lr._product.cache_info()
    assert (info.misses, info.hits) == (1, 5)


def test_multiplicity_handles_negative_averages():
    cs = ChainSet.from_lists([[-2, -4], [-1, -3, -5]])
    assert multiplicity_in_induced(cs, lowest_k_type(cs)) == 1


def test_multiplicity_central_character_mismatch_is_zero():
    delta = lowest_k_type(EX22)
    assert multiplicity_in_induced(EX22, tuple(x + 2 for x in delta[:-1]) + (delta[-1],)) == 0


def test_multiplicity_rejects_malformed_delta():
    with pytest.raises(ValueError, match="chain set needs at least one chain"):
        multiplicity_in_induced((), ())
    with pytest.raises(ValueError):
        multiplicity_in_induced(EX22, (1,) * 9)  # odd coordinates
    with pytest.raises(ValueError):
        multiplicity_in_induced(EX22, (0, 2) + (0,) * 7)  # not dominant
    with pytest.raises(ValueError):
        multiplicity_in_induced(EX22, (2, 0))  # wrong length


def shell_queries(cs):
    """Every doubled delta that verify's uniqueness check asks about for cs:
    each lift of the spin-norm shell of |2lambda|, and tau."""
    lam = lambda_doubled(cs)
    queries = [tuple(2 * x for x in v) for v in spin_norm_shell(cs.n, sum(lam), 4 * norm_sq(lam), [-inf] * cs.n, [inf] * cs.n)]
    return queries + [spin_lowest_k_type(cs).tau]


@cache
def shell_sweep():
    """(cs, delta, answer) for every shell query of every decomposition to
    rank 5, the answer by the reference."""
    return [
        (cs, delta, multiplicity_by_lr_coefficient(cs, delta))
        for n in range(2, 6)
        for cs in map(ChainSet, _pair_decompositions(n))
        for delta in shell_queries(cs)
    ]


def test_multiplicity_matches_lr_coefficient_path_on_every_shell(monkeypatch):
    """Every shell query of every decomposition to rank 5, each from an
    empty product memo.  The engine hands `_product` the tight side whose
    target has fewer cells, the smaller problem on a tie, and grows its
    candidates under that target; it counts some queries as given and some
    as their dual twist.  A query that never reaches `_product` has sizes
    that differ or a rectangle that does not fit inside its target, on
    either side (every shell query has the right size, so only the second
    exit is taken here, and each side's half of it ends some query that
    the other half lets through)."""
    problems, limits = [], []
    product = lr._product

    def recording_product(target, factors):
        problems.append((target, factors))
        return product(target, factors)

    def recording(mu, k, d, limit):
        limits.append(limit)
        return _grow_candidates(mu, k, d, limit)

    monkeypatch.setattr(lr, "_product", recording_product)
    monkeypatch.setattr(lr, "_grow_candidates", recording)
    nonzero, exits, sides, tie_sides = 0, set(), set(), set()
    for cs, delta, expected in shell_sweep():
        problems.clear()
        limits.clear()
        product.cache_clear()
        got = multiplicity_in_induced(cs, delta)
        assert got == expected, (cs, delta)
        nonzero += got > 0
        (target, factors), tie = chosen_problem(cs, delta)
        if problems:
            assert problems == [(target, factors)], (cs, delta)
            assert set(limits) <= {target}, (cs, delta)
            dual = (target, factors) != tight_problem(cs, delta)
            sides.add(dual)
            if tie:
                tie_sides.add(dual)
        else:
            both = tight_problem(cs, delta), tight_problem(*dual_query(cs, delta))
            fits = tuple(all(contains(side, (k,) * d) for k, d in side_factors) for side, side_factors in both)
            assert got == 0 and (sum(delta) != 2 * sum(c.avg * c.length for c in cs) or fits != (True, True)), (cs, delta)
            exits.add(fits)
    assert nonzero > 100  # the sweep reaches the product, not just the early 0
    assert {(True, False), (False, True)} <= exits
    assert sides == {False, True}  # a rule that never flips, or always does, fails here
    assert tie_sides == {False, True}  # and one that keeps either side on a tie


def test_multiplicity_matches_lr_coefficient_path_cold_and_warm():
    """The shell queries, whose answers are 0 and 1, and two queries with
    answers 2 and 4, in one sweep from empty memos, then again with the
    product memo full: every answer equals the reference both times, and
    the second sweep computes no product.  The given sides shift both down
    and up."""
    above_one = [(ChainSet(((3, 1), (2, 1), (1, 1))), (10, 2, 0)), (ChainSet(((3, 1), (2, 2), (1, 2))), (10, 4, 2, -2, -4))]
    sweep = shell_sweep() + [(cs, delta, multiplicity_by_lr_coefficient(cs, delta)) for cs, delta in above_one]
    for _ in ("cold", "warm"):
        misses = lr._product.cache_info().misses
        for cs, delta, expected in sweep:
            assert multiplicity_in_induced(cs, delta) == expected, (cs, delta)
    assert lr._product.cache_info().misses == misses > 0
    assert sorted({expected for _, _, expected in sweep}) == [0, 1, 2, 4]
    lows = {min(min(c.avg for c in cs), delta[-1] // 2) for cs, delta, _ in sweep}
    assert min(lows) < 0 < max(lows)


def test_a_parameter_and_its_reflection_map_to_one_problem(monkeypatch):
    """Every scattered parameter p of ranks 2..12 and its entry reflection
    p*, each with its tau: multiplicity_in_induced hands `_product` the same
    (target, factors) for both, so the second is a memo hit."""
    problems = {}
    current = []
    monkeypatch.setattr(lr, "_product", lambda target, factors: current.append((target, factors)) or 1)
    for n in range(2, 13):
        rank = {}
        for cs in generate(n):
            current.clear()
            multiplicity_in_induced(cs, spin_lowest_k_type(cs).tau)
            rank[cs.chains] = current[0]
        for chains, problem in rank.items():
            top = chains[0].top  # M, the largest entry
            mirror = ChainSet(tuple(Chain(top + 1 - c.bottom, c.length) for c in chains))
            assert rank[mirror.chains] == problem, chains
        problems[n] = len(set(rank.values()))
    assert problems[10] == 136 and problems[12] == 528


def test_dual_twist_keeps_the_multiplicity_by_the_slow_path():
    """The lemma behind multiplicity_in_induced's choice of side, checked by
    the reference, which never swaps: tau of every scattered parameter to
    rank 9 has the multiplicity of its dual twist."""
    for n in range(2, 10):
        for cs in generate(n):
            tau = spin_lowest_k_type(cs).tau
            assert multiplicity_by_lr_coefficient(cs, tau) == multiplicity_by_lr_coefficient(*dual_query(cs, tau)) == 1, cs.to_lists()


def test_tau_sweep_at_rank_10_computes_136_products_with_74_raw_counts_and_198_searches(monkeypatch):
    """The work counters of the multiplicity engine: tau's multiplicity for
    every rank-10 parameter, from empty memos, computes 136 products, one
    for each of the 120 pairs {p, p*} and the 16 self-dual parameters, and
    reads the other 120 from the product memo.  The products call the raw
    counter 74 times and the candidate search 198 times.  Before the first
    columns were peeled off the sweep made 90 raw counts; before the tight
    shifts and the product memo, 122 raw counts and 353 searches; counting a
    product of two rectangles by tableaux made 258 raw counts, and
    searching for the first and the last factor's candidates made 882
    searches."""
    queries = [(cs, spin_lowest_k_type(cs).tau) for cs in generate(10)]
    counts, searches = [], []

    def counting(outer, inner, weight):
        counts.append(None)
        return _count_tableaux(outer, inner, weight)

    def searching(mu, k, d, limit):
        searches.append(None)
        return _grow_candidates(mu, k, d, limit)

    monkeypatch.setattr(lr, "_count_tableaux", counting)
    monkeypatch.setattr(lr, "_grow_candidates", searching)
    assert all(multiplicity_in_induced(cs, tau) == 1 for cs, tau in queries)
    info = lr._product.cache_info()
    assert (info.misses, info.hits, len(counts), len(searches)) == (136, 120, 74, 198)


def test_two_rectangle_rule_matches_the_raw_counter():
    """The rule for c(nu; a^b, k^d) that multiplicity_in_induced takes in
    place of a count, against the raw counter for 1 <= a, b, k, d <= 4 on
    every nu of a*b + k*d cells in the (b + d) x (a + k) box (CI runs it
    to 5)."""
    triples = 0
    for a, b, k, d in product(range(1, 5), repeat=4):
        rect = (a,) * b
        for nu in sub_partitions((a + k,) * (b + d)):
            if sum(nu) == a * b + k * d:
                count = _count_tableaux(nu, rect, (k,) * d) if contains(nu, rect) else 0
                assert _two_rectangles(nu, rect, k, d) == count, (nu, a, b, k, d)
                triples += 1
    assert triples == 8_894


def test_two_rectangle_rule_is_zero_one_row_and_one_column_beyond_the_box():
    """The peel in `_coefficient` hands `_two_rectangles` shapes of its own
    making: the rule against the raw counter on every nu of a*b + k*d cells
    in the (b + d + 1) x (a + k + 1) box outside the (b + d) x (a + k) one,
    for 1 <= a, b, k, d <= 3, where the count is 0."""
    triples = 0
    for a, b, k, d in product(range(1, 4), repeat=4):
        rect = (a,) * b
        for nu in sub_partitions((a + k + 1,) * (b + d + 1)):
            if sum(nu) == a * b + k * d and (len(nu) > b + d or nu[0] > a + k):
                count = _count_tableaux(nu, rect, (k,) * d) if contains(nu, rect) else 0
                assert _two_rectangles(nu, rect, k, d) == count == 0, (nu, a, b, k, d)
                triples += 1
    assert triples == 731


def strip_first_column(p):
    return tuple(x - 1 for x in p if x > 1)


def test_first_column_strips_off_every_triple_whose_lengths_add_up():
    """The lemma behind the peel, on general triples: c(l; m, r) = c(l-; m-,
    r-), each with its first column gone, whenever len(l) = len(m) +
    len(r), on every triple with |l| <= 8, by the raw counter on both
    sides."""
    triples = nonzero = 0
    for outer, inner, weight in lr_triples(8):
        if weight and len(outer) == len(inner) + len(weight):
            stripped = strip_first_column(outer), strip_first_column(inner), strip_first_column(weight)
            count = _count_tableaux(outer, inner, weight)
            assert count == _count_tableaux(*stripped), (outer, inner, weight)
            triples += 1
            nonzero += count > 0
    assert (triples, nonzero) == (816, 501)


def rectangle_triples(max_size):
    """(nu, mu, k, d) with |nu| <= max_size, mu inside nu, k*d = |nu| -
    |mu| and k^d inside nu: the domain of `_coefficient`."""
    for nu in partitions_up_to(max_size):
        for mu in sub_partitions(nu):
            rest = sum(nu) - sum(mu)
            for k in range(1, rest + 1):
                d = rest // k
                if k * d == rest and len(nu) >= d and nu[d - 1] >= k:
                    yield nu, mu, k, d


def test_peeled_coefficient_equals_the_raw_counter_on_every_small_triple():
    """`_coefficient` against the raw counter on the whole unpeeled triple,
    for every triple of its domain with |nu| <= 10 (CI runs it to 18).
    Some triples peel down to a column, an empty mu or a rectangle mu."""
    triples = peeled = 0
    for nu, mu, k, d in rectangle_triples(10):
        assert _coefficient(nu, mu, k, d) == _count_tableaux(nu, mu, (k,) * d), (nu, mu, k, d)
        triples += 1
        peeled += k > 1 and len(nu) == len(mu) + d
    assert (triples, peeled) == (3_531, 629)


def test_peeled_coefficient_equals_the_raw_counter_on_the_tau_sweeps(monkeypatch):
    """Every distinct (nu, mu, k, d) that the tau sweeps of ranks <= 12 hand
    `_coefficient`, against the raw counter on the unpeeled triple."""
    calls = set()

    def recording(nu, mu, k, d):
        calls.add((nu, mu, k, d))
        return _coefficient(nu, mu, k, d)

    monkeypatch.setattr(lr, "_coefficient", recording)
    for n in range(2, 13):
        for cs in generate(n):
            multiplicity_in_induced(cs, spin_lowest_k_type(cs).tau)
    monkeypatch.undo()
    peeled = [(nu, mu, k, d) for nu, mu, k, d in calls if len(nu) == len(mu) + d]
    assert len(calls) > 1000 and len(peeled) > len(calls) // 2
    for nu, mu, k, d in calls:
        assert _coefficient(nu, mu, k, d) == _count_tableaux(nu, mu, (k,) * d), (nu, mu, k, d)


@st.composite
def induced_queries(draw):
    """(cs, delta): up to four disjoint chains of at most 8 entries in all,
    and a dominant doubled delta with lambda's coordinate sum: the lowest
    K-type moved coordinatewise by even steps of at most 6, sorted, with
    the sum restored at an end.  Most such delta lie off the spin-norm shell."""
    chains, used = [], set()
    for _ in range(draw(st.integers(1, 4))):
        c = Chain(draw(st.integers(-6, 10)), draw(st.integers(1, 4)))
        if used.isdisjoint(c.entries()) and len(used) + c.length <= 8:
            used.update(c.entries())
            chains.append(c)
    cs = ChainSet(tuple(chains))
    lowest = lowest_k_type(cs)
    delta = sorted((x + 2 * draw(st.integers(-3, 3)) for x in lowest), reverse=True)
    excess = sum(delta) - sum(lowest)
    delta[-1 if excess > 0 else 0] -= excess
    return cs, tuple(delta)


@settings(deadline=None)
@given(induced_queries())
def test_multiplicity_matches_lr_coefficient_path_off_the_shell(query):
    """The engine against the reference, and the reference against itself
    on the dual twist: the lemma off the shell and off the scattered set."""
    cs, delta = query
    expected = multiplicity_by_lr_coefficient(cs, delta)
    assert multiplicity_in_induced(cs, delta) == expected == multiplicity_by_lr_coefficient(*dual_query(cs, delta))


def test_one_row_and_one_column_candidates_have_coefficient_one():
    """The Pieri shortcut of multiplicity_in_induced: for d = 1 or k = 1,
    under a limit that cuts nothing, every shape _grow_candidates yields is
    a horizontal or vertical strip over mu, with coefficient 1."""
    for mu in partitions_up_to(6):
        for k, d in [(1, 1), (2, 1), (3, 1), (1, 2), (1, 3)]:
            goal = sum(mu) + k * d
            shapes = list(_grow_candidates(mu, k, d, (goal,) * (len(mu) + d)))
            assert shapes, (mu, k, d)
            for nu in shapes:
                assert lr_coefficient(nu, mu, (k,) * d) == 1, (mu, k, d, nu)


def test_multiplicity_adds_up_one_row_paths():
    # three singletons: h3 h2 h1 holds s_(5,1) K_{(5,1),(3,2,1)} = 2 times,
    # every step a coefficient-1 Pieri step
    cs = ChainSet(((3, 1), (2, 1), (1, 1)))
    assert multiplicity_in_induced(cs, (10, 2, 0)) == 2
    assert multiplicity_by_lr_coefficient(cs, (10, 2, 0)) == 2


def test_multiplicity_keeps_a_rectangle_coefficient_above_one(monkeypatch):
    """The rectangle branch uses the raw count as it is: with shift 2 the
    factors are 5^1, 3^2 and 2^2, and c((7,4,3,1); (6,3,2), 2^2) = 2.  An
    engine that took every nonzero c as 1 would answer 3."""
    counts = []

    def recording(outer, inner, weight):
        counts.append(_count_tableaux(outer, inner, weight))
        return counts[-1]

    cs, delta = ChainSet(((3, 1), (2, 2), (1, 2))), (10, 4, 2, -2, -4)
    monkeypatch.setattr(lr, "_count_tableaux", recording)
    assert multiplicity_in_induced(cs, delta) == 4
    assert 2 in counts
    monkeypatch.undo()
    assert multiplicity_by_lr_coefficient(cs, delta) == 4


def test_empty_state_takes_the_rectangle_with_no_raw_count(monkeypatch):
    """The first rectangle k^d, k, d >= 2, on the state (): its only
    candidate is k^d itself, with coefficient 1, so multiplicity_in_induced
    starts from the state k^d with neither a search nor a count of tableaux
    on a skew shape with no cells."""
    for k in range(2, 5):
        for d in range(2, 5):
            assert list(_grow_candidates((), k, d, (k * d,) * (d + 1))) == [(k,) * d], (k, d)
            assert lr_coefficient((k,) * d, (), (k,) * d) == 1
    queries = [(cs, spin_lowest_k_type(cs).tau) for cs in generate(8)]
    expected = [multiplicity_by_lr_coefficient(cs, tau) for cs, tau in queries]
    calls = []

    def recording(outer, inner, weight):
        calls.append((inner, weight))
        return _count_tableaux(outer, inner, weight)

    monkeypatch.setattr(lr, "_count_tableaux", recording)
    assert [multiplicity_in_induced(cs, tau) for cs, tau in queries] == expected
    assert calls and all(inner and weight for inner, weight in calls)


def test_grow_candidates_prunes_only_zero_coefficients():
    by_size = {}
    for p in partitions_up_to(6 + 3 * 3):
        by_size.setdefault(sum(p), []).append(p)
    dropped = 0
    for mu in partitions_up_to(6):
        for k in range(1, 4):
            for d in range(1, 4):
                for limit in by_size[sum(mu) + k * d]:
                    pruned = set(_grow_candidates(mu, k, d, limit))
                    # the last factor's test of the target, without the search
                    assert _is_candidate(limit, mu, k, d) == (limit in pruned), (mu, k, d, limit)
                    if not contains(limit, mu):
                        continue
                    full = set(grow_candidates_unpruned(mu, k, d, limit))
                    assert pruned <= full, (mu, k, d, limit)
                    # multiplicity_in_induced hands these to the raw counter as k^d's outer
                    assert all(contains(nu, (k,) * d) for nu in pruned), (mu, k, d, limit)
                    for nu in full - pruned:
                        assert lr_coefficient(nu, mu, (k,) * d) == 0, (mu, k, d, nu)
                    dropped += len(full - pruned)
    assert dropped  # the pruning removes something, so the check is not vacuous


SMALL_PARTITIONS = list(partitions_up_to(12))


def add_cells(draw, shape, ncells):
    """shape grown by ncells cells, each drawn among the addable ones."""
    grown = list(shape) + [0]  # one empty row to grow into
    for _ in range(ncells):
        grown[draw(st.sampled_from([i for i in range(len(grown)) if i == 0 or grown[i - 1] > grown[i]]))] += 1
        if grown[-1]:
            grown.append(0)
    return normalize_partition(grown)


@st.composite
def grow_cases(draw):
    """(mu, k, d, limit): |mu| <= 12, 1 <= k, d <= 5, and limit grown from mu
    one addable cell at a time to size |mu| + k*d."""
    mu = draw(st.sampled_from(SMALL_PARTITIONS))
    k = draw(st.integers(1, 5))
    d = draw(st.integers(1, 5))
    return mu, k, d, add_cells(draw, mu, k * d)


@settings(deadline=None)
@given(grow_cases())
def test_grow_candidates_keeps_every_nonzero_coefficient(case):
    mu, k, d, limit = case
    rect = (k,) * d
    got = list(_grow_candidates(mu, k, d, limit))
    assert len(got) == len(set(got))
    for nu in got:
        assert sum(nu) == sum(limit) and contains(nu, mu) and contains(limit, nu) and contains(nu, rect), nu
    nonzero = {nu for nu in got if lr_coefficient(nu, mu, rect)}
    assert nonzero == {nu for nu in grow_candidates_unpruned(mu, k, d, limit) if lr_coefficient(nu, mu, rect)}


@st.composite
def skew_triples(draw):
    """(outer, inner, weight): |inner| <= 12, outer grown from inner by up to
    14 addable cells, and weight a partition of that many cells inside outer,
    so both orientations are valid input to the raw counter."""
    inner = draw(st.sampled_from(SMALL_PARTITIONS))
    ncells = draw(st.integers(0, 14))
    outer = add_cells(draw, inner, ncells)
    weight = draw(st.sampled_from([p for p in sub_partitions(outer) if sum(p) == ncells]))
    return outer, inner, weight


@settings(deadline=None, max_examples=100)
@given(skew_triples())
def test_memo_counter_matches_cell_by_cell_counter_in_both_orientations(triple):
    outer, inner, weight = triple
    count = count_tableaux_by_cells(outer, inner, weight)
    assert _count_tableaux(outer, inner, weight) == count
    assert _count_tableaux(outer, weight, inner) == count


def test_rectangle_memo_keys_on_the_whole_rectangle():
    """Two rectangles of equal area on the same (nu, mu), asked in both
    orders: a memo keyed on (nu, mu) alone would hand the second the first's
    answer.  Both 2^3 and 3^2 fit inside (3,3,2), as they do for every
    rectangle that multiplicity_in_induced asks about."""
    nu = (3, 3, 2)
    for mu in [(1, 1), (2,)]:
        expected = {(k, d): lr_coefficient(nu, mu, (k,) * d) for k, d in [(2, 3), (3, 2)]}
        assert sorted(expected.values()) == [0, 1], mu
        for order in [[(2, 3), (3, 2)], [(3, 2), (2, 3)]]:
            lr._rectangle_coefficient.cache_clear()
            for k, d in order:
                assert lr._rectangle_coefficient(nu, mu, k, d) == expected[k, d], (mu, order, k, d)

    # a rank-9 sweep gives the same answers cold, warm and in reverse order;
    # the product memo is emptied before each sweep, so that every product
    # is computed again and the warm sweep reads the rectangle memo
    queries = [(cs, spin_lowest_k_type(cs).tau) for cs in generate(9)]
    lr._rectangle_coefficient.cache_clear()
    lr._product.cache_clear()
    cold = [multiplicity_in_induced(cs, tau) for cs, tau in queries]
    hits = lr._rectangle_coefficient.cache_info().hits
    lr._product.cache_clear()
    warm = [multiplicity_in_induced(cs, tau) for cs, tau in queries]
    info = lr._rectangle_coefficient.cache_info()
    assert info.hits > hits  # the warm sweep reads the memo
    assert 0 < info.currsize <= info.maxsize
    lr._rectangle_coefficient.cache_clear()
    lr._product.cache_clear()
    backward = [multiplicity_in_induced(cs, tau) for cs, tau in reversed(queries)][::-1]
    assert cold == warm == backward == [1] * len(queries)


def test_memo_counter_matches_cell_by_cell_counter_on_multiplicity_shapes(monkeypatch):
    """Every distinct triple the multiplicity of tau counts at ranks <= 12,
    up to 30 cells and many letters, in both orientations: lr_triples(9)
    stops at 9 cells.  With the tight shifts, ranks <= 11 reach only 28."""
    triples = set()

    def recording(outer, inner, weight):
        triples.add((outer, inner, weight))
        return _count_tableaux(outer, inner, weight)

    monkeypatch.setattr(lr, "_count_tableaux", recording)
    for n in range(2, 13):
        for cs in generate(n):
            multiplicity_in_induced(cs, spin_lowest_k_type(cs).tau)
    monkeypatch.undo()
    assert len(triples) > 200 and max(sum(o) - sum(i) for o, i, _ in triples) >= 30
    for outer, inner, weight in triples:
        assert _count_tableaux(outer, inner, weight) == count_tableaux_by_cells(outer, inner, weight), (outer, inner, weight)
        if contains(outer, weight):
            assert _count_tableaux(outer, weight, inner) == count_tableaux_by_cells(outer, weight, inner), (outer, inner, weight)
