import functools
import json
import tracemalloc
from collections import Counter
from itertools import accumulate, combinations, islice, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinchains import scattered, spin
from spinchains.chains import (
    Chain,
    ChainSet,
    OverlappingChainsError,
    _canonical_key,
    extract_involution,
    is_interlaced,
    is_involution,
    lambda_doubled,
)
from spinchains.lr import multiplicity_in_induced
from spinchains.scattered import (
    _BASE,
    _assemble,
    _branch,
    _interlaced_pairs,
    _levels,
    _pair_decompositions,
    _prefix_walk,
    _record_dict,
    _records,
    _unbranch,
    brute_force_enumerate,
    build_record,
    count,
    expand,
    generate,
    is_u_small,
    reduce,
    spherical_family,
)
from spinchains.spin import _rules, spin_lowest_k_type, verify_spin_identity
from spinchains.verify import VERIFY_CAP
from spinchains.weights import rho_doubled, to_fundamental

from conftest import NAMES
from test_spin import tau_by_layout


def tree_leaves(n: int) -> list:
    """The leaves of the branching tree at depth n - 2, as pairs, in branching order."""
    return next(islice(_levels(_BASE, _branch), n - 2, None))


@pytest.mark.parametrize("name", list(NAMES))
def test_verify_check_passes(name, check_lines):
    """Every registry check, and each sweep line by its own name, passes at
    VERIFY_CAP; the lines come from the session's one run of each check,
    which criteria 4 and 6-10 also read."""
    lines = check_lines(name)
    assert lines and all(ok for _, ok, _ in lines), lines


def test_expand_worked_children():
    cs = ChainSet.from_lists([[9, 7, 5, 3, 1], [4, 2]])
    assert set(expand(cs)) == {
        ChainSet.from_lists([[11, 9, 7, 5, 3, 1], [4, 2]]),
        ChainSet.from_lists([[9, 7, 5, 3, 1], [8], [4, 2]]),
    }


def test_reduce_worked_examples():
    assert reduce(ChainSet.from_lists([[11, 9, 7, 5, 3, 1], [4, 2]])) == ChainSet.from_lists([[9, 7, 5, 3, 1], [4, 2]])
    assert reduce(ChainSet.from_lists([[9, 7, 5, 3, 1], [8], [4, 2]])) == ChainSet.from_lists([[9, 7, 5, 3, 1], [4, 2]])
    assert reduce(ChainSet.from_lists([[5, 3, 1]])) == ChainSet.from_lists([[3, 1]])


def test_reduce_rejects_base_parameter():
    with pytest.raises(ValueError):
        reduce(ChainSet.from_lists([[3, 1]]))


def reduce_on_chain_sets(cs: ChainSet) -> ChainSet:
    """reduce as it was written on ChainSets, before `_unbranch`: its oracle."""
    if cs.min_entry() != 1 or not is_interlaced(cs):
        raise ValueError("reduce needs an interlaced set with smallest entry 1")
    if cs.n <= 2:
        raise ValueError("the base parameter {3, 1} cannot be reduced")
    holder = cs.chains[0]  # the chain holding the largest entry M
    m = holder.top
    singleton = Chain(m - 1, 1)
    if singleton in cs.chains:
        out = ChainSet(tuple(c for c in cs.chains if c != singleton))
    elif holder.length == 1:
        raise AssertionError("an interlaced set cannot top out in an unlinked singleton")
    else:
        shrunk = Chain(m - 2, holder.length - 1)
        out = ChainSet(tuple(shrunk if c == holder else c for c in cs.chains))
    if not is_interlaced(out) or out.min_entry() != 1:
        raise AssertionError(f"reduction broke interlacing: {out.to_lists()}")
    return out


def test_unbranch_equals_reduce_on_chain_sets():
    for n in range(3, VERIFY_CAP + 1):
        for pairs in _interlaced_pairs(n):
            assert _unbranch(pairs) == reduce_on_chain_sets(ChainSet(pairs)).chains, pairs


def test_reduce_rejects_what_it_rejected_on_chain_sets():
    # every decomposition to rank 5, interlaced or not, and shifted copies
    # whose smallest entry is not 1; expand raises ValueError exactly on
    # the sets that are not scattered, never _branch's AssertionError
    sets = [ChainSet(pairs) for n in range(2, 6) for pairs in _pair_decompositions(n)]
    sets += [ChainSet(tuple(Chain(c.top + 2, c.length) for c in cs.chains)) for cs in sets]
    for cs in sets:
        try:
            expected = reduce_on_chain_sets(cs)
        except ValueError:
            with pytest.raises(ValueError):
                reduce(cs)
        else:
            assert reduce(cs) == expected, cs.to_lists()
        if cs.min_entry() == 1 and is_interlaced(cs):
            assert [reduce(child) for child in expand(cs)] == [cs, cs], cs.to_lists()
        else:
            with pytest.raises(ValueError, match="^not a scattered parameter"):
                expand(cs)


def test_brute_force_base_case():
    assert brute_force_enumerate(2) == [ChainSet.from_lists([[3, 1]])]
    with pytest.raises(ValueError):
        brute_force_enumerate(1)


def run_cuttings(run: tuple[int, ...]):
    """All ways to cut one maximal step-2 run into contiguous chains."""
    for mask in range(1 << (len(run) - 1)):
        chains = []
        start = 0
        for pos in range(len(run) - 1):
            if mask & (1 << pos):
                chains.append((run[start], pos + 1 - start))
                start = pos + 1
        chains.append((run[start], len(run) - start))
        yield tuple(chains)


def split_entries(entries: tuple[int, ...]):
    """Every split of a set of distinct entries into descending step-2 chains.

    Each maximal step-2 run of one parity is cut independently; yields
    tuples of (top, length) pairs, odd runs before even, tops descending.
    """
    runs = []
    for parity in (1, 0):
        members = sorted((e for e in entries if e % 2 == parity), reverse=True)
        run: list[int] = []
        for e in members:
            if run and run[-1] - e != 2:
                runs.append(tuple(run))
                run = []
            run.append(e)
        if run:
            runs.append(tuple(run))
    for cuttings in product(*map(run_cuttings, runs)):
        yield sum(cuttings, ())


def gap_free_walk(n: int) -> list:
    """The search brute_force_enumerate made before `_interlaced_pairs`, on
    pairs, kept as its oracle.

    Two consecutive values missing below the top split the entries into
    blocks that no chain (step 2) or link (straddling spans) can cross, so
    the entries of an interlaced set with smallest entry 1 climb in steps
    of 1 or 2.  The search walks all 2^(n-1) such entry sets, splits each
    into step-2 chains in every way and keeps the interlaced splits.
    """
    found = []
    for steps in product((1, 2), repeat=n - 1):
        entries = tuple(accumulate(steps, initial=1))
        found.extend(tuple(sorted(pairs, reverse=True)) for pairs in split_entries(entries) if is_interlaced(pairs))
    return sorted(found)


def test_top_down_search_equals_the_gap_free_walk():
    for n in range(2, 12):
        assert [cs.chains for cs in brute_force_enumerate(n)] == gap_free_walk(n), n


def test_top_down_search_equals_the_branching_tree():
    # at every rank enumerate prints, beyond VERIFY_CAP, where verify's
    # oracle stops: enumerate prints the search, so the tree is its oracle
    for n in range(2, 17):
        assert list(_interlaced_pairs(n)) == sorted(tree_leaves(n)), n


def split_entry_sets(n: int, top: int):
    """Every split of every set of n entries with smallest entry 1 and
    largest at most top, as pairs with tops descending."""
    for rest in combinations(range(2, top + 1), n - 1):
        for pairs in split_entries((1,) + rest):
            yield tuple(sorted(pairs, reverse=True))


def test_pair_decompositions_equal_the_split_entry_sets():
    # every entry set with smallest entry 1, split in every way: how
    # _pair_decompositions found them before its top-down search
    for n in range(2, 8):
        found = list(_pair_decompositions(n))
        assert len(set(found)) == len(found) and sorted(found) == sorted(split_entry_sets(n, 2 * n - 1)), n


def test_record_order_is_the_to_lists_order():
    # sorting on the entry lists defines the record order; it is the oracle
    # of the (top, length) pair key that generate and brute_force_enumerate use
    for n in range(2, 13):
        assert generate(n) == sorted(map(ChainSet, tree_leaves(n)), key=ChainSet.to_lists)
    for n in range(2, 10):
        found = brute_force_enumerate(n)
        assert found == sorted(found, key=ChainSet.to_lists)


def test_interlaced_decompositions_with_larger_entries_are_generated():
    # neither the oracle's step walk, nor a gap filter, nor a search of
    # src/: every split of every entry set up to 2n + 1, kept when interlaced
    for n in range(2, 8):
        found = [pairs for pairs in split_entry_sets(n, 2 * n + 1) if is_interlaced(pairs)]
        assert sorted(found) == [cs.chains for cs in generate(n)], n


def test_every_decomposition_gives_an_involution_and_the_spin_identity():
    # interlaced or not; whether the involution uses every simple reflection
    # is the registry's check_equivalence.  The rule engine meets its layout
    # reference here on the rule paths that only non-interlaced sets take,
    # and sorts pairs given in any order.
    for n in range(2, 8):
        for cs in map(ChainSet, _pair_decompositions(n)):
            assert is_involution(extract_involution(cs)), cs.to_lists()
            res = spin_lowest_k_type(cs)
            assert verify_spin_identity(res), cs.to_lists()
            rows, trace, tau = tau_by_layout(cs)
            assert (res.rows, res.trace, res.tau) == (rows, trace, tau), cs.to_lists()
            ordered, pair_rows, pair_trace = _rules(cs.chains[::-1])
            assert ordered == res.chains, cs.to_lists()
            assert (tuple(map(tuple, pair_rows)), tuple(pair_trace)) == (rows, trace), cs.to_lists()


def record_on_chain_sets(cs: ChainSet, with_multiplicity: bool = False) -> dict:
    """build_record as it was written field by field on a ChainSet, before
    it read its fields from `scattered._assemble`: the reference of both
    record paths."""
    if cs.min_entry() != 1 or not is_interlaced(cs):
        raise ValueError("not a scattered parameter: need interlaced chains with smallest entry 1")
    res = spin_lowest_k_type(cs)
    return {
        "n": cs.n,
        "chains": cs.to_lists(),
        "lambda2_fund": [x // 2 for x in to_fundamental(res.lambda2)],
        "s": list(extract_involution(cs)),
        "tau_fund": list(to_fundamental(tuple(x // 2 for x in res.tau))),
        "gamma": list(res.gamma),
        "u_small": is_u_small(res.tau),
        "multiplicity": multiplicity_in_induced(cs, res.tau) if with_multiplicity else None,
    }


@functools.cache
def reference_records(n: int, with_multiplicity: bool = False) -> tuple:
    """record_on_chain_sets of each parameter of generate(n), in that order."""
    return tuple(record_on_chain_sets(cs, with_multiplicity) for cs in generate(n))


def as_walked(rec: dict) -> dict:
    """rec with its chains as the prefix walk carries them: the text of the lists."""
    return dict(rec, chains=str(rec["chains"]))


def test_pair_path_records_equal_build_record():
    # both record paths against the field-by-field reference: the dict view
    # of the fields `enumerate` prints, and build_record's; every printed
    # line, to rank 13, is test_cli's test_json_line_is_json_dumps
    for n, with_multiplicity in [*((n, False) for n in range(2, 11)), *((n, True) for n in range(2, 8))]:
        expected = reference_records(n, with_multiplicity)
        records = [_record_dict(fields) for _, fields in _records(n, with_multiplicity)]
        assert records == list(map(as_walked, expected)), (n, with_multiplicity)
        assert [build_record(cs, with_multiplicity) for cs in generate(n)] == list(expected), (n, with_multiplicity)


@functools.cache
def sorted_leaves(n: int) -> list:
    return sorted(tree_leaves(n))


@st.composite
def leaf_subsets(draw):
    """A rank n <= 12 and a sorted subset of its leaves, so that the prefix
    walk must pop back across the gaps between them."""
    n = draw(st.integers(2, 12))
    leaves = sorted_leaves(n)
    picks = draw(st.lists(st.integers(0, len(leaves) - 1), max_size=40, unique=True))
    return n, [leaves[i] for i in sorted(picks)]


@given(leaf_subsets())
def test_prefix_walk_on_any_sorted_subset_equals_the_reference(drawn):
    n, leaves = drawn
    rho = rho_doubled(n)
    walked = list(_prefix_walk(leaves))
    # the chains' text, after each pop back across a gap, is str of the lists
    assert [(leaf, text) for leaf, text, _ in walked] == [(p, str(ChainSet(p).to_lists())) for p in leaves]
    records = [_record_dict(_assemble(leaf, text, vals, rho, False)) for leaf, text, vals in walked]
    assert records == [as_walked(record_on_chain_sets(ChainSet(p))) for p in leaves]


@given(st.integers(2, 12).flatmap(lambda n: st.lists(st.integers(-3 * n, 3 * n), min_size=n, max_size=n)))
def test_inline_u_small_test_is_is_u_small(vals):
    # every scattered parameter to rank 16 is u-small, so the records never
    # reach the other answer; here any rows do, on the one-chain parameter
    n = len(vals)
    fields = _assemble(((2 * n - 1, n),), None, vals, rho_doubled(n), False)
    assert fields[-2] == is_u_small(tuple(2 * t for t in sorted(vals, reverse=True)))


def test_prefix_walk_resolves_each_linked_pair_once_per_prefix(monkeypatch):
    # the 1,024 rank-12 leaves have 1,812 distinct chain prefixes; the walk
    # resolves 1,756 linked pairs on them, where the rules run leaf by leaf
    # resolve 2,816.  At rank 16 the counts are 28,894 and 61,440
    calls = Counter()

    def counted(name, step):
        def wrapper(*args):
            calls[name] += 1
            return step(*args)

        return wrapper

    def in_canonical_order(vals, written, ci, cj):
        # chains are (top, bottom, length, ...), handed over as _rules does
        assert _canonical_key((ci[0], ci[2])) < _canonical_key((cj[0], cj[2]))
        return spin._step(vals, written, ci, cj)

    monkeypatch.setattr(scattered, "_step", counted("walk", in_canonical_order))
    assert len(list(_records(12))) == 1024
    monkeypatch.setattr(spin, "_step", counted("per leaf", spin._step))
    for pairs in tree_leaves(12):
        _rules(pairs)
    assert calls == {"walk": 1756, "per leaf": 2816}


def test_records_stream_without_the_branching_tree(monkeypatch):
    first = min(tree_leaves(16))

    def refuse(*args):
        raise AssertionError("enumerate's path builds the branching tree")

    monkeypatch.setattr(scattered, "_branch", refuse)
    pairs, fields = next(_records(16))
    assert pairs == first
    assert _record_dict(fields) == as_walked(record_on_chain_sets(ChainSet(first)))


def test_count_counts_the_search_without_the_branching_tree(monkeypatch):
    def refuse(*args):
        raise AssertionError("count builds the branching tree")

    monkeypatch.setattr(scattered, "_branch", refuse)
    monkeypatch.setattr(scattered, "expand", refuse)
    assert [count(n) for n in range(2, 13)] == [2 ** (n - 2) for n in range(2, 13)]
    with pytest.raises(ValueError):
        count(1)


def test_records_stream_in_a_fraction_of_the_sorted_leaves_memory():
    n = 14
    next(_records(4))  # first-call allocations stay outside the measurement
    tracemalloc.start()
    try:
        # the walk goes first, so the tree cannot find its tuples on free lists
        start = tracemalloc.get_traced_memory()[0]
        assert sum(1 for _ in _records(n)) == 2 ** (n - 2)
        walk = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        leaves = sorted(tree_leaves(n))
        tree = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(leaves) == 2 ** (n - 2)
    assert walk < tree / 4, (walk, tree)


def test_records_with_multiplicity_build_no_chain_set(chain_sets_built):
    sets = [ChainSet(pairs) for pairs in _interlaced_pairs(6)]
    assert chain_sets_built == sets and len(sets) == 16
    records = [build_record(cs, with_multiplicity=True) for cs in sets]
    assert [_record_dict(fields) for _, fields in _records(6, with_multiplicity=True)] == list(map(as_walked, records))
    assert chain_sets_built == sets  # the test's own 16, and no more


@pytest.mark.parametrize(
    "pairs, error",
    [
        (((5, 3), (3, 1)), OverlappingChainsError),  # {5,3,1} {3}
        (((7, 2), (3, 2), (3, 1)), OverlappingChainsError),  # {7,5} {3,1} {3}: not interlaced either
        (((5, 2),), ValueError),  # {5,3}: smallest entry 3
        (((10, 2), (9, 2), (6, 2), (5, 3)), ValueError),  # {10,8} {9,7} {6,4} {5,3,1}: not interlaced
    ],
    ids=["overlapping", "overlapping-and-not-interlaced", "smallest-entry-3", "not-interlaced"],
)
def test_record_rejects_what_build_record_rejects(pairs, error):
    # overlapping chains are refused when the ChainSet is built, before
    # build_record's own check can run
    with pytest.raises(ValueError) as raised:
        build_record(ChainSet(pairs))
    assert raised.type is error


def test_is_u_small_examples():
    two_rho = tuple(2 * r for r in rho_doubled(5))
    assert is_u_small(two_rho)
    tau = tuple(2 * x for x in (10, 9, 8, 7, 5, 5, 4, 3, 2))
    assert is_u_small(tau)
    bumped = (two_rho[0] + 2 * len(two_rho),) + two_rho[1:]
    assert not is_u_small(bumped)


def test_record_json_shape():
    rec = build_record(ChainSet.from_lists([[5, 3, 1], [4]]), with_multiplicity=True)
    payload = json.loads(json.dumps(rec))
    assert payload == {
        "n": 4,
        "chains": [[5, 3, 1], [4]],
        "lambda2_fund": [1, 1, 2],
        "s": [4, 2, 3, 1],
        "tau_fund": [2, 0, 1],
        "gamma": [7, 7, 7, 5],
        "u_small": True,
        "multiplicity": 1,
    }


def test_spherical_family_worked_cases():
    assert spherical_family(3, 2) == ChainSet.from_lists([[5, 3, 1], [4, 2]])
    assert to_fundamental(lambda_doubled(spherical_family(3, 2))) == (1, 1, 1, 1)
    assert spherical_family(5, 2) == ChainSet.from_lists([[9, 7, 5, 3, 1], [6, 4]])
    assert to_fundamental(lambda_doubled(spherical_family(5, 2))) == (2, 1, 1, 1, 1, 2)
    assert spherical_family(2, 1) == ChainSet.from_lists([[3, 1], [2]])
    assert to_fundamental(lambda_doubled(spherical_family(2, 1))) == (1, 1)


def test_spherical_family_validation():
    with pytest.raises(ValueError):
        spherical_family(2, 2)
    with pytest.raises(ValueError):
        spherical_family(3, 1)
    with pytest.raises(ValueError):
        spherical_family(1, 2)
