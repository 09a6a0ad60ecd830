import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinchains.chains import (
    Chain,
    ChainSet,
    OverlappingChainsError,
    _pairs_interlaced,
    canonical_order,
    extract_involution,
    involves_all_simple_reflections,
    is_interlaced,
    is_involution,
    is_linked,
    lambda_doubled,
)

EX22 = ChainSet.from_lists([[10, 8], [9, 7, 5, 3, 1], [6], [4]])


@st.composite
def chain_sets(draw):
    """Random disjoint chain sets, built greedily so no draw is rejected.

    A chain may take its top inside the span of an earlier chain, which
    links the two whenever they are disjoint; otherwise almost every draw
    of three or more chains would be disconnected.
    """
    chains = []
    used: set[int] = set()
    for _ in range(draw(st.integers(1, 7))):
        if chains and draw(st.booleans()):
            host = draw(st.sampled_from(chains))
            top = draw(st.integers(host.bottom, host.top))
        else:
            top = draw(st.integers(-20, 24))
        length = draw(st.integers(1, 7))
        c = Chain(top, length)
        entries = set(c.entries())
        if entries & used:
            continue
        used |= entries
        chains.append(c)
    if not chains:
        chains = [Chain(draw(st.integers(20, 40)) * 2 + 1, 1)]
    return ChainSet(tuple(chains))


@st.composite
def reordered_chain_sets(draw):
    """A chain set, and a ChainSet built from the same chains in a shuffled order."""
    cs = draw(chain_sets())
    return cs, ChainSet(tuple(draw(st.permutations(cs.chains))))


def test_entries():
    assert Chain(top=9, length=5).entries() == (9, 7, 5, 3, 1)
    assert Chain(top=4, length=1).entries() == (4,)
    assert Chain(top=3, length=2).entries() == (3, 1)


def test_chain_properties():
    c = Chain(top=10, length=2)
    assert c.bottom == 8 and c.avg == 9


def test_from_entries_validates():
    assert Chain.from_entries([5, 3, 1]) == Chain(5, 3)
    with pytest.raises(ValueError):
        Chain.from_entries([5, 2])
    with pytest.raises(ValueError):
        Chain.from_entries([])
    with pytest.raises(ValueError):
        Chain.from_entries([3.5, 1.5])


@given(reordered_chain_sets())
def test_chain_set_is_a_normal_form(pair):
    cs, shuffled = pair
    assert shuffled == cs and hash(shuffled) == hash(cs)
    tops = [c.top for c in shuffled.chains]
    assert all(a > b for a, b in zip(tops, tops[1:]))


def test_chain_set_rejects_overlap():
    with pytest.raises(OverlappingChainsError):
        ChainSet.from_lists([[5, 3, 1], [3]])


def test_is_linked_worked_pairs():
    assert is_linked(Chain(10, 2), Chain(9, 5))
    assert is_linked(Chain(6, 2), Chain(5, 3))
    assert not is_linked(Chain(10, 2), Chain(5, 3))


def test_is_linked_singleton_needs_strict_straddle():
    # {4} sits above the span of {3,1} without being straddled
    assert not is_linked(Chain(3, 2), Chain(4, 1))
    assert is_linked(Chain(3, 2), Chain(4, 2))


def test_is_linked_rejects_overlap():
    with pytest.raises(OverlappingChainsError):
        is_linked(Chain(5, 3), Chain(5, 1))


arbitrary_chains = st.builds(Chain, st.integers(-20, 24), st.integers(1, 7))


@given(arbitrary_chains, arbitrary_chains)
def test_is_linked_raises_exactly_on_shared_entries(a, b):
    if set(a.entries()) & set(b.entries()):
        with pytest.raises(OverlappingChainsError):
            is_linked(a, b)
    else:
        is_linked(a, b)


@given(chain_sets())
def test_is_linked_symmetric(cs):
    for i, a in enumerate(cs.chains):
        for b in cs.chains[i + 1 :]:
            assert is_linked(a, b) == is_linked(b, a)


def is_interlaced_by_linked_pairs(cs):
    """Connectivity of the graph whose edges are the is_linked pairs."""
    m = len(cs.chains)
    if m == 1:
        return True
    adj = [[] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if is_linked(cs.chains[i], cs.chains[j]):
                adj[i].append(j)
                adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for k in adj[stack.pop()]:
            if k not in seen:
                seen.add(k)
                stack.append(k)
    return len(seen) == m


@given(chain_sets())
def test_is_interlaced_matches_linked_pair_graph(cs):
    assert is_interlaced(cs) == is_interlaced_by_linked_pairs(cs)
    # two chains are connected iff linked
    for i, a in enumerate(cs.chains):
        for b in cs.chains[i + 1 :]:
            assert is_interlaced(ChainSet((a, b))) == is_linked(a, b)


@given(st.data())
def test_pairs_interlaced_ignores_input_order(data):
    cs = data.draw(chain_sets())
    pairs = data.draw(st.permutations([(c.top, c.length) for c in cs.chains]))
    assert _pairs_interlaced(pairs) == is_interlaced_by_linked_pairs(cs)


@given(chain_sets())
def test_interlaced_sets_have_no_double_gap(cs):
    entries = set(cs.all_entries())
    low, top = min(entries), max(entries)
    if any(v not in entries and v + 1 not in entries for v in range(low, top - 1)):
        assert not is_interlaced(cs)


def test_is_interlaced_examples():
    assert is_interlaced(ChainSet.from_lists([[9, 7, 5], [6, 4, 2], [3, 1]]))
    assert not is_interlaced(ChainSet.from_lists([[10, 8], [9, 7], [6, 4], [5, 3, 1]]))
    assert is_interlaced(ChainSet.from_lists([[5, 3, 1]]))


def test_canonical_order_worked_example():
    assert [c.entries() for c in canonical_order(EX22)] == [
        (10, 8),
        (6,),
        (9, 7, 5, 3, 1),
        (4,),
    ]


@given(chain_sets())
def test_canonical_order_is_strictly_ordered(cs):
    ordered = canonical_order(cs)
    for a, b in zip(ordered, ordered[1:]):
        assert a.avg > b.avg or (a.avg == b.avg and a.length < b.length)


def test_canonical_order_idempotent_and_ties():
    ordered = canonical_order(EX22)
    assert canonical_order(ChainSet(ordered)) == ordered
    # average 4 beats average 3 regardless of length
    cs = ChainSet.from_lists([[4, 2], [7, 5, 3, 1]])
    assert canonical_order(cs)[0] == Chain(7, 4)
    # equal averages: the shorter chain comes first
    cs = ChainSet.from_lists([[5, 3, 1], [4, 2]])
    assert canonical_order(cs)[0] == Chain(4, 2)


def test_lambda_doubled():
    assert lambda_doubled(EX22) == (10, 9, 8, 7, 6, 5, 4, 3, 1)
    assert lambda_doubled(ChainSet.from_lists([[3, 1]])) == (3, 1)
    assert lambda_doubled(ChainSet.from_lists([[5, 3, 1], [4, 2]])) == (5, 4, 3, 2, 1)


@given(chain_sets())
def test_lambda_doubled_strictly_decreasing(cs):
    lam = lambda_doubled(cs)
    assert all(a > b for a, b in zip(lam, lam[1:]))


def test_extract_involution_worked_example():
    assert extract_involution(EX22) == (3, 9, 1, 8, 5, 6, 7, 4, 2)


def test_extract_involution_single_chain_is_longest_element():
    assert extract_involution(ChainSet.from_lists([[5, 3, 1]])) == (3, 2, 1)


def test_extract_involution_rank_four_examples():
    assert extract_involution(ChainSet.from_lists([[5, 3, 1], [2]])) == (4, 2, 3, 1)
    assert extract_involution(ChainSet.from_lists([[3, 1], [4, 2]])) == (3, 4, 1, 2)


@given(chain_sets())
def test_extracted_permutation_is_always_an_involution(cs):
    assert is_involution(extract_involution(cs))


def test_involves_all_simple_reflections():
    assert involves_all_simple_reflections((3, 9, 1, 8, 5, 6, 7, 4, 2))
    assert not involves_all_simple_reflections((1, 2, 3))
    assert not involves_all_simple_reflections((2, 1, 4, 3))


def test_involves_all_simple_reflections_rejects_non_permutation():
    with pytest.raises(ValueError):
        involves_all_simple_reflections((1, 1, 2))


@given(chain_sets())
def test_interlacing_matches_involution_support(cs):
    assert is_interlaced(cs) == involves_all_simple_reflections(extract_involution(cs))


def test_json_round_trip():
    text = EX22.to_json()
    assert ChainSet.from_json(text) == EX22


def test_json_parse_errors():
    with pytest.raises(ValueError):
        ChainSet.from_json("not json")
    with pytest.raises(ValueError):
        ChainSet.from_json('{"wrong": []}')
    with pytest.raises(ValueError):
        ChainSet.from_json('{"chains": [[5, 2]]}')
    with pytest.raises(OverlappingChainsError):
        ChainSet.from_json('{"chains": [[5, 3], [3, 1]]}')
