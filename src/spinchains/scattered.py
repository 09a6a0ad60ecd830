"""Enumeration of scattered representation parameters of SL(n, C).

The scattered parameters of SL(n) are exactly the interlaced chain sets
with n entries whose smallest entry is 1.  They are generated from the
base parameter {3, 1} by a two-way branching on the largest odd entry M_o
and largest even entry M_e, giving 2^(n-2) parameters at rank n.  A
top-down search of that definition finds them independently, in record
order; `enumerate` prints it, so the search and the tree certify each other.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, compress, islice
from operator import add, attrgetter, le, sub

from .chains import ChainSet, _require_scattered, is_interlaced
from .lr import multiplicity_in_induced
from .spin import _step, spin_lowest_k_type
from .weights import Weight, fundamental_pairing_signs, rho_doubled


Pairs = tuple[tuple[int, int], ...]  # (top, length) of each chain, tops descending


def _branch(pairs: Pairs) -> tuple[Pairs, Pairs]:
    """The two interlaced children with one extra entry, on (top, length) pairs.

    The branch is decided by comparing the largest odd entry M_o (the entry
    1 guarantees an odd chain exists) against the largest even entry M_e:

      I   M_o > M_e + 1, or no even chain: grow the M_o chain upward, or
          add the new singleton {M_o - 1};
      II  M_o = M_e + 1: grow the M_o chain, or grow the M_e chain;
      III M_o = M_e - 1: grow the M_o chain, or grow the M_e chain;
      IV  M_o < M_e - 1: add the new singleton {M_e - 1}, or grow the
          M_e chain.
    """
    odd = next((i for i, (top, _) in enumerate(pairs) if top % 2), None)
    if odd is None:
        raise AssertionError("entry 1 always lies in an odd chain")
    even = next((i for i, (top, _) in enumerate(pairs) if top % 2 == 0), None)

    def grow(i: int) -> Pairs:
        top, length = pairs[i]
        return tuple(sorted(pairs[:i] + ((top + 2, length + 1),) + pairs[i + 1:], reverse=True))

    def add_singleton(entry: int) -> Pairs:
        return tuple(sorted(pairs + ((entry, 1),), reverse=True))

    mo = pairs[odd][0]
    me = None if even is None else pairs[even][0]
    if me is None or mo > me + 1:
        children = (grow(odd), add_singleton(mo - 1))
    elif mo == me + 1 or mo == me - 1:
        children = (grow(odd), grow(even))
    else:
        children = (add_singleton(me - 1), grow(even))
    for child in children:
        if not is_interlaced(child):
            raise AssertionError(f"expansion produced a non-interlaced set: {child}")
    return children


def expand(cs: ChainSet) -> tuple[ChainSet, ChainSet]:
    """The two interlaced children with one extra entry; the rule is `_branch`'s.
    A set that is not scattered raises ValueError, as in reduce."""
    _require_scattered(cs)
    return tuple(map(ChainSet, _branch(cs.chains)))


_BASE: Pairs = ((3, 2),)  # the parameter {3, 1}, the root of the branching tree


def _levels(root, branch):
    """The levels of the tree below root, depth 0 first, each in branching order."""
    level = [root]
    while True:
        yield level
        level = [child for node in level for child in branch(node)]


def generate(n: int) -> list[ChainSet]:
    """All interlaced chain sets with n entries and smallest entry 1.

    Leaves of the branching tree at depth n - 2, walked with expand, in
    ascending to_lists order: the record order of `spinchains enumerate`.
    They are sorted on their chains, (top, length) pairs, which gives the
    same order without building the entry lists.  Proof: the pairs and the
    entry lists both hold the chains by descending top, so it suffices that
    two chains' entry lists compare as their pairs do.  Lists with
    different tops compare by their tops.  Lists with equal tops agree as
    far as the shorter one goes, so the shorter is a prefix of the longer
    and sorts first, as its pair does.  Equal pairs mean equal chains.
    It holds the whole tree level; `count` and `enumerate` read the search.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return sorted(next(islice(_levels(ChainSet(_BASE), expand), n - 2, None)), key=attrgetter("chains"))


def count(n: int) -> int:
    """Number of scattered parameters of SL(n): the length of the stream
    `enumerate` prints, `_interlaced_pairs(n)`, in memory linear in n."""
    return sum(1 for _ in _interlaced_pairs(n))


def _unbranch(pairs: Pairs) -> Pairs:
    """The parent of an interlaced set, on (top, length) pairs: the inverse of `_branch`.

    Remove the largest entry M from its chain, unless a singleton chain
    {M - 1} exists, in which case remove that whole chain.
    """
    m, length = pairs[0]  # the chain holding the largest entry M
    if (m - 1, 1) in pairs:
        out = tuple(pair for pair in pairs if pair != (m - 1, 1))
    elif length == 1:
        raise AssertionError("an interlaced set cannot top out in an unlinked singleton")
    else:
        out = tuple(sorted(((m - 2, length - 1),) + pairs[1:], reverse=True))
    if not is_interlaced(out) or min(top - 2 * (length - 1) for top, length in out) != 1:
        raise AssertionError(f"reduction broke interlacing: {out}")
    return out


def reduce(cs: ChainSet) -> ChainSet:
    """The unique parent of an interlaced chain set, inverse of expand; the
    rule is `_unbranch`'s."""
    _require_scattered(cs)
    if cs.n <= 2:
        raise ValueError("the base parameter {3, 1} cannot be reduced")
    return ChainSet(_unbranch(cs.chains))


def _pair_decompositions(n: int):
    """Every disjoint chain decomposition with n entries and smallest entry
    1, interlaced or not, as pairs; the largest entry is at most 2n - 1, the
    bound of every interlaced one.  Searched as in `_interlaced_pairs`: a
    top is at least the entries still due, and room is kept for the entry 1."""
    if n < 2:
        raise ValueError("need n >= 2")
    chosen: list[tuple[int, int]] = []

    def grow(size: int, used: int, above: int):
        if size == n:
            yield tuple(chosen)
            return
        for top in range(n - size, above):
            bottom, length, mask = top, 0, used
            while bottom >= 1 and not mask >> bottom & 1 and size + length < n:
                mask |= 1 << bottom
                length += 1
                if mask & 2 or size + length < n:
                    chosen.append((top, length))
                    yield from grow(size + length, mask, top)
                    chosen.pop()
                bottom -= 2

    yield from grow(0, 0, 2 * n)


def _interlaced_pairs(n: int):
    """Every interlaced set of n entries with smallest entry 1, as pairs, in
    generate's order: chains are picked by descending top, the next one in
    ascending (top, length).  It cuts only partial sets no completion saves:
    - overlapping chains, or a bottom below 1;
    - a next top at most `low`, the lowest bottom so far: the sweep of
      `is_interlaced`, which lower tops cannot repair.  So a partial
      set that is not complete needs a free value between low and its
      lowest top;
    - too few entries left to fill [1, low).  Two consecutive values missing
      below the top split a set into blocks no chain (step 2) or link
      (straddling spans) crosses, so the entries climb from 1 in steps of 1
      or 2, at least ceil((low - 1) / 2) = low // 2 of them below low, and
      the next top above low is one more.  So a set of n entries has
      low = 1, and the first top is at most 2n - 1, as its bottom is at
      most 2(n - length) + 1.
    For 3 <= n <= 16 it visits 5 * 2^(n-3) - 1 partial sets, the empty one
    too.  `enumerate` prints what it yields and `count` counts it; verify's
    oracle line and the tests hold it to the sorted leaves of the branching
    tree.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    chosen: list[tuple[int, int]] = []

    def grow(size: int, used: int, tops: range, low: int):
        if size == n:
            yield tuple(chosen)
            return
        for top in tops:
            bottom, length, mask = top, 0, used
            while bottom >= 1 and not mask >> bottom & 1 and size + length < n:
                mask |= 1 << bottom
                length += 1
                floor, rem = min(low, bottom), n - size - length
                if (rem > floor // 2 and (~mask & ((1 << top) - 1)) >> (floor + 1)) if rem else floor == 1:
                    chosen.append((top, length))
                    yield from grow(size + length, mask, range(floor + 1, top), floor)
                    chosen.pop()
                bottom -= 2

    yield from grow(0, 0, range(1, 2 * n), 2 * n)


def brute_force_enumerate(n: int) -> list[ChainSet]:
    """`_interlaced_pairs(n)` as ChainSets, the search `enumerate` prints;
    it never calls expand or reduce, so it and `generate` certify each other."""
    return list(map(ChainSet, _interlaced_pairs(n)))


def is_u_small(tau: Weight) -> bool:
    """Unitarily small test: tau - 2*rho pairs non-positively with every
    fundamental coweight."""
    diff = tuple(t - 2 * r for t, r in zip(tau, rho_doubled(len(tau))))
    return all(x <= 0 for x in fundamental_pairing_signs(diff))


def build_record(cs: ChainSet, with_multiplicity: bool = False) -> dict:
    """The record of a scattered parameter, as the dict whose `json.dumps` is
    the line `enumerate` prints: `_record_dict` of the fields `_assemble`
    computes from its pairs and the rows of its spin_lowest_k_type run."""
    _require_scattered(cs)
    vals = [x for row in spin_lowest_k_type(cs).rows for x in row]
    return _record_dict(_assemble(cs.chains, cs.to_lists(), vals, rho_doubled(cs.n), with_multiplicity))


def _record_dict(fields: tuple) -> dict:
    """The record dict of `_assemble`'s fields: its lists are slices of the
    flat run of ints, whose lengths n - 1, n, n - 1 and n follow from n."""
    n = fields[0]
    return {
        "n": n,
        "chains": fields[1],
        "lambda2_fund": list(fields[2:n + 1]),
        "s": list(fields[n + 1:2 * n + 1]),
        "tau_fund": list(fields[2 * n + 1:3 * n]),
        "gamma": list(fields[3 * n:4 * n]),
        "u_small": fields[-2],
        "multiplicity": fields[-1],
    }


@lru_cache(maxsize=1024)
def _u_small_bounds(n: int, total: int) -> tuple[int, ...]:
    """The bounds of `_assemble`'s u-small test at rank n for a tau (standard
    scale, descending) of sum total: the partial sums of rho_doubled(n)
    plus floor(i * total / n).  is_u_small(2 tau) asks n * S_i - i * S_n <= 0
    of the partial sums S_i of tau - rho, that is S_i <= floor(i * S_n / n),
    and S_n = total, as rho sums to 0.  At rank 16, tau takes 116 sums."""
    return tuple(r + i * total // n for i, r in enumerate(accumulate(rho_doubled(n)), 1))


def _assemble(pairs: Pairs, chains, vals: list[int], rho: Weight, with_multiplicity: bool) -> tuple:
    """The fields of a scattered parameter's record as one flat tuple, in the
    order its line prints them: n, chains, the ints of lambda2_fund, s,
    tau_fund and gamma, then u_small and multiplicity.  pairs are its
    (top, length) pairs by descending top; chains is passed through, any
    value whose str is the chains' JSON (the walk's text, build_record's
    lists); vals holds the rows its rules left (standard scale, any order);
    rho is rho_doubled(n), made once per rank by the caller.  The one place
    the record's fields are computed: the line `enumerate --json` prints,
    its table row and build_record's dict (`_record_dict`) read this tuple.

    mirror[e] is the entry that takes e's slot when e's chain is flipped,
    0 where e is no entry: one assignment per chain, a range read off its
    pair (an item for a singleton).  Read backwards it gives the entries in
    descending order, and the involution sends each entry's rank to its
    mirror's, the rule of chains.extract_involution.  The u-small test is
    inline, against `_u_small_bounds`.  With with_multiplicity,
    multiplicity_in_induced runs on the pairs.
    """
    mirror = [0] * (pairs[0][0] + 1)
    for top, length in pairs:
        if length == 1:
            mirror[top] = top
        else:
            mirror[top - 2 * length + 2:top + 1:2] = range(top, top - 2 * length, -2)
    entries = list(compress(range(len(mirror) - 1, 0, -1), reversed(mirror)))
    n = len(entries)
    rank = dict(zip(entries, range(1, n + 1)))
    tau = sorted(vals, reverse=True)
    return (
        n,
        chains,
        *map(sub, entries, entries[1:]),  # lambda2_fund
        *map(rank.__getitem__, filter(None, reversed(mirror))),  # s
        *map(sub, tau, tau[1:]),  # tau_fund
        *sorted(map(sub, map(add, tau, tau), rho), reverse=True),  # gamma = 2 tau - rho
        all(map(le, accumulate(tau), _u_small_bounds(n, sum(tau)))),  # u_small
        multiplicity_in_induced(pairs, tuple(2 * t for t in tau)) if with_multiplicity else None,
    )


def _prefix_walk(leaves):
    """(leaf, text, vals) for each scattered leaf, in the order given, from
    one walk of the leaves as a trie of chain prefixes: its pairs, the str
    of its entry lists (`ChainSet.to_lists`), which its line prints, and its
    rows as one flat list in the leaf's chain order.  Later leaves share
    the rows, so treat them as read-only.

    Each leaf lists its chains by descending top, and sorted leaves share
    prefixes with their neighbours.  The walk keeps a stack with the state
    after each chain of the current prefix: the rows as one flat list of
    values, the write-once flags of `spin._step`, the chains' text, and
    the prefix's chain with the lowest bottom.  On each leaf it pops back
    to the prefix shared with the previous leaf and pushes only the new
    chains, each with its text, made once per walk and pair.  A pushed
    chain lies below all earlier tops, so it links at most one earlier
    chain (the proof is `chains.is_interlaced`'s): the lowest-bottom one,
    when its top lies above that bottom.  One `_step`
    resolves the pair; the new chain comes later in canonical order exactly
    when its average is smaller: of two chains with equal averages, the one
    with the lower top is the shorter, which comes first.  Every slot of a
    scattered parameter is written at most once, so the rows do not depend
    on the order the linked pairs are resolved in; a verify line checks it.
    """
    states = [([], [], "", None)]  # (vals, written, text, low) after each chain of the prefix
    pieces = {}  # str of each pair's entry list
    prev: Pairs = ()
    for leaf in leaves:
        shared = 0
        for a, b in zip(prev, leaf):
            if a != b:
                break
            shared += 1
        del states[shared + 1:]
        vals, written, text, low = states[-1]
        for pair in leaf[shared:]:
            top, length = pair
            avg = top - length + 1
            c = (top, top - 2 * (length - 1), length, avg, len(vals), len(states) - 1)
            vals = vals + [avg] * length
            written = written + [False] * length
            if low is not None and top > low[1]:
                if low[3] > avg:
                    _step(vals, written, low, c)
                else:
                    _step(vals, written, c, low)
            piece = pieces.get(pair)
            if piece is None:
                piece = pieces[pair] = str(list(range(top, c[1] - 1, -2)))
            text = f"[{piece}]" if low is None else f"{text[:-1]}, {piece}]"
            if low is None or c[1] < low[1]:
                low = c
            states.append((vals, written, text, low))
        prev = leaf
        yield leaf, text, vals


def _records(n: int, with_multiplicity: bool = False):
    """(pairs, fields) of each parameter of generate(n), in that order, one
    at a time: `_assemble`'s fields, the walk's text as chains, from
    `_prefix_walk` over `_interlaced_pairs(n)`, in memory linear in n."""
    rho = rho_doubled(n)
    for leaf, text, vals in _prefix_walk(_interlaced_pairs(n)):
        yield leaf, _assemble(leaf, text, vals, rho, with_multiplicity)


def spherical_family(a: int, b: int) -> ChainSet:
    """The two-chain parameter with trivial lowest K-type.

    One chain {2a-1, ..., 3, 1} of length a and one chain of length b
    centred at the same average a; requires a > b > 0 with a + b odd.
    Its doubled fundamental coefficients follow the pattern
    [2, ..., 2, 1, ..., 1, 2, ..., 2] with (a-b-1)/2 twos on each side of
    2b ones.
    """
    if not a > b > 0:
        raise ValueError("need a > b > 0")
    if (a + b) % 2 == 0:
        raise ValueError("need a + b odd")
    return ChainSet(((2 * a - 1, a), (a + b - 1, b)))
