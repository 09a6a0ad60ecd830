"""Chains, chain sets, linking, and the involution a chain set carries.

A chain {c, c-2, ..., c-2k} is a strictly decreasing arithmetic sequence
with step -2.  Its entries are the doubled coordinates of the infinitesimal
character lambda of a one-dimensional (det-power) parameter of a GL factor.
A disjoint union of chains encodes the Zhelobenko parameter (lambda, -s.lambda)
of an irreducible unitary module of GL(n, C) with regular half-integral
infinitesimal character; the involution s can be read off by flipping each
chain in place.

A ChainSet iterates over its chains, so is_interlaced, canonical_order,
lambda_doubled and extract_involution, like spin.lowest_k_type,
lr.multiplicity_in_induced and verify.spin_minimal_candidates, take a
ChainSet or the same chains as disjoint (top, length) pairs in any order.
Pairs get no overlap check.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Iterable
from dataclasses import dataclass

from .weights import Weight


class OverlappingChainsError(ValueError):
    """Two chains of one parameter share an entry."""


class Chain(namedtuple("Chain", "top length")):
    """Arithmetic sequence top, top-2, ..., top-2*(length-1), stored by
    endpoints: it is its (top, length) pair, and compares and hashes as one."""

    __slots__ = ()

    def __new__(cls, top: int, length: int):
        if length < 1:
            raise ValueError("chain length must be positive")
        return super().__new__(cls, top, length)

    @property
    def bottom(self) -> int:
        return self.top - 2 * (self.length - 1)

    @property
    def avg(self) -> int:
        """Average of the entries; always an integer."""
        return self.top - (self.length - 1)

    def entries(self) -> tuple[int, ...]:
        return tuple(range(self.top, self.top - 2 * self.length, -2))

    @classmethod
    def from_entries(cls, seq) -> "Chain":
        try:
            seq = tuple(seq)
        except TypeError:
            raise ValueError(f"chain must be a sequence of integers: {seq!r}") from None
        if not seq:
            raise ValueError("chain needs at least one entry")
        if any(not isinstance(x, int) or isinstance(x, bool) for x in seq):
            raise ValueError(f"chain entries must be integers: {seq!r}")
        for a, b in zip(seq, seq[1:]):
            if a - b != 2:
                raise ValueError(f"not a descending step-2 sequence: {seq!r}")
        return cls(top=seq[0], length=len(seq))


@dataclass(frozen=True)
class ChainSet:
    """Disjoint union of chains, stored by descending top.

    The chains may be given as Chains or as plain (top, length) pairs, in
    any order; each is built through Chain's check, and overlap is reported
    in the order given.  Disjoint chains have distinct tops, so the stored
    order is a normal form: two ChainSets are equal, and hash alike, exactly
    when they hold the same chains.
    """

    chains: tuple[Chain, ...]

    def __post_init__(self):
        if not self.chains:
            raise ValueError("chain set needs at least one chain")
        chains = [Chain(*c) for c in self.chains]
        seen = set()
        for c in chains:
            for e in c.entries():
                if e in seen:
                    raise OverlappingChainsError(f"entry {e} appears in two chains")
                seen.add(e)
        object.__setattr__(self, "chains", tuple(sorted(chains, reverse=True)))

    def __iter__(self):
        return iter(self.chains)

    @property
    def n(self) -> int:
        return sum(c.length for c in self.chains)

    def min_entry(self) -> int:
        return min(c.bottom for c in self.chains)

    def to_lists(self) -> list[list[int]]:
        return [list(c.entries()) for c in self.chains]

    @classmethod
    def from_lists(cls, lists) -> "ChainSet":
        if not isinstance(lists, (list, tuple)) or not lists:
            raise ValueError("expected a non-empty list of chains")
        return cls(tuple(Chain.from_entries(seq) for seq in lists))

    @classmethod
    def from_json(cls, text: str) -> "ChainSet":
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # nesting too deep to parse
            raise ValueError(f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict) or "chains" not in data:
            raise ValueError('expected an object of the form {"chains": [[...], ...]}')
        return cls.from_lists(data["chains"])

    def to_json(self) -> str:
        return json.dumps({"chains": self.to_lists()})


def is_linked(c1: Chain, c2: Chain) -> bool:
    """Whether the spans of two disjoint chains straddle each other.

    Writing c1 = {A, ..., a} and c2 = {B, ..., b}, linked means
    A > B > a or B > A > b.  Linked chains always have opposite parity.
    Two step-2 chains share an entry exactly when they have the same parity
    and their spans [a, A] and [b, B] meet; such a pair raises
    OverlappingChainsError.
    """
    if (c1.top - c2.top) % 2 == 0 and c1.bottom <= c2.top and c2.bottom <= c1.top:
        raise OverlappingChainsError("linked is only defined for disjoint chains")
    return c1.top > c2.top > c1.bottom or c2.top > c1.top > c2.bottom


def is_interlaced(cs: Iterable[tuple[int, int]]) -> bool:
    """Whether the linkage graph on the chains is connected.

    A single chain counts as interlaced; no chain raises ValueError.  One
    sweep by descending top decides it: the set is interlaced iff each next
    top lies strictly above the lowest bottom seen so far.

    Proof.  Take chain i before chain j in that order, so T_i > T_j.  They
    are linked iff T_j > b_i, since T_j > T_i is impossible.  Chain j links
    at most one earlier chain: two earlier chains that both link it have
    tops above T_j and the parity opposite to j's, so the same parity, and
    both spans contain T_j, so they meet; two step-2 chains of the same
    parity whose spans meet share an entry (`is_linked`), which
    disjointness forbids.  So chain j links an earlier chain exactly when
    T_j lies above the lowest bottom so far, and then it links the chain
    with that bottom.  If T_{k+1} <= min_{i<=k} b_i, every later top is
    lower still, so no later chain links any of the first k chains and the
    graph is disconnected.  Otherwise each chain links exactly one earlier
    one, and the graph is a tree, with k - 1 links for k chains.  In any
    case the graph is a forest.
    """
    spans = iter(sorted(cs, reverse=True))
    first = next(spans, None)
    if first is None:
        raise ValueError("chain set needs at least one chain")
    top, length = first
    low = top - 2 * (length - 1)
    for top, length in spans:
        if top <= low:
            return False
        bottom = top - 2 * (length - 1)
        if bottom < low:
            low = bottom
    return True


def _require_scattered(cs: ChainSet) -> None:
    """Raise ValueError unless cs is a scattered parameter: interlaced
    chains with smallest entry 1."""
    if cs.min_entry() != 1 or not is_interlaced(cs):
        raise ValueError("not a scattered parameter: need interlaced chains with smallest entry 1")


def _canonical_key(pair: tuple[int, int]) -> tuple[int, int]:
    """canonical_order's sort key on a chain's (top, length): (-avg, length)."""
    top, length = pair
    return length - 1 - top, length


def canonical_order(cs: Iterable[tuple[int, int]]) -> tuple:
    """The chains with averages strictly decreasing, shorter first on ties.

    Pairs come back as they were given.  The order is total: equal average
    and equal length would force two identical chains, which disjointness
    already rules out.
    """
    return tuple(sorted(cs, key=_canonical_key))


def lambda_doubled(cs: Iterable[tuple[int, int]]) -> Weight:
    """The infinitesimal character lambda in doubled coordinates.

    The entries of the chains are exactly the doubled coordinates of
    lambda; sorted descending, they are its dominant representative.
    """
    out = []
    for top, length in cs:
        out += range(top, top - 2 * length, -2)
    out.sort(reverse=True)
    return tuple(out)


def extract_involution(cs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """One-line notation of the involution s encoded by the chains.

    Label the entries 1..n in descending order, flip each chain front to
    back, and read the labels now sitting in the original slots.
    """
    chains = [range(top, top - 2 * length, -2) for top, length in cs]
    rank = {e: i for i, e in enumerate(sorted((e for chain in chains for e in chain), reverse=True))}
    s = [0] * len(rank)
    for chain in chains:
        for e, flipped in zip(chain, reversed(chain)):
            s[rank[e]] = rank[flipped] + 1
    return tuple(s)


def is_involution(perm: tuple[int, ...]) -> bool:
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        return False
    return all(perm[perm[i] - 1] == i + 1 for i in range(n))


def involves_all_simple_reflections(perm: tuple[int, ...]) -> bool:
    """Whether no proper prefix {1..a} is mapped to itself.

    A permutation stabilising {1..a} lies in S_a x S_{n-a} and misses the
    a-th simple reflection in every reduced expression, and conversely.
    """
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..n")
    running_max = 0
    for a in range(1, n):
        if perm[a - 1] > running_max:
            running_max = perm[a - 1]
        if running_max == a:
            return False
    return True
