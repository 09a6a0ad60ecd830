"""Chains, chain sets, linking, and the involution a chain set carries.

A chain {c, c-2, ..., c-2k} is a strictly decreasing arithmetic sequence
with step -2.  Its entries are the doubled coordinates of the infinitesimal
character lambda of a one-dimensional (det-power) parameter of a GL factor.
A disjoint union of chains encodes the Zhelobenko parameter (lambda, -s.lambda)
of an irreducible unitary module of GL(n, C) with regular half-integral
infinitesimal character; the involution s can be read off by flipping each
chain in place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import attrgetter

from .weights import Weight, dominant


class OverlappingChainsError(ValueError):
    """Two chains of one parameter share an entry."""


@dataclass(frozen=True)
class Chain:
    """Arithmetic sequence top, top-2, ..., top-2*(length-1), stored by endpoints."""

    top: int
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("chain length must be positive")

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

    Disjoint chains have distinct tops, so the stored order is a normal
    form: two ChainSets are equal, and hash alike, exactly when they hold
    the same chains.
    """

    chains: tuple[Chain, ...]

    def __post_init__(self):
        if not self.chains:
            raise ValueError("chain set needs at least one chain")
        seen = set()
        for c in self.chains:
            for e in c.entries():
                if e in seen:
                    raise OverlappingChainsError(f"entry {e} appears in two chains")
                seen.add(e)
        object.__setattr__(self, "chains", tuple(sorted(self.chains, key=attrgetter("top"), reverse=True)))

    @property
    def n(self) -> int:
        return sum(c.length for c in self.chains)

    def all_entries(self) -> tuple[int, ...]:
        """Every entry of every chain, sorted descending."""
        out = []
        for c in self.chains:
            out.extend(c.entries())
        return tuple(sorted(out, reverse=True))

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
        except json.JSONDecodeError as exc:
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


def _pairs_interlaced(pairs) -> bool:
    """Whether the linkage graph on (top, length) pairs is connected.

    The pairs must describe disjoint chains, in any order; a single chain
    counts as interlaced.  One sweep by descending top decides it: the set
    is interlaced iff each next top lies strictly above the lowest bottom
    seen so far.

    Proof.  Take chain i before chain j in that order, so T_i > T_j.  They
    are linked iff T_j > b_i, since T_j > T_i is impossible.  If
    T_{k+1} <= min_{i<=k} b_i, every later top is lower still, so no later
    chain links any of the first k chains and the graph is disconnected.
    Otherwise each chain links an earlier one, and the graph is connected
    by induction.
    """
    spans = iter(sorted(pairs, reverse=True))
    top, length = next(spans)
    low = top - 2 * (length - 1)
    for top, length in spans:
        if top <= low:
            return False
        bottom = top - 2 * (length - 1)
        if bottom < low:
            low = bottom
    return True


def is_interlaced(cs: ChainSet) -> bool:
    """Whether the linkage graph on the chains is connected.

    A single chain counts as interlaced.  The chains of a ChainSet are
    disjoint by construction, so no overlap check is repeated here.
    """
    return _pairs_interlaced([(c.top, c.length) for c in cs.chains])


def canonical_order(cs: ChainSet) -> tuple[Chain, ...]:
    """The chains with averages strictly decreasing, shorter first on ties.

    The order is total: equal average and equal length would force two
    identical chains, which disjointness already rules out.
    """
    return tuple(sorted(cs.chains, key=lambda c: (-c.avg, c.length)))


def lambda_doubled(cs: ChainSet) -> Weight:
    """The infinitesimal character lambda in doubled coordinates.

    The entries of the chains are exactly the doubled coordinates of lambda;
    collecting and sorting them gives the dominant representative.
    """
    return dominant(cs.all_entries())


def extract_involution(cs: ChainSet) -> tuple[int, ...]:
    """One-line notation of the involution s encoded by the chain set.

    Label the entries 1..n in descending order, flip each chain front to
    back, and read the labels now sitting in the original slots.
    """
    entries = cs.all_entries()
    rank = {e: i + 1 for i, e in enumerate(entries)}
    s = [0] * len(entries)
    for c in cs.chains:
        es = c.entries()
        for e, flipped in zip(es, reversed(es)):
            s[rank[e] - 1] = rank[flipped]
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
        running_max = max(running_max, perm[a - 1])
        if running_max == a:
            return False
    return True
