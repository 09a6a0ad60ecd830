"""Enumeration of scattered representation parameters of SL(n, C).

The scattered parameters of SL(n) are exactly the interlaced chain sets
with n entries whose smallest entry is 1.  They are generated from the
base parameter {3, 1} by a two-way branching on the largest odd entry M_o
and largest even entry M_e, giving 2^(n-2) parameters at rank n.  An
independent brute-force search confirms the enumeration at desk scale: two
consecutive values missing below the top split a set into blocks that no
chain or link crosses, so the entries of an interlaced set climb from 1 in
steps of 1 or 2, and the search walks those 2^(n-1) entry sets and every
chain decomposition of each.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations, product

from .chains import (
    Chain,
    ChainSet,
    OverlappingChainsError,
    _flip,
    _pairs_interlaced,
    extract_involution,
    is_interlaced,
)
from .lr import multiplicity_in_induced
from .spin import _pairs_tau, spin_lowest_k_type
from .weights import (
    Weight,
    fundamental_pairing_signs,
    rho_doubled,
    to_fundamental,
)


Pairs = tuple[tuple[int, int], ...]  # (top, length) of each chain, tops descending


def _pairs(cs: ChainSet) -> Pairs:
    return tuple((c.top, c.length) for c in cs.chains)


def _chain_set(pairs) -> ChainSet:
    return ChainSet(tuple(Chain(top, length) for top, length in pairs))


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
    if even is None:
        children = (grow(odd), add_singleton(mo - 1))
    else:
        me = pairs[even][0]
        if mo > me + 1:
            children = (grow(odd), add_singleton(mo - 1))
        elif mo == me + 1 or mo == me - 1:
            children = (grow(odd), grow(even))
        else:
            children = (add_singleton(me - 1), grow(even))
    for child in children:
        if not _pairs_interlaced(child):
            raise AssertionError(f"expansion produced a non-interlaced set: {child}")
    return children


def expand(cs: ChainSet) -> tuple[ChainSet, ChainSet]:
    """The two interlaced children with one extra entry; the rule is `_branch`'s."""
    if cs.min_entry() != 1:
        raise ValueError("expand needs smallest entry 1")
    # a child shares all but one chain with cs; reusing those Chains keeps
    # generate as fast as building each child from cs directly
    kept = {(c.top, c.length): c for c in cs.chains}
    return tuple(ChainSet(tuple(kept.get(pair) or Chain(*pair) for pair in child)) for child in _branch(_pairs(cs)))


_BASE: Pairs = ((3, 2),)  # the parameter {3, 1}, the root of the branching tree


def _walk(n: int, root, branch) -> list:
    """The nodes at depth n - 2 below root, in branching order."""
    if n < 2:
        raise ValueError("need n >= 2")
    level = [root]
    for _ in range(n - 2):
        level = [child for node in level for child in branch(node)]
    return level


def _leaves(n: int) -> list[Pairs]:
    """Leaves of the branching tree at depth n - 2, as pairs, in branching order."""
    return _walk(n, _BASE, _branch)


def generate(n: int) -> list[ChainSet]:
    """All interlaced chain sets with n entries and smallest entry 1.

    Leaves of the branching tree at depth n - 2, walked with expand, in
    ascending to_lists order: the record order of `spinchains enumerate`.
    They are sorted on their tuples of (top, length) pairs, which gives the
    same order without building the entry lists.  Proof: the pairs and the
    entry lists both hold the chains by descending top, so it suffices that
    two chains' entry lists compare as their pairs do.  Lists with
    different tops compare by their tops.  Lists with equal tops agree as
    far as the shorter one goes, so the shorter is a prefix of the longer
    and sorts first, as its pair does.  Equal pairs mean equal chains.
    """
    return sorted(_walk(n, _chain_set(_BASE), expand), key=_pairs)


def count(n: int) -> int:
    """Number of distinct scattered parameters of SL(n)."""
    return len(set(_leaves(n)))


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
    if not _pairs_interlaced(out) or min(top - 2 * (length - 1) for top, length in out) != 1:
        raise AssertionError(f"reduction broke interlacing: {out}")
    return out


def reduce(cs: ChainSet) -> ChainSet:
    """The unique parent of an interlaced chain set, inverse of expand; the
    rule is `_unbranch`'s."""
    if cs.min_entry() != 1 or not is_interlaced(cs):
        raise ValueError("reduce needs an interlaced set with smallest entry 1")
    if cs.n <= 2:
        raise ValueError("the base parameter {3, 1} cannot be reduced")
    return _chain_set(_unbranch(_pairs(cs)))


def _run_cuttings(run: tuple[int, ...]):
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


def _decompositions(entries: tuple[int, ...]):
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
    for cuttings in product(*map(_run_cuttings, runs)):
        yield sum(cuttings, ())


def _pair_decompositions(n: int, max_entry: int | None = None):
    """`all_chain_decompositions(n, max_entry)`, each as its (top, length) pairs."""
    if n < 2:
        raise ValueError("need n >= 2")
    if max_entry is None:
        max_entry = 2 * n - 1
    for rest in combinations(range(2, max_entry + 1), n - 1):
        yield from _decompositions((1,) + rest)


def all_chain_decompositions(n: int, max_entry: int | None = None):
    """Every disjoint chain decomposition with n entries and smallest entry 1.

    No interlacing requirement; used to probe both directions of the
    correspondence between interlacing and the extracted involution.
    """
    yield from map(_chain_set, _pair_decompositions(n, max_entry))


def brute_force_enumerate(n: int) -> list[ChainSet]:
    """Independent oracle: exhaust the chain decompositions of gap-free entry sets.

    Two consecutive values missing below the top split the entries into
    blocks that no chain (step 2) or link (straddling spans) can cross, so
    the entries of an interlaced set with smallest entry 1 climb in steps
    of 1 or 2.  The search walks all 2^(n-1) such step sequences, splits
    each entry set into descending step-2 chains in every way, and keeps
    the interlaced ones; it never calls expand or reduce.  Candidates stay
    (top, length) pairs until they pass the interlacing test: building a
    ChainSet per candidate makes the oracle several times slower.  Returns
    them in the order of generate.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    found = []
    for steps in product((1, 2), repeat=n - 1):
        found.extend(
            _chain_set(pairs)
            for pairs in _decompositions(tuple(accumulate(steps, initial=1)))
            if _pairs_interlaced(pairs)
        )
    return sorted(found, key=_pairs)


def is_u_small(tau: Weight) -> bool:
    """Unitarily small test: tau - 2*rho pairs non-positively with every
    fundamental coweight."""
    diff = tuple(t - 2 * r for t, r in zip(tau, rho_doubled(len(tau))))
    return all(x <= 0 for x in fundamental_pairing_signs(diff))


@dataclass(frozen=True)
class ScatteredRecord:
    """Full report for one scattered representation."""

    n: int
    chains: ChainSet
    lambda2_fund: tuple[int, ...]  # fundamental coefficients of 2*lambda
    s: tuple[int, ...]  # involution, one-line notation
    tau_fund: tuple[int, ...]  # fundamental coefficients of tau (integral)
    gamma: Weight  # {tau - rho}, doubled
    u_small: bool
    multiplicity: int | None = None

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "chains": self.chains.to_lists(),
            "lambda2_fund": list(self.lambda2_fund),
            "s": list(self.s),
            "tau_fund": list(self.tau_fund),
            "gamma": list(self.gamma),
            "u_small": self.u_small,
            "multiplicity": self.multiplicity,
        }


def build_record(cs: ChainSet, with_multiplicity: bool = False) -> ScatteredRecord:
    """Assemble the per-representation report for a scattered parameter."""
    if cs.min_entry() != 1 or not is_interlaced(cs):
        raise ValueError("not a scattered parameter: need interlaced chains with smallest entry 1")
    res = spin_lowest_k_type(cs)
    tau_std = tuple(x // 2 for x in res.tau)
    mult = multiplicity_in_induced(cs, res.tau) if with_multiplicity else None
    return ScatteredRecord(
        n=cs.n,
        chains=cs,
        lambda2_fund=tuple(x // 2 for x in to_fundamental(res.lambda2)),
        s=extract_involution(cs),
        tau_fund=to_fundamental(tau_std),
        gamma=res.gamma,
        u_small=is_u_small(res.tau),
        multiplicity=mult,
    )


def _record(pairs: Pairs, rho: Weight, with_multiplicity: bool = False) -> dict:
    """build_record(cs, with_multiplicity).as_dict() for cs given as its pairs.

    rho is rho_doubled(n), made once per rank by the caller.  The entries
    are listed and sorted once; their ranks give the involution (through
    chains._flip, the rule behind _pairs_involution) and show that the
    chains are disjoint.  A ChainSet is built only for
    multiplicity_in_induced.
    """
    chains = [list(range(top, top - 2 * length, -2)) for top, length in pairs]
    entries = sorted((e for chain in chains for e in chain), reverse=True)
    rank = {e: i for i, e in enumerate(entries)}
    if len(rank) < len(entries):
        raise OverlappingChainsError(f"two chains share an entry: {chains}")
    if entries[-1] != 1 or not _pairs_interlaced(pairs):
        raise ValueError("not a scattered parameter: need interlaced chains with smallest entry 1")
    tau = _pairs_tau(pairs)
    u_small = all(x <= 0 for x in fundamental_pairing_signs([t - 2 * r for t, r in zip(tau, rho)]))
    mult = multiplicity_in_induced(_chain_set(pairs), tuple(tau)) if with_multiplicity else None
    return {
        "n": len(entries),
        "chains": chains,
        "lambda2_fund": [a - b for a, b in zip(entries, entries[1:])],
        "s": _flip(chains, rank),
        "tau_fund": [(a - b) // 2 for a, b in zip(tau, tau[1:])],
        "gamma": sorted((t - r for t, r in zip(tau, rho)), reverse=True),
        "u_small": u_small,
        "multiplicity": mult,
    }


def _records(n: int, with_multiplicity: bool = False):
    """The pair path: build_record(cs, with_multiplicity).as_dict() for each
    cs of generate(n), in that order, one at a time.  build_record is its
    test oracle."""
    rho = rho_doubled(n)
    for pairs in sorted(_leaves(n)):
        yield _record(pairs, rho, with_multiplicity)


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
    return ChainSet((Chain(2 * a - 1, a), Chain(a + b - 1, b)))
