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
    _pairs_interlaced,
    extract_involution,
    is_interlaced,
    lambda_doubled,
)
from .lr import multiplicity_in_induced
from .spin import spin_lowest_k_type
from .weights import (
    Weight,
    fundamental_pairing_signs,
    rho_doubled,
    to_fundamental,
)


def _prepend(cs: ChainSet, target: Chain) -> ChainSet:
    grown = Chain(target.top + 2, target.length + 1)
    return ChainSet(tuple(grown if c == target else c for c in cs.chains))


def _add_singleton(cs: ChainSet, entry: int) -> ChainSet:
    return ChainSet(cs.chains + (Chain(entry, 1),))


def expand(cs: ChainSet) -> tuple[ChainSet, ChainSet]:
    """The two interlaced children with one extra entry.

    The branch is decided by comparing the largest odd entry M_o (the entry
    1 guarantees an odd chain exists) against the largest even entry M_e:

      I   M_o > M_e + 1, or no even chain: grow the M_o chain upward, or
          add the new singleton {M_o - 1};
      II  M_o = M_e + 1: grow the M_o chain, or grow the M_e chain;
      III M_o = M_e - 1: grow the M_o chain, or grow the M_e chain;
      IV  M_o < M_e - 1: add the new singleton {M_e - 1}, or grow the
          M_e chain.
    """
    if cs.min_entry() != 1:
        raise ValueError("expand needs smallest entry 1")
    odd = [c for c in cs.chains if c.top % 2 == 1]
    even = [c for c in cs.chains if c.top % 2 == 0]
    if not odd:
        raise AssertionError("entry 1 always lies in an odd chain")
    co = odd[0]  # chains are stored by descending top
    if not even:
        children = (_prepend(cs, co), _add_singleton(cs, co.top - 1))
    else:
        ce = even[0]
        mo, me = co.top, ce.top
        if mo > me + 1:
            children = (_prepend(cs, co), _add_singleton(cs, mo - 1))
        elif mo == me + 1 or mo == me - 1:
            children = (_prepend(cs, co), _prepend(cs, ce))
        else:
            children = (_add_singleton(cs, me - 1), _prepend(cs, ce))
    for child in children:
        if not is_interlaced(child):
            raise AssertionError(f"expansion produced a non-interlaced set: {child.to_lists()}")
    return children


def _leaves(n: int) -> list[ChainSet]:
    """Leaves of the branching tree at depth n - 2, in branching order."""
    if n < 2:
        raise ValueError("need n >= 2")
    level = [ChainSet((Chain(3, 2),))]
    for _ in range(n - 2):
        level = [child for cs in level for child in expand(cs)]
    return level


def generate(n: int) -> list[ChainSet]:
    """All interlaced chain sets with n entries and smallest entry 1.

    Leaves of the branching tree at depth n - 2, in ascending to_lists
    order: the record order of `spinchains enumerate`.
    """
    return sorted(_leaves(n), key=ChainSet.to_lists)


def count(n: int) -> int:
    """Number of distinct scattered parameters of SL(n)."""
    return len(set(_leaves(n)))


def reduce(cs: ChainSet) -> ChainSet:
    """The unique parent of an interlaced chain set, inverse of expand.

    Remove the largest entry M from its chain, unless a singleton chain
    {M - 1} exists, in which case remove that whole chain.
    """
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


def all_chain_decompositions(n: int, max_entry: int | None = None):
    """Every disjoint chain decomposition with n entries and smallest entry 1.

    No interlacing requirement; used to probe both directions of the
    correspondence between interlacing and the extracted involution.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if max_entry is None:
        max_entry = 2 * n - 1
    for rest in combinations(range(2, max_entry + 1), n - 1):
        for pairs in _decompositions((1,) + rest):
            yield ChainSet(tuple(Chain(top, length) for top, length in pairs))


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
            ChainSet(tuple(Chain(top, length) for top, length in pairs))
            for pairs in _decompositions(tuple(accumulate(steps, initial=1)))
            if _pairs_interlaced(pairs)
        )
    return sorted(found, key=ChainSet.to_lists)


def is_u_small(tau: Weight) -> bool:
    """Unitarily small test: tau - 2*rho pairs non-positively with every
    fundamental coweight."""
    n = len(tau)
    two_rho = tuple(2 * r for r in rho_doubled(n))
    diff = tuple(t - r for t, r in zip(tau, two_rho))
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
        lambda2_fund=to_fundamental(lambda_doubled(cs)),
        s=extract_involution(cs),
        tau_fund=to_fundamental(tau_std),
        gamma=res.gamma,
        u_small=is_u_small(res.tau),
        multiplicity=mult,
    )


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
