"""The spin-lowest K-type of a chain parameter.

The lowest K-type of the module attached to a disjoint union of chains is
the multiset of chain averages, each average k_i repeated d_i = length
times.  The spin-lowest K-type tau is obtained from that layout by a local
rewriting rule for every linked pair of chains C_i, C_j with i < j in
canonical order.  All three rules use the one quantity
p := (C_{j,1} - C_{i,d_i} + 1)/2, which rule (c) calls q; the three
configurations are:

  (a) C_j nested strictly inside the span of C_i (d_j <= p):
      row i gets k_i+p, k_i+p-1, ..., k_i+p-d_j+1 starting at slot d_i-p+1,
      row j becomes k_j-p, k_j-p+1, ..., k_j-p+d_j-1.
  (b) C_j staggered below C_i (d_j > p):
      the last p slots of row i become k_i+1, ..., k_i+p,
      the first p slots of row j become k_j-1, ..., k_j-p.
  (c) C_i nested inside the span of C_j:
      row i becomes k_i+q-d_i+1, ..., k_i+q,
      slots q-d_i+1 .. q of row j become k_j-(q-d_i+1), ..., k_j-q.

Each slot is written at most once over the whole run; a second write
raises AlgorithmViolation, which never fires on a valid parameter.  The
resulting tau always satisfies {tau - rho} = 2*lambda - rho, making tau a
K-type of minimal spin norm, the one contributing to Dirac cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .chains import Chain, ChainSet, _canonical_key, canonical_order, is_interlaced
# spinbench's test_tracer_counts_calls_and_restores_the_modules reads spin.is_linked
from .chains import is_linked  # noqa: F401
from .weights import Weight, dominant, rho_doubled


class AlgorithmViolation(RuntimeError):
    """A rewriting rule tried to touch a layout slot twice."""


class AppliedRule(NamedTuple):
    kind: str  # "a", "b" or "c"
    i: int  # canonical index of the earlier chain
    j: int  # canonical index of the later chain
    param: int  # the p of rules a/b, the q of rule c


def _rules(pairs):
    """Rules (a), (b) and (c) on disjoint (top, length) pairs given in any order.

    Returns the pairs in canonical order, their final rows (standard scale)
    and the trace in execution order as (kind, i, j, param) tuples.  Two
    pairs are linked when their (top, bottom) spans straddle, as in
    `is_linked`; the caller checks disjointness.
    """
    ordered = sorted(pairs, key=_canonical_key)
    spans = [(top, top - 2 * (length - 1)) for top, length in ordered]
    avgs = [top - length + 1 for top, length in ordered]
    rows = [[k] * length for k, (_, length) in zip(avgs, ordered)]
    written = [[False] * length for _, length in ordered]
    trace = []

    def write(row: int, pos: int, value: int) -> None:
        if not 0 <= pos < len(rows[row]):
            raise AlgorithmViolation(f"slot {pos} outside row {row}")
        if written[row][pos]:
            raise AlgorithmViolation(f"slot {pos} of row {row} written twice")
        written[row][pos] = True
        rows[row][pos] = value

    for j in range(1, len(ordered)):
        tj, bj = spans[j]
        dj, kj = ordered[j][1], avgs[j]
        for i in range(j):
            ti, bi = spans[i]
            if not (ti > tj > bi or tj > ti > bj):
                continue
            span = tj - bi
            if span % 2 == 0:
                raise AssertionError("linked chains must have opposite parity")
            p = (span + 1) // 2
            di, ki = ordered[i][1], avgs[i]
            if ti > tj and dj <= p:
                kind = "a"
                for t in range(dj):
                    write(i, di - p + t, ki + p - t)
                    write(j, t, kj - p + t)
            elif ti > tj:
                kind = "b"
                for t in range(p):
                    write(i, di - p + t, ki + 1 + t)
                    write(j, t, kj - 1 - t)
            else:  # rule (c), with q = p
                kind = "c"
                for t in range(di):
                    write(i, t, ki + (p - di + 1) + t)
                    write(j, p - di + t, kj - (p - di + 1) - t)
            trace.append((kind, i, j, p))
    return ordered, rows, trace


@dataclass(frozen=True)
class SpinResult:
    """Outcome of one run: everything is in doubled coordinates except rows."""

    chains: tuple[Chain, ...]  # in canonical order
    tau: Weight  # doubled
    lambda2: Weight  # 2*lambda, doubled
    gamma: Weight  # {tau - rho}, doubled
    rows: tuple[tuple[int, ...], ...]  # final layout, standard scale
    trace: tuple[AppliedRule, ...]  # in execution order


def lowest_k_type(cs: ChainSet) -> Weight:
    """Highest weight of the lowest K-type, doubled: averages with multiplicity."""
    vals = []
    for c in cs.chains:
        vals.extend([2 * c.avg] * c.length)
    return dominant(vals)


def spin_lowest_k_type(cs: ChainSet) -> SpinResult:
    """Run the rewriting rules over all linked pairs and assemble tau.

    A thin wrapper of the pair engine `_rules`, fed the pairs of
    `canonical_order(cs)`: row i and the trace's indices refer to chains[i].
    The engine adds the chains one at a time and resolves each against every
    earlier chain linked with it.
    """
    ordered = canonical_order(cs)
    _, rows, trace = _rules([(c.top, c.length) for c in ordered])
    tau = dominant([2 * x for row in rows for x in row])
    lambda2 = tuple(2 * e for e in cs.all_entries())
    rho = rho_doubled(len(tau))
    gamma = dominant([t - r for t, r in zip(tau, rho)])
    return SpinResult(
        chains=ordered,
        tau=tau,
        lambda2=lambda2,
        gamma=gamma,
        rows=tuple(map(tuple, rows)),
        trace=tuple(map(AppliedRule._make, trace)),
    )


def verify_spin_identity(res: SpinResult) -> bool:
    """Check {tau - rho} = 2*lambda - rho exactly, in doubled arithmetic.

    2*lambda - rho is automatically weakly decreasing, so no sort is needed
    on the right-hand side.
    """
    rho = rho_doubled(len(res.tau))
    lhs = dominant(t - r for t, r in zip(res.tau, rho))
    rhs = tuple(l - r for l, r in zip(res.lambda2, rho))
    return lhs == rhs


def dirac_report(cs: ChainSet) -> tuple[Weight, int]:
    """Dirac cohomology data of a scattered parameter of SL(n).

    Returns the highest weight {tau - rho} (doubled) and the multiplicity
    2^floor((n-1)/2) with which it occurs.
    """
    if cs.min_entry() != 1 or not is_interlaced(cs):
        raise ValueError("not a scattered parameter: need interlaced chains with smallest entry 1")
    res = spin_lowest_k_type(cs)
    return res.gamma, 2 ** ((cs.n - 1) // 2)
