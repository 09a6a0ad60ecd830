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

from collections.abc import Iterable
from dataclasses import dataclass
from operator import sub
from typing import NamedTuple

from .chains import Chain, ChainSet, _require_scattered, canonical_order, lambda_doubled
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


def _step(vals, written, ci, cj):
    """Rule (a), (b) or (c) on the linked chains ci and cj, ci first in canonical order.

    A chain is (top, bottom, length, avg, offset, row): its slots are
    vals[offset:offset + length], all rows in one flat list with one
    write-once flag per slot in `written`, and row is its index in
    messages.  Each rule writes one run of consecutive slots in each row.
    Returns (kind, p).
    """
    ti, bi, di, ki, oi, _ = ci
    tj, _, dj, kj, oj, _ = cj
    span = tj - bi
    if span % 2 == 0:
        raise AssertionError("linked chains must have opposite parity")
    p = (span + 1) // 2
    if ti > tj:
        si, sj = di - p, 0
        if dj <= p:
            kind, run, vi, vj, step = "a", dj, ki + p, kj - p, -1
        else:
            kind, run, vi, vj, step = "b", p, ki + 1, kj - 1, 1
    else:  # rule (c), with q = p
        kind, run, si, sj = "c", di, 0, p - di
        vi, vj, step = ki + p - di + 1, kj - p + di - 1, 1
    if si < 0 or si + run > di or sj < 0 or sj + run > dj:
        _refuse(written, ci, cj, si, sj, run)
    a, b = oi + si, oj + sj
    end = a + run
    while a < end:
        if written[a] or written[b]:
            _refuse(written, ci, cj, a - oi, b - oj, 1)
        written[a] = written[b] = True
        vals[a] = vi
        vals[b] = vj
        a += 1
        b += 1
        vi += step
        vj -= step
    return kind, p


def _refuse(written, ci, cj, si, sj, run):
    """Raise AlgorithmViolation for the first bad write of `run` slots from
    slot si of ci and slot sj of cj, taken in the order the rules state
    them: slot by slot, row ci before row cj."""
    for t in range(run):
        for (_, _, length, _, offset, row), pos in ((ci, si + t), (cj, sj + t)):
            if not 0 <= pos < length:
                raise AlgorithmViolation(f"slot {pos} outside row {row}")
            if written[offset + pos]:
                raise AlgorithmViolation(f"slot {pos} of row {row} written twice")


def _rules(pairs):
    """Rules (a), (b) and (c) on a ChainSet, or its chains as pairs.

    Returns the pairs in canonical order, their final rows (standard scale)
    and the trace in execution order as (kind, i, j, param) tuples.  Each
    chain j is resolved by `_step` against every earlier chain i linked
    with it; two pairs are linked when their (top, bottom) spans straddle,
    as in `is_linked`.  The caller checks disjointness.
    """
    ordered = canonical_order(pairs)
    chains, vals = [], []
    for row, (top, length) in enumerate(ordered):
        avg = top - length + 1
        chains.append((top, top - 2 * (length - 1), length, avg, len(vals), row))
        vals += [avg] * length
    written = [False] * len(vals)
    trace = []
    for j, cj in enumerate(chains):
        tj, bj = cj[0], cj[1]
        for i in range(j):
            ci = chains[i]
            if ci[0] > tj > ci[1] or tj > ci[0] > bj:
                kind, p = _step(vals, written, ci, cj)
                trace.append((kind, i, j, p))
    rows = [vals[offset:offset + length] for _, _, length, _, offset, _ in chains]
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


def lowest_k_type(cs: Iterable[tuple[int, int]]) -> Weight:
    """Highest weight of the lowest K-type, doubled: averages with multiplicity."""
    vals = []
    for top, length in cs:
        vals += [2 * (top - length + 1)] * length
    return dominant(vals)


def spin_lowest_k_type(cs: ChainSet) -> SpinResult:
    """Run the rewriting rules over all linked pairs and assemble tau.

    A thin wrapper of the pair engine `_rules`, which puts the chains in
    canonical order: row i and the trace's indices refer to chains[i].
    The engine adds the chains one at a time and resolves each against every
    earlier chain linked with it.
    """
    ordered, rows, trace = _rules(cs.chains)
    tau = dominant([2 * x for row in rows for x in row])
    lambda2 = tuple(2 * e for e in lambda_doubled(cs))
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


def _spin_identity(tau: Weight, lambda2: Weight) -> bool:
    """Whether {tau - rho} = 2*lambda - rho exactly, for tau and lambda2 =
    2*lambda, both doubled.  2*lambda - rho is weakly decreasing, so its
    side needs no sort."""
    rho = rho_doubled(len(tau))
    return sorted(map(sub, tau, rho), reverse=True) == list(map(sub, lambda2, rho))


def verify_spin_identity(res: SpinResult) -> bool:
    """Check {tau - rho} = 2*lambda - rho exactly, in doubled arithmetic."""
    return _spin_identity(res.tau, res.lambda2)


def dirac_report(cs: ChainSet) -> tuple[Weight, int]:
    """Dirac cohomology data of a scattered parameter of SL(n).

    Returns the highest weight {tau - rho} (doubled) and the multiplicity
    2^floor((n-1)/2) with which it occurs.
    """
    _require_scattered(cs)
    res = spin_lowest_k_type(cs)
    return res.gamma, 2 ** ((cs.n - 1) // 2)
