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

from .chains import Chain, ChainSet, canonical_order, is_interlaced, is_linked
from .weights import Weight, dominant, rho_doubled


class AlgorithmViolation(RuntimeError):
    """A rewriting rule tried to touch a layout slot twice."""


class Rule(NamedTuple):
    kind: str  # "a", "b" or "c"
    param: int  # the p of rules a/b, the q of rule c


class AppliedRule(NamedTuple):
    kind: str
    i: int  # canonical index of the earlier chain
    j: int  # canonical index of the later chain
    param: int


def classify_link(ci: Chain, cj: Chain) -> Rule:
    """Which rewriting rule a linked pair falls under, with its parameter.

    Expects ci to precede cj in canonical order.  Linked chains have
    opposite parity, so the parameter (C_{j,1} - C_{i,d_i} + 1)/2 is an
    exact integer.
    """
    if not is_linked(ci, cj):
        raise ValueError("chains are not linked")
    if (-ci.avg, ci.length) > (-cj.avg, cj.length):
        raise ValueError("chains not in canonical precedence")
    span = cj.top - ci.bottom
    if span % 2 == 0:
        raise AssertionError("linked chains must have opposite parity")
    param = (span + 1) // 2
    if ci.top > cj.top:
        return Rule("a", param) if cj.length <= param else Rule("b", param)
    return Rule("c", param)


class TauLayout:
    """Per-chain rows of coordinates, one row per chain in canonical order.

    Row i starts as the constant k_i repeated d_i times; rules overwrite
    slots, and every slot may be written at most once.
    """

    def __init__(self, chains: tuple[Chain, ...]):
        self.chains = chains
        self.rows = [[c.avg] * c.length for c in chains]
        self._written = [[False] * c.length for c in chains]

    def write(self, row: int, pos: int, value: int) -> None:
        if not 0 <= pos < len(self.rows[row]):
            raise AlgorithmViolation(f"slot {pos} outside row {row}")
        if self._written[row][pos]:
            raise AlgorithmViolation(f"slot {pos} of row {row} written twice")
        self._written[row][pos] = True
        self.rows[row][pos] = value


def apply_rule(layout: TauLayout, i: int, j: int, rule: Rule) -> TauLayout:
    """Rewrite rows i and j of the layout in place according to the rule."""
    ci, cj = layout.chains[i], layout.chains[j]
    ki, kj = ci.avg, cj.avg
    if rule.kind == "a":
        p = rule.param
        for t in range(cj.length):
            layout.write(i, ci.length - p + t, ki + p - t)
            layout.write(j, t, kj - p + t)
    elif rule.kind == "b":
        p = rule.param
        for t in range(p):
            layout.write(i, ci.length - p + t, ki + 1 + t)
            layout.write(j, t, kj - 1 - t)
    elif rule.kind == "c":
        q = rule.param
        for t in range(ci.length):
            layout.write(i, t, ki + (q - ci.length + 1) + t)
            layout.write(j, q - ci.length + t, kj - (q - ci.length + 1) - t)
    else:
        raise ValueError(f"unknown rule kind {rule.kind!r}")
    return layout


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

    Chains are added one at a time in canonical order; each new chain is
    resolved against every earlier chain linked with it.  The pairs are
    tested for straddling on their (top, bottom) spans, as `is_linked`
    does, and only linked pairs reach `classify_link`.  A ChainSet's chains
    share no entry, so `is_linked`'s overlap check is not repeated here.
    """
    ordered = canonical_order(cs)
    layout = TauLayout(ordered)
    spans = [(c.top, c.bottom) for c in ordered]
    trace = []
    for m in range(1, len(ordered)):
        tm, bm = spans[m]
        for i in range(m):
            ti, bi = spans[i]
            if ti > tm > bi or tm > ti > bm:
                rule = classify_link(ordered[i], ordered[m])
                apply_rule(layout, i, m, rule)
                trace.append(AppliedRule(rule.kind, i, m, rule.param))
    tau = dominant([2 * x for row in layout.rows for x in row])
    lambda2 = tuple(2 * e for e in cs.all_entries())
    rho = rho_doubled(len(tau))
    gamma = dominant([t - r for t, r in zip(tau, rho)])
    return SpinResult(
        chains=ordered,
        tau=tau,
        lambda2=lambda2,
        gamma=gamma,
        rows=tuple(tuple(row) for row in layout.rows),
        trace=tuple(trace),
    )


def _pairs_tau(pairs) -> list[int]:
    """spin_lowest_k_type(cs).tau for cs given as disjoint (top, length) pairs.

    The same rules on plain rows, for callers that hold pairs and no
    ChainSet; the pairs may come in any order and need not be interlaced.
    The caller checks disjointness.  Kept apart from spin_lowest_k_type,
    which the tests hold it equal to on every chain decomposition.
    """
    ordered = sorted(pairs, key=lambda p: (p[1] - 1 - p[0], p[1]))  # canonical: -avg, then length
    avgs = [top - length + 1 for top, length in ordered]
    rows = [[k] * length for k, (_, length) in zip(avgs, ordered)]
    written = [[False] * length for _, length in ordered]

    def write(row: int, pos: int, value: int) -> None:
        if not 0 <= pos < len(rows[row]):
            raise AlgorithmViolation(f"slot {pos} outside row {row}")
        if written[row][pos]:
            raise AlgorithmViolation(f"slot {pos} of row {row} written twice")
        written[row][pos] = True
        rows[row][pos] = value

    for j, (tj, dj) in enumerate(ordered):
        bj = tj - 2 * (dj - 1)
        kj = avgs[j]
        for i in range(j):
            ti, di = ordered[i]
            bi = ti - 2 * (di - 1)
            if not (ti > tj > bi or tj > ti > bj):
                continue
            span = tj - bi
            if span % 2 == 0:
                raise AssertionError("linked chains must have opposite parity")
            p = (span + 1) // 2
            ki = avgs[i]
            if ti > tj and dj <= p:  # (a)
                for t in range(dj):
                    write(i, di - p + t, ki + p - t)
                    write(j, t, kj - p + t)
            elif ti > tj:  # (b)
                for t in range(p):
                    write(i, di - p + t, ki + 1 + t)
                    write(j, t, kj - 1 - t)
            else:  # (c), with q = p
                for t in range(di):
                    write(i, t, ki + (p - di + 1) + t)
                    write(j, p - di + t, kj - (p - di + 1) - t)
    return sorted((2 * x for row in rows for x in row), reverse=True)


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
