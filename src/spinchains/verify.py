"""One-shot verification suite over all enumerated scattered parameters.

`CHECKS` is the registry, run in order: each check is a generator
``check(n_max)`` of ``(label, ok, detail)`` lines.  Count and oracle grow
the branching tree they certify; `check_params` states each claim of
`SPECS`, the reduce/expand round trip among them, on every parameter in one
pass per rank over the walk of the search `enumerate` prints.  The caps
bound the rank `spinchains verify` accepts and the heavyweight checks.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from itertools import filterfalse, zip_longest
from math import inf, isqrt
from typing import NamedTuple

from .chains import (
    ChainSet,
    canonical_order,
    extract_involution,
    involves_all_simple_reflections,
    is_interlaced,
    is_involution,
    lambda_doubled,
)
from .lr import (
    _count_tableaux,
    contains,
    lr_coefficient,
    multiplicity_in_induced,
    partitions_up_to,
    sub_partitions,
)
from .scattered import (
    Pairs,
    _BASE,
    _branch,
    _interlaced_pairs,
    _levels,
    _pair_decompositions,
    _prefix_walk,
    _unbranch,
    is_u_small,
    spherical_family,
)
from .spin import _rules, _spin_identity, lowest_k_type
from .weights import Weight, dominant, norm_sq, rho_doubled, spin_norm_sq, to_fundamental

VERIFY_CAP = 12
EQUIVALENCE_CAP = 7
MULTIPLICITY_CAP = 9
UNIQUENESS_CAP = 7
LR_SANITY_CAP = 6


def _strictly_decreasing(n: int, coord_sum: int, norm: int):
    """Strictly decreasing integer vectors of length n with the given sum and
    squared norm.

    Each coordinate is cut by Cauchy-Schwarz on the k coordinates left,
    (sum left)^2 <= k * (norm left), and from below by the sum left: the
    k - 1 coordinates after x are at most x - 1, ..., x - k + 1.
    """
    vec = [0] * n

    def rec(i: int, prev: int, rem: int, left: int):
        k = n - i
        if k == 1:
            if rem * rem == left and rem < prev:
                vec[i] = rem
                yield tuple(vec)
            return
        lo = -(-(rem + k * (k - 1) // 2) // k)
        for x in range(min(isqrt(left), prev - 1), lo - 1, -1):
            rest, rest_left = rem - x, left - x * x
            if rest * rest <= (k - 1) * rest_left:
                vec[i] = x
                yield from rec(i + 1, x, rest, rest_left)

    yield from rec(0, isqrt(norm) + 1, coord_sum, norm)


def _rearrangements(gamma: list[int], rho: Weight, floor: list, ceiling: list):
    """Every distinct rearrangement sigma of gamma with sigma + rho weakly
    decreasing, that is sigma[i + 1] <= sigma[i] + 2, and floor <= sigma <=
    ceiling in each coordinate; yields sigma + rho."""
    left = Counter(gamma)
    vec = [0] * len(gamma)
    last = len(gamma) - 1

    def rec(i: int, cap: int):
        if ceiling[i] < cap:
            cap = ceiling[i]
        for value in left:  # the loop changes counts, never keys
            if not left[value] or not floor[i] <= value <= cap:
                continue
            vec[i] = value + rho[i]
            if i == last:
                yield tuple(vec)
                continue
            left[value] -= 1
            yield from rec(i + 1, value + 2)
            left[value] += 1

    yield from rec(0, max(gamma))


def spin_norm_shell(n: int, coord_sum: int, norm: int, floor: list, ceiling: list):
    """Weakly decreasing integer vectors v of length n with sum(v) = coord_sum,
    spin_norm_sq(2v) = norm and floor <= v <= ceiling in each coordinate
    (-inf sets no floor, inf no ceiling).

    With delta = 2v and gamma = {delta - rho}, u = gamma + rho is strictly
    decreasing with even coordinates, sum 2 * coord_sum and |u|^2 = norm.
    So the shell is: every such u' = u / 2, then every delta = sigma + rho
    with sigma a rearrangement of gamma = 2u' - rho that keeps delta
    dominant and between 2 * floor and 2 * ceiling, checked as each
    coordinate is placed.  Distinct sigma give distinct delta.
    """
    if norm % 4:
        return
    rho = rho_doubled(n)
    lo = [2 * f - r for f, r in zip(floor, rho)]  # sigma = 2v - rho
    hi = [2 * c - r for c, r in zip(ceiling, rho)]
    for half in _strictly_decreasing(n, coord_sum, norm // 4):
        for delta in _rearrangements([2 * x - r for x, r in zip(half, rho)], rho, lo, hi):
            yield tuple(x // 2 for x in delta)


def spin_minimal_candidates(cs: Iterable[tuple[int, int]]) -> list[tuple[int, ...]]:
    """All dominant weights achieving the minimal spin norm |2lambda| with
    positive multiplicity, doubled, in descending order.

    Only the shell lifts v that hold every rectangle k_i^(d_i) of the
    chains, v[j] >= max{k_i : d_i > j}, and of their dual twist, v[j] <=
    min{k_i : d_i > n - 1 - j}, are asked for their multiplicity; the shell
    applies this floor and ceiling as it places each coordinate.  The floor
    is necessary: every constituent of s_lam s_mu contains lam and mu, so
    every constituent of the product of the rectangles contains each of
    them.  Adding t to v and to every k_i keeps the test, so it holds at
    whatever shift makes them partitions.  The ceiling is the floor of the
    dual twist, with the same multiplicity: (C - k_i)^(d_i) fits inside C -
    reversed(v) exactly when v[j] <= k_i for j >= n - d_i.  So a lift cut
    here has multiplicity 0, whichever side `multiplicity_in_induced`
    counts; its first exit applies both halves too.
    """
    ordered = canonical_order(cs)
    lam = lambda_doubled(ordered)
    n = len(lam)
    factors = [(top - length + 1, length) for top, length in ordered]
    floor = [max((k for k, d in factors if d > j), default=-inf) for j in range(n)]
    ceiling = [min((k for k, d in factors if d > n - 1 - j), default=inf) for j in range(n)]
    lifts = (tuple(2 * x for x in v) for v in spin_norm_shell(n, sum(lam), 4 * norm_sq(lam), floor, ceiling))
    return sorted((dv for dv in lifts if multiplicity_in_induced(ordered, dv) > 0), reverse=True)


def _is_horizontal_strip(outer, inner) -> bool:
    if not contains(outer, inner):
        return False
    padded = tuple(inner) + (0,) * (len(outer) - len(inner))
    return all(padded[i] >= outer[i + 1] for i in range(len(outer) - 1))


class Param(NamedTuple):
    """One scattered parameter as plain data: its (top, length) pairs, tops
    descending; tau, the lowest K-type and 2*lambda, doubled; and the rows
    of its chains (standard scale) as the one flat list `_prefix_walk`
    yields, in the pairs' order, read-only as the walk shares it."""

    chains: Pairs
    tau: Weight
    lowest: Weight
    vals: list[int]
    lambda2: Weight


def _param(leaf: Pairs, vals: list[int]) -> Param:
    """The Param of a walked leaf: tau from its rows, the lowest K-type and
    lambda from its chains, so doctored chains are caught as a doctored tau
    is.  Build a doctored Param here, not by replacing its chains."""
    return Param(leaf, dominant([2 * x for x in vals]), lowest_k_type(leaf), vals, tuple(2 * e for e in lambda_doubled(leaf)))


def _tree(top: int):
    """(n, level) of the branching tree for n = 2..top; sorted, a level is
    generate(n)."""
    return zip(range(2, top + 1), _levels(_BASE, _branch))


def check_count(n_max):
    for n, level in _tree(n_max):
        sets = set(level)
        ok = len(level) == len(sets) == 2 ** (n - 2)
        yield f"count n={n}", ok, f"{len(sets)} parameters"
        if not ok:
            return


def check_oracle(n_max):
    """The search, streamed, equals the sorted tree level; a failing line
    names the first parameter where the two differ."""
    for n, level in _tree(n_max):
        level = sorted(level)
        bad = next((a or b for a, b in zip_longest(_interlaced_pairs(n), level) if a != b), None)
        yield f"definition search equals branching tree, n={n}", bad is None, ChainSet(bad).to_json() if bad else f"{len(level)} parameters"


def check_equivalence(n_max):
    top = min(n_max, EQUIVALENCE_CAP)
    decompositions = (pairs for n in range(2, top + 1) for pairs in _pair_decompositions(n))
    bad = next((pairs for pairs in decompositions if is_interlaced(pairs) != involves_all_simple_reflections(extract_involution(pairs))), None)
    yield f"interlaced <=> involution uses all reflections, n<={top}", bad is None, ChainSet(bad).to_json() if bad else ""


def check_spherical(n_max):
    label = f"spherical family pattern and membership, a+b<={n_max}"
    pairs = 0
    for total in range(3, n_max + 1, 2):
        sets = set(_interlaced_pairs(total))
        for b in range(1, total // 2 + 1):
            a = total - b
            cs = spherical_family(a, b)
            side = (a - b - 1) // 2
            pattern = (2,) * side + (1,) * (2 * b) + (2,) * side
            if len(set(lowest_k_type(cs))) != 1 or to_fundamental(lambda_doubled(cs)) != pattern:
                yield label, False, f"a={a} b={b}"
                return
            if cs.chains not in sets:
                yield label, False, f"a={a} b={b} not enumerated"
                return
            pairs += 1
    yield label, True, f"{pairs} pairs"


def check_lr(n_max):
    label = f"LR Pieri and symmetry, |shape|<={LR_SANITY_CAP}"
    for outer in partitions_up_to(LR_SANITY_CAP):
        if not outer:
            continue
        for inner in sub_partitions(outer):
            rest = sum(outer) - sum(inner)
            row = lr_coefficient(outer, inner, (rest,) if rest else ())
            if row != (1 if _is_horizontal_strip(outer, inner) else 0):
                yield label, False, f"Pieri {outer}/{inner}"
                return
            for weight in partitions_up_to(rest):
                if sum(weight) != rest:
                    continue
                # the raw counter on both orientations: two lr_coefficient
                # calls would both fill the smaller skew shape
                c = _count_tableaux(outer, inner, weight)
                swapped = _count_tableaux(outer, weight, inner) if contains(outer, weight) else 0
                if c != swapped:
                    yield label, False, f"symmetry {outer} {inner} {weight}"
                    return
    yield label, True, ""


def _involution_ok(p: Param) -> bool:
    s = extract_involution(p.chains)
    return is_involution(s) and involves_all_simple_reflections(s)


def _order_free_ok(p: Param) -> bool:
    """`spin._rules` in canonical order gives each chain the walk's row: its
    rows, laid out in the pairs' order, are the walk's flat list."""
    ordered, rows, _ = _rules(p.chains)
    row = dict(zip(ordered, rows))
    return [x for pair in p.chains for x in row[pair]] == p.vals


def _round_trip_ok(p: Param) -> bool:
    """_unbranch sends both children of _branch(p) back to p; a set that
    either rejects as not scattered fails.  The oracle lines hold each
    rank's search equal to the sorted tree level, so over the walked
    parameters of ranks 2..n_max this states that every tree node there is
    the reduction of both its children, the top rank branched once more:
    each node of rank >= 3 is a child of its reduction."""
    try:
        return all(_unbranch(kid) == p.chains for kid in _branch(p.chains))
    except AssertionError:
        return False


# (label, predicate, cap): a claim checked on each Param up to rank cap, or n_max if cap is None
SPECS = (
    ("involutions use all simple reflections", _involution_ok, None),
    ("tau does not depend on the order the linked pairs are resolved in", _order_free_ok, None),
    ("spin identity {tau-rho} = 2lambda-rho", lambda p: _spin_identity(p.tau, p.lambda2), None),
    ("tau differs from lowest K-type on multi-chain parameters", lambda p: len(p.chains) == 1 or p.tau != p.lowest, None),
    ("spin norm of tau equals |2lambda|", lambda p: spin_norm_sq(p.tau) == norm_sq(p.lambda2), None),
    ("rules preserve the coordinate sum", lambda p: sum(p.tau) == sum(p.lowest), None),
    ("tau is u-small", lambda p: is_u_small(p.tau), None),
    # 2*lambda, doubled, has coefficients 2 and 4 where lambda has 1/2 and 1
    ("lambda fundamental coefficients are 1/2 or 1", lambda p: set(to_fundamental(p.lambda2)) <= {2, 4}, None),
    ("tau has multiplicity one", lambda p: multiplicity_in_induced(p.chains, p.tau) == 1, MULTIPLICITY_CAP),
    ("tau is the unique spin-minimal K-type", lambda p: spin_minimal_candidates(p.chains) == [p.tau], UNIQUENESS_CAP),
    ("reduce/expand round trip", _round_trip_ok, None),
)


def check_params(n_max):
    """Every predicate of SPECS on each Param up to its cap: one pass per
    rank over the walk of the search `enumerate` prints, then one line per
    spec, with its own parameter count and its first offender."""
    bad, totals = [None] * len(SPECS), [0] * len(SPECS)
    for n in range(2, n_max + 1):
        params = [_param(leaf, vals) for leaf, _, vals in _prefix_walk(_interlaced_pairs(n))]
        for i, (_, predicate, cap) in enumerate(SPECS):
            if n <= (cap or n_max):
                totals[i] += len(params)
                bad[i] = bad[i] or next(filterfalse(predicate, params), None)
        del params  # free them before the next rank's are built
    for (label, _, cap), total, b in zip(SPECS, totals, bad):
        yield f"{label}, n<={min(n_max, cap or n_max)}", b is None, ChainSet(b.chains).to_json() if b else f"{total} parameters"


CHECKS = (check_count, check_oracle, check_equivalence, check_params, check_spherical, check_lr)


def run_verification(n_max: int):
    """Run every check of CHECKS up to rank n_max.

    Yields (line, ok) for each human-readable line, as soon as its check
    makes it: a failing line names its first offender.  The run passes
    when every line does.  A generator: n_max < 2 raises ValueError when
    the first line is asked for.
    """
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    for check in CHECKS:
        for label, ok, detail in check(n_max):
            suffix = f" ({detail})" if detail else ""
            yield f"{label}: {'PASS' if ok else 'FAIL'}{suffix}", ok
