"""One-shot verification suite over all enumerated scattered parameters.

Each check sweeps one invariant up to a rank bound and reports a single
pass/fail line; heavyweight sub-suites carry their own caps (brute-force
oracle at 10, multiplicity at 8, uniqueness at 6, interlacing/involution
equivalence at 7).
"""

from __future__ import annotations

from math import isqrt

from .chains import (
    ChainSet,
    extract_involution,
    involves_all_simple_reflections,
    is_interlaced,
    is_involution,
    lambda_doubled,
)
from .lr import contains, lr_coefficient, multiplicity_in_induced
from .scattered import (
    all_chain_decompositions,
    brute_force_enumerate,
    canonical_form,
    expand,
    generate,
    is_u_small,
    reduce,
    spherical_family,
)
from .spin import lowest_k_type, spin_lowest_k_type, verify_spin_identity
from .weights import norm_sq, rho_doubled, spin_norm_sq, to_fundamental

ORACLE_CAP = 10
EQUIVALENCE_CAP = 7
MULTIPLICITY_CAP = 8
UNIQUENESS_CAP = 6
LR_SANITY_CAP = 6


def batch_multiplicities(chain_sets) -> list[int]:
    """Multiplicity of tau for each parameter, preserving input order."""
    return [multiplicity_in_induced(cs, spin_lowest_k_type(cs).tau) for cs in chain_sets]


def dominant_ball(n: int, coord_sum: int, norm_bound: int):
    """Weakly decreasing integer vectors v of length n with sum(v) = coord_sum
    and norm_sq(2v - rho_doubled(n)) <= norm_bound."""
    rho = rho_doubled(n)
    vec = [0] * n

    def rec(i: int, prev: int, rem: int, used: int):
        if i == n:
            if rem == 0:
                yield tuple(vec)
            return
        left = norm_bound - used
        if left < 0:
            return
        r = isqrt(left)
        hi = min(prev, (rho[i] + r) // 2)
        lo = max(-((r - rho[i]) // 2), -(-rem // (n - i)))
        for v in range(hi, lo - 1, -1):
            vec[i] = v
            yield from rec(i + 1, v, rem - v, used + (2 * v - rho[i]) ** 2)

    big = coord_sum + norm_bound + 1
    yield from rec(0, big, coord_sum, 0)


def spin_minimal_candidates(cs: ChainSet) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """All dominant weights in the Dirac-inequality ball achieving the
    minimal spin norm with positive multiplicity; returns (tau, hits)."""
    res = spin_lowest_k_type(cs)
    bound = norm_sq(res.lambda2)
    total = sum(lambda_doubled(cs))
    hits = []
    for v in dominant_ball(cs.n, total, bound):
        dv = tuple(2 * x for x in v)
        if spin_norm_sq(dv) != bound:
            continue
        if multiplicity_in_induced(cs, dv) > 0:
            hits.append(dv)
    return res.tau, hits


def _partitions_up_to(size: int):
    def rec(remaining, cap):
        yield ()
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(size, size)


def _sub_partitions(outer):
    def rec(i, prev):
        if i == len(outer):
            yield ()
            return
        for part in range(min(outer[i], prev), -1, -1):
            for rest in rec(i + 1, part):
                yield ((part,) + rest) if part else ()

    yield from rec(0, outer[0] if outer else 0)


def _is_horizontal_strip(outer, inner) -> bool:
    if not contains(outer, inner):
        return False
    padded = tuple(inner) + (0,) * (len(outer) - len(inner))
    return all(padded[i] >= outer[i + 1] for i in range(len(outer) - 1))


def run_verification(n_max: int):
    """Run every invariant check up to rank n_max.

    Returns (lines, ok): one human-readable line per check and the overall
    verdict.  The first failing parameter is embedded in its line.
    """
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    lines: list[str] = []
    all_ok = True

    def report(name: str, passed: bool, detail: str = ""):
        nonlocal all_ok
        all_ok = all_ok and passed
        suffix = f" ({detail})" if detail else ""
        lines.append(f"{name}: {'PASS' if passed else 'FAIL'}{suffix}")

    per_rank = {n: generate(n) for n in range(2, n_max + 1)}

    for n, sets in per_rank.items():
        forms = {canonical_form(cs) for cs in sets}
        ok = len(sets) == len(forms) == 2 ** (n - 2)
        report(f"count n={n}", ok, f"{len(forms)} parameters")
        if not ok:
            break

    for n in range(2, min(n_max, ORACLE_CAP) + 1):
        oracle = {canonical_form(cs) for cs in brute_force_enumerate(n)}
        ok = oracle == {canonical_form(cs) for cs in per_rank[n]}
        report(f"brute-force oracle n={n}", ok)

    bad = None
    for n in range(2, min(n_max, EQUIVALENCE_CAP) + 1):
        for cs in all_chain_decompositions(n):
            if is_interlaced(cs) != involves_all_simple_reflections(extract_involution(cs)):
                bad = cs
                break
        if bad:
            break
    report(
        f"interlaced <=> involution uses all reflections, n<={min(n_max, EQUIVALENCE_CAP)}",
        bad is None,
        bad.to_json() if bad else "",
    )

    k_types = {n: [(spin_lowest_k_type(cs), lowest_k_type(cs)) for cs in sets] for n, sets in per_rank.items()}

    def sweep(name, predicate, cap=None):
        top = min(n_max, cap) if cap else n_max
        offender = None
        for n in range(2, top + 1):
            for cs, (res, lowest) in zip(per_rank[n], k_types[n]):
                if not predicate(cs, res, lowest):
                    offender = cs
                    break
            if offender:
                break
        report(f"{name}, n<={top}", offender is None, offender.to_json() if offender else "")

    def involution_ok(cs, _res, _lowest):
        s = extract_involution(cs)
        return is_involution(s) and involves_all_simple_reflections(s)

    sweep("involutions use all simple reflections", involution_ok)
    sweep("spin identity {tau-rho} = 2lambda-rho", lambda cs, res, _: verify_spin_identity(res))
    sweep(
        "tau differs from lowest K-type on multi-chain parameters",
        lambda cs, res, lowest: len(cs.chains) == 1 or res.tau != lowest,
    )
    sweep(
        "spin norm of tau equals |2lambda|",
        lambda cs, res, _: spin_norm_sq(res.tau) == norm_sq(res.lambda2),
    )
    sweep(
        "rules preserve the coordinate sum",
        lambda cs, res, lowest: sum(res.tau) == sum(lowest),
    )
    sweep("tau is u-small", lambda cs, res, _: is_u_small(res.tau))
    sweep(
        "lambda fundamental coefficients are 1/2 or 1",
        lambda cs, res, _: set(to_fundamental(lambda_doubled(cs))) <= {1, 2},
    )

    offender = None
    for n in range(3, n_max + 1):
        for cs in per_rank[n]:
            parent = reduce(cs)
            kids = expand(parent)
            if canonical_form(cs) not in {canonical_form(k) for k in kids}:
                offender = cs
                break
        if offender:
            break
    report(f"reduce/expand round trip, n<={n_max}", offender is None, offender.to_json() if offender else "")

    ok = True
    detail = ""
    for total in range(3, min(n_max, 9) + 1, 2):
        for b in range(1, total // 2 + 1):
            a = total - b
            cs = spherical_family(a, b)
            lk = lowest_k_type(cs)
            side = (a - b - 1) // 2
            pattern = (2,) * side + (1,) * (2 * b) + (2,) * side
            if len(set(lk)) != 1 or to_fundamental(lambda_doubled(cs)) != pattern:
                ok, detail = False, f"a={a} b={b}"
                break
            if canonical_form(cs) not in {canonical_form(x) for x in per_rank[total]}:
                ok, detail = False, f"a={a} b={b} not enumerated"
                break
    report(f"spherical family pattern and membership, a+b<={min(n_max, 9)}", ok, detail)

    ok = True
    detail = ""
    for outer in _partitions_up_to(LR_SANITY_CAP):
        if not outer:
            continue
        for inner in _sub_partitions(outer):
            rest = sum(outer) - sum(inner)
            row = lr_coefficient(outer, inner, (rest,) if rest else ())
            expected = 1 if _is_horizontal_strip(outer, inner) else 0
            if row != expected:
                ok, detail = False, f"Pieri {outer}/{inner}"
                break
            for weight in _partitions_up_to(rest):
                if sum(weight) != rest:
                    continue
                c = lr_coefficient(outer, inner, weight)
                swapped = lr_coefficient(outer, weight, inner) if contains(outer, weight) else 0
                if c != swapped:
                    ok, detail = False, f"symmetry {outer} {inner} {weight}"
                    break
        if not ok:
            break
    report(f"LR Pieri and symmetry, |shape|<={LR_SANITY_CAP}", ok, detail)

    mult_cap = min(n_max, MULTIPLICITY_CAP)
    sets = [cs for n in range(2, mult_cap + 1) for cs in per_rank[n]]
    mults = batch_multiplicities(sets)
    bad_idx = next((i for i, m in enumerate(mults) if m != 1), None)
    report(
        f"tau has multiplicity one, n<={mult_cap}",
        bad_idx is None,
        sets[bad_idx].to_json() if bad_idx is not None else f"{len(sets)} parameters",
    )

    uniq_cap = min(n_max, UNIQUENESS_CAP)
    offender = None
    for n in range(2, uniq_cap + 1):
        for cs in per_rank[n]:
            tau, hits = spin_minimal_candidates(cs)
            if hits != [tau]:
                offender = cs
                break
        if offender:
            break
    report(f"tau is the unique spin-minimal K-type, n<={uniq_cap}", offender is None, offender.to_json() if offender else "")

    return lines, all_ok
