"""Acceptance suite: one test per criterion, exact tolerances, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines.  All comparisons are exact integer comparisons; the two timed
criteria assert the documented sub-millisecond budget on a warm call.

Criteria 4 (its oracle half) and 6-10 state claims that `verify.CHECKS`
already certifies, so they read those registry checks' lines from the
session's `check_lines` fixture, run exactly as `spinchains verify -n
VERIFY_CAP` runs them, and assert that every line passes; each check runs
once per test session, shared with `test_verify_check_passes`.
A criterion's bound is a floor on what the check's lines report, so
raising a cap in `verify` needs no edit here, and lowering one below a
criterion's bound fails that criterion.
"""

import time

from spinchains.chains import ChainSet, extract_involution
from spinchains.lr import _count_tableaux, contains, lr_coefficient, partitions_up_to, sub_partitions
from spinchains.scattered import build_record, count, generate
from spinchains.spin import spin_lowest_k_type, verify_spin_identity
from spinchains.weights import to_fundamental

from test_lr import horizontal_strips_above

EX22 = ChainSet.from_lists([[10, 8], [9, 7, 5, 3, 1], [6], [4]])


def _min_runtime(fn, repeats=7):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _run_check(name, check_lines):
    """The (label, ok, detail) lines of a registry check, which must all pass."""
    lines = check_lines(name)
    assert lines and all(ok for _, ok, _ in lines), lines
    return lines


def _swept(name, check_lines, floor):
    """(K, top) of a per-parameter check whose one line reads
    `<label>, n<=top: PASS (K parameters)`, with K at least floor."""
    [(label, _, detail)] = _run_check(name, check_lines)
    checked = int(detail.removesuffix(" parameters"))
    assert checked >= floor, (name, checked, floor)
    return checked, int(label.rsplit("n<=", 1)[1])


def _parameters_up_to(n):
    return sum(2 ** (k - 2) for k in range(2, n + 1))


def test_criterion_01_worked_algorithm_trace():
    res = spin_lowest_k_type(EX22)
    assert res.tau == tuple(2 * x for x in (10, 9, 8, 7, 5, 5, 4, 3, 2))
    assert {(a.kind, a.i, a.j, a.param) for a in res.trace} == {
        ("a", 2, 3, 2),
        ("b", 0, 2, 1),
        ("c", 1, 2, 2),
    }
    elapsed = _min_runtime(lambda: spin_lowest_k_type(EX22))
    assert elapsed < 1e-3
    print(f"PASS criterion 1: tau and rule trace exact ({elapsed * 1e6:.0f}us)")


def test_criterion_02_identity_and_dirac_weight():
    res = spin_lowest_k_type(EX22)
    assert verify_spin_identity(res)
    assert res.gamma == tuple(2 * x for x in (6, 6, 6, 6, 6, 6, 6, 6, 5))
    elapsed = _min_runtime(lambda: verify_spin_identity(spin_lowest_k_type(EX22)))
    assert elapsed < 1e-3
    print(f"PASS criterion 2: {{tau-rho}} = 2lambda-rho = (6,...,6,5) ({elapsed * 1e6:.0f}us)")


def test_criterion_03_permutation_extraction():
    assert extract_involution(EX22) == (3, 9, 1, 8, 5, 6, 7, 4, 2)
    tau_std = tuple(x // 2 for x in spin_lowest_k_type(EX22).tau)
    assert to_fundamental(tau_std) == (1, 1, 1, 2, 0, 1, 1, 1)
    print("PASS criterion 3: s = (3,9,1,8,5,6,7,4,2), tau = [1,1,1,2,0,1,1,1]")


def test_criterion_04_counting_and_oracle(check_lines):
    for n in range(2, 17):
        assert count(n) == 2 ** (n - 2), n
    oracle_ranks = {int(label.rsplit("n=", 1)[1]) for label, _, _ in _run_check("check_oracle", check_lines)}
    assert oracle_ranks >= set(range(2, 11)), oracle_ranks
    print("PASS criterion 4: count = 2^(n-2) for n<=16, oracle set-equality for n<=10")


def test_criterion_05_small_rank_table():
    expected = {
        2: {((3, 1),): ((2,), (2, 1), (0,))},
        3: {
            ((5, 3, 1),): ((2, 2), (3, 2, 1), (0, 0)),
            ((3, 1), (2,)): ((1, 1), (3, 2, 1), (1, 1)),
        },
        4: {
            ((7, 5, 3, 1),): ((2, 2, 2), (4, 3, 2, 1), (0, 0, 0)),
            ((5, 3, 1), (4,)): ((1, 1, 2), (4, 2, 3, 1), (2, 0, 1)),
            ((5, 3, 1), (2,)): ((2, 1, 1), (4, 2, 3, 1), (1, 0, 2)),
            ((4, 2), (3, 1)): ((1, 1, 1), (3, 4, 1, 2), (1, 1, 1)),
        },
    }
    for n, table in expected.items():
        records = {
            tuple(map(tuple, rec["chains"])): (tuple(rec["lambda2_fund"]), tuple(rec["s"]), tuple(rec["tau_fund"]))
            for rec in (build_record(cs) for cs in generate(n))
        }
        assert records == table, n
    print("PASS criterion 5: ranks 2-4 match the published lambda, s, tau values")


def test_criterion_06_spin_identity_sweep(check_lines):
    total, top = _swept("spin_identity_tau_rho_2lambda_rho", check_lines, _parameters_up_to(12))
    print(f"PASS criterion 6: spin identity on all {total} parameters up to rank {top}")


def test_criterion_07_u_smallness_sweep(check_lines):
    floor = _parameters_up_to(12)
    u_small, _ = _swept("tau_is_u_small", check_lines, floor)
    half_or_one, _ = _swept("lambda_fundamental_coefficients_are_1_2_or_1", check_lines, floor)
    total = min(u_small, half_or_one)
    print(f"PASS criterion 7: u-smallness and half-or-one coefficients on {total} parameters")


def test_criterion_08_multiplicity_one(check_lines):
    total, top = _swept("tau_has_multiplicity_one", check_lines, _parameters_up_to(8))
    print(f"PASS criterion 8: multiplicity of tau is 1 on all {total} parameters up to rank {top}")


def test_criterion_09_uniqueness_at_desk_scale(check_lines):
    total, top = _swept("tau_is_the_unique_spin_minimal_K_type", check_lines, _parameters_up_to(6))
    print(f"PASS criterion 9: tau unique spin-minimal K-type for all {total} parameters up to rank {top}")


def test_criterion_10_spherical_family(check_lines):
    [(label, _, _)] = _run_check("check_spherical", check_lines)
    top = int(label.rsplit("a+b<=", 1)[1])
    assert top >= 9, label
    # the check's pairs: a > b > 0 with a + b odd and at most top
    checked = sum((total - 1) // 2 for total in range(3, top + 1, 2))
    print(f"PASS criterion 10: spherical family pattern exact for {checked} pairs")


def test_criterion_11_lr_engine_sanity():
    pieri_checked = symmetry_checked = 0
    for outer in partitions_up_to(8):
        if not outer:
            continue
        for inner in sub_partitions(outer):
            rest = sum(outer) - sum(inner)
            strip = tuple(outer) in {tuple(x) for x in horizontal_strips_above(inner, rest)}
            got = lr_coefficient(outer, inner, (rest,) if rest else ())
            assert got == (1 if strip else 0), (outer, inner)
            pieri_checked += 1
            for weight in partitions_up_to(rest):
                if sum(weight) != rest:
                    continue
                # the raw counter on both orientations: two lr_coefficient
                # calls would both fill the smaller skew shape
                c = _count_tableaux(outer, inner, weight)
                swapped = _count_tableaux(outer, weight, inner) if contains(outer, weight) else 0
                assert c == swapped, (outer, inner, weight)
                symmetry_checked += 1
    print(
        f"PASS criterion 11: Pieri rule on {pieri_checked} shapes, "
        f"symmetry on {symmetry_checked} triples, |shape| <= 8"
    )
