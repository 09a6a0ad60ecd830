"""Acceptance suite: one test per criterion, exact tolerances, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines.  All comparisons are exact integer comparisons; the two timed
criteria assert the documented sub-millisecond budget on a warm call.
"""

import time

from spinchains.chains import ChainSet, extract_involution, lambda_doubled
from spinchains.lr import (
    _count_tableaux,
    contains,
    lr_coefficient,
    multiplicity_in_induced,
    partitions_up_to,
    sub_partitions,
)
from spinchains.scattered import (
    brute_force_enumerate,
    build_record,
    count,
    generate,
    is_u_small,
    spherical_family,
)
from spinchains.spin import lowest_k_type, spin_lowest_k_type, verify_spin_identity
from spinchains.verify import spin_minimal_candidates
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


def test_criterion_04_counting_and_oracle():
    for n in range(2, 17):
        assert count(n) == 2 ** (n - 2), n
    for n in range(2, 11):
        assert {cs for cs in brute_force_enumerate(n)} == {
            cs for cs in generate(n)
        }, n
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
            tuple(c.entries() for c in rec.chains.chains): (rec.lambda2_fund, rec.s, rec.tau_fund)
            for rec in (build_record(cs) for cs in generate(n))
        }
        assert records == table, n
    print("PASS criterion 5: ranks 2-4 match the published lambda, s, tau values")


def test_criterion_06_spin_identity_sweep():
    total = 0
    for n in range(2, 13):
        for cs in generate(n):
            assert verify_spin_identity(spin_lowest_k_type(cs)), cs.to_lists()
            total += 1
    assert total == sum(2 ** (n - 2) for n in range(2, 13))
    print(f"PASS criterion 6: spin identity on all {total} parameters up to rank 12")


def test_criterion_07_u_smallness_sweep():
    total = 0
    for n in range(2, 13):
        for cs in generate(n):
            assert is_u_small(spin_lowest_k_type(cs).tau), cs.to_lists()
            assert set(to_fundamental(lambda_doubled(cs))) <= {1, 2}, cs.to_lists()
            total += 1
    print(f"PASS criterion 7: u-smallness and half-or-one coefficients on {total} parameters")


def test_criterion_08_multiplicity_one():
    sets = [cs for n in range(2, 9) for cs in generate(n)]
    mults = [multiplicity_in_induced(cs, spin_lowest_k_type(cs).tau) for cs in sets]
    assert all(m == 1 for m in mults), [
        cs.to_lists() for cs, m in zip(sets, mults) if m != 1
    ]
    print(f"PASS criterion 8: multiplicity of tau is 1 on all {len(sets)} parameters up to rank 8")


def test_criterion_09_uniqueness_at_desk_scale():
    total = 0
    for n in range(2, 7):
        for cs in generate(n):
            tau, hits = spin_minimal_candidates(cs)
            assert hits == [tau], (cs.to_lists(), hits)
            total += 1
    print(f"PASS criterion 9: tau unique spin-minimal K-type for all {total} parameters up to rank 6")


def test_criterion_10_spherical_family():
    checked = 0
    for total in (3, 5, 7, 9):
        for b in range(1, (total + 1) // 2):
            a = total - b
            if a <= b or (a + b) % 2 == 0:
                continue
            cs = spherical_family(a, b)
            assert len(set(lowest_k_type(cs))) == 1, (a, b)
            side = (a - b - 1) // 2
            assert to_fundamental(lambda_doubled(cs)) == (2,) * side + (1,) * (2 * b) + (2,) * side, (a, b)
            checked += 1
    assert checked == 1 + 2 + 3 + 4  # pairs with a > b > 0, a+b odd, a+b <= 9
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
