import json

import pytest

from spinchains.chains import (
    ChainSet,
    extract_involution,
    involves_all_simple_reflections,
    is_interlaced,
    is_involution,
    lambda_doubled,
)
from spinchains.cli import VERIFY_CAP
from spinchains.scattered import (
    all_chain_decompositions,
    brute_force_enumerate,
    build_record,
    expand,
    generate,
    is_u_small,
    reduce,
    spherical_family,
)
from spinchains.spin import spin_lowest_k_type, verify_spin_identity
from spinchains.verify import CHECKS, build_ranks
from spinchains.weights import rho_doubled, to_fundamental


@pytest.fixture(scope="module")
def ranks():
    return build_ranks(VERIFY_CAP)


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_verify_check_passes(check, ranks):
    lines = list(check(ranks, VERIFY_CAP))
    assert lines and all(ok for _, ok, _ in lines), lines


def test_generate_rank_three():
    assert set(generate(3)) == {ChainSet.from_lists([[5, 3, 1]]), ChainSet.from_lists([[3, 1], [2]])}


def test_generate_rank_four():
    expected = [
        [[7, 5, 3, 1]],
        [[5, 3, 1], [4]],
        [[5, 3, 1], [2]],
        [[3, 1], [4, 2]],
    ]
    assert set(generate(4)) == {ChainSet.from_lists(x) for x in expected}


def test_expand_worked_children():
    cs = ChainSet.from_lists([[9, 7, 5, 3, 1], [4, 2]])
    assert set(expand(cs)) == {
        ChainSet.from_lists([[11, 9, 7, 5, 3, 1], [4, 2]]),
        ChainSet.from_lists([[9, 7, 5, 3, 1], [8], [4, 2]]),
    }


def test_generated_parameters_are_scattered_shaped():
    for n in range(2, 11):
        for cs in generate(n):
            assert cs.min_entry() == 1
            assert is_interlaced(cs)
            assert max(c.top for c in cs.chains) <= 2 * n - 1


def test_reduce_worked_examples():
    assert reduce(ChainSet.from_lists([[11, 9, 7, 5, 3, 1], [4, 2]])) == ChainSet.from_lists([[9, 7, 5, 3, 1], [4, 2]])
    assert reduce(ChainSet.from_lists([[9, 7, 5, 3, 1], [8], [4, 2]])) == ChainSet.from_lists([[9, 7, 5, 3, 1], [4, 2]])
    assert reduce(ChainSet.from_lists([[5, 3, 1]])) == ChainSet.from_lists([[3, 1]])


def test_reduce_rejects_base_parameter():
    with pytest.raises(ValueError):
        reduce(ChainSet.from_lists([[3, 1]]))


def test_brute_force_base_case():
    assert brute_force_enumerate(2) == [ChainSet.from_lists([[3, 1]])]


def test_brute_force_rank_four():
    assert set(brute_force_enumerate(4)) == set(generate(4))


def test_brute_force_larger_entry_bound_finds_nothing_new():
    for n in range(2, 9):
        assert set(brute_force_enumerate(n, max_entry=2 * n + 1)) == set(generate(n))


def test_interlacing_involution_equivalence_over_all_decompositions():
    for n in range(2, 8):
        for cs in all_chain_decompositions(n):
            s = extract_involution(cs)
            assert is_involution(s)
            assert is_interlaced(cs) == involves_all_simple_reflections(s)
            assert verify_spin_identity(spin_lowest_k_type(cs)), cs.to_lists()


def test_is_u_small_examples():
    two_rho = tuple(2 * r for r in rho_doubled(5))
    assert is_u_small(two_rho)
    tau = tuple(2 * x for x in (10, 9, 8, 7, 5, 5, 4, 3, 2))
    assert is_u_small(tau)
    bumped = (two_rho[0] + 2 * len(two_rho),) + two_rho[1:]
    assert not is_u_small(bumped)


def test_build_record_small_rank_table():
    # rank 3
    rec = build_record(ChainSet.from_lists([[5, 3, 1]]))
    assert (rec.lambda2_fund, rec.s, rec.tau_fund) == ((2, 2), (3, 2, 1), (0, 0))
    rec = build_record(ChainSet.from_lists([[3, 1], [2]]))
    assert (rec.lambda2_fund, rec.s, rec.tau_fund) == ((1, 1), (3, 2, 1), (1, 1))
    # rank 4
    rec = build_record(ChainSet.from_lists([[5, 3, 1], [4]]))
    assert (rec.lambda2_fund, rec.s, rec.tau_fund) == ((1, 1, 2), (4, 2, 3, 1), (2, 0, 1))
    rec = build_record(ChainSet.from_lists([[5, 3, 1], [2]]))
    assert (rec.lambda2_fund, rec.s, rec.tau_fund) == ((2, 1, 1), (4, 2, 3, 1), (1, 0, 2))
    rec = build_record(ChainSet.from_lists([[3, 1], [4, 2]]))
    assert (rec.lambda2_fund, rec.s, rec.tau_fund) == ((1, 1, 1), (3, 4, 1, 2), (1, 1, 1))


def test_build_record_multiplicity_flag():
    rec = build_record(ChainSet.from_lists([[5, 3, 1], [4]]), with_multiplicity=True)
    assert rec.multiplicity == 1
    assert rec.u_small
    assert rec.gamma == (7, 7, 7, 5)


def test_build_record_rejects_non_scattered():
    with pytest.raises(ValueError):
        build_record(ChainSet.from_lists([[5, 3]]))
    with pytest.raises(ValueError):
        build_record(ChainSet.from_lists([[10, 8], [9, 7], [6, 4], [5, 3, 1]]))


def test_record_json_shape():
    rec = build_record(ChainSet.from_lists([[5, 3, 1], [4]]), with_multiplicity=True)
    payload = json.loads(json.dumps(rec.as_dict()))
    assert payload == {
        "n": 4,
        "chains": [[5, 3, 1], [4]],
        "lambda2_fund": [1, 1, 2],
        "s": [4, 2, 3, 1],
        "tau_fund": [2, 0, 1],
        "gamma": [7, 7, 7, 5],
        "u_small": True,
        "multiplicity": 1,
    }


def test_spherical_family_worked_cases():
    assert spherical_family(3, 2) == ChainSet.from_lists([[5, 3, 1], [4, 2]])
    assert to_fundamental(lambda_doubled(spherical_family(3, 2))) == (1, 1, 1, 1)
    assert spherical_family(5, 2) == ChainSet.from_lists([[9, 7, 5, 3, 1], [6, 4]])
    assert to_fundamental(lambda_doubled(spherical_family(5, 2))) == (2, 1, 1, 1, 1, 2)
    assert spherical_family(2, 1) == ChainSet.from_lists([[3, 1], [2]])
    assert to_fundamental(lambda_doubled(spherical_family(2, 1))) == (1, 1)


def test_spherical_family_validation():
    with pytest.raises(ValueError):
        spherical_family(2, 2)
    with pytest.raises(ValueError):
        spherical_family(3, 1)
    with pytest.raises(ValueError):
        spherical_family(1, 2)
