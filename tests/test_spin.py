import dataclasses

import pytest
from hypothesis import given

from spinchains.chains import Chain, ChainSet, is_linked
from spinchains.spin import (
    AlgorithmViolation,
    Rule,
    TauLayout,
    apply_rule,
    classify_link,
    dirac_report,
    lowest_k_type,
    spin_lowest_k_type,
    verify_spin_identity,
)
from spinchains.weights import norm_sq, spin_norm_sq

from test_chains import EX22, chain_sets, reordered_chain_sets


def test_lowest_k_type_worked_example():
    assert lowest_k_type(EX22) == tuple(2 * x for x in (9, 9, 6, 5, 5, 5, 5, 5, 4))


def test_lowest_k_type_single_chain_is_det_power():
    assert lowest_k_type(ChainSet.from_lists([[5, 3, 1]])) == (6, 6, 6)


def test_lowest_k_type_spherical_pair_is_constant():
    assert lowest_k_type(ChainSet.from_lists([[5, 3, 1], [4, 2]])) == (6,) * 5


def test_classify_link_worked_pairs():
    assert classify_link(Chain(9, 5), Chain(4, 1)) == Rule("a", 2)
    assert classify_link(Chain(10, 2), Chain(9, 5)) == Rule("b", 1)
    assert classify_link(Chain(6, 1), Chain(9, 5)) == Rule("c", 2)


def test_classify_link_requires_linked_pair():
    with pytest.raises(ValueError):
        classify_link(Chain(10, 2), Chain(5, 3))


def test_classify_link_requires_canonical_precedence():
    with pytest.raises(ValueError):
        classify_link(Chain(4, 1), Chain(9, 5))


def test_apply_rule_a_on_worked_rows():
    layout = TauLayout((Chain(9, 5), Chain(4, 1)))
    apply_rule(layout, 0, 1, Rule("a", 2))
    assert layout.rows == [[5, 5, 5, 7, 5], [2]]


def test_apply_rule_refuses_second_write():
    layout = TauLayout((Chain(9, 5), Chain(4, 1)))
    apply_rule(layout, 0, 1, Rule("a", 2))
    with pytest.raises(AlgorithmViolation):
        apply_rule(layout, 0, 1, Rule("a", 2))


def test_single_chain_layout_unchanged():
    res = spin_lowest_k_type(ChainSet.from_lists([[9, 7, 5, 3, 1]]))
    assert res.rows == ((5, 5, 5, 5, 5),)
    assert res.trace == ()


def test_worked_example_full_run():
    res = spin_lowest_k_type(EX22)
    assert res.rows == ((9, 10), (8,), (4, 3, 5, 7, 5), (2,))
    assert res.tau == tuple(2 * x for x in (10, 9, 8, 7, 5, 5, 4, 3, 2))
    assert {(a.kind, a.i, a.j, a.param) for a in res.trace} == {
        ("a", 2, 3, 2),
        ("b", 0, 2, 1),
        ("c", 1, 2, 2),
    }


def test_identity_on_rank_two():
    res = spin_lowest_k_type(ChainSet.from_lists([[3, 1]]))
    assert res.tau == (4, 4)
    assert res.gamma == (5, 3)  # (5/2, 3/2) doubled
    assert verify_spin_identity(res)


def test_identity_fails_on_perturbed_tau():
    res = spin_lowest_k_type(EX22)
    perturbed = dataclasses.replace(res, tau=(res.tau[0] + 2,) + res.tau[1:])
    assert not verify_spin_identity(perturbed)


def test_identity_on_non_interlaced_parameter():
    cs = ChainSet.from_lists([[10, 8], [9, 7], [6, 4], [5, 3, 1]])
    assert verify_spin_identity(spin_lowest_k_type(cs))


def test_dirac_report_worked_values():
    gamma, mult = dirac_report(EX22)
    assert gamma == tuple(2 * x for x in (6, 6, 6, 6, 6, 6, 6, 6, 5))
    assert mult == 16
    assert dirac_report(ChainSet.from_lists([[3, 1]])) == ((5, 3), 1)
    assert dirac_report(ChainSet.from_lists([[5, 3, 1], [2]]))[1] == 2


def test_dirac_report_rejects_non_scattered():
    with pytest.raises(ValueError):
        dirac_report(ChainSet.from_lists([[5, 3]]))  # smallest entry 3
    with pytest.raises(ValueError):
        dirac_report(ChainSet.from_lists([[10, 8], [9, 7], [6, 4], [5, 3, 1]]))


@given(chain_sets())
def test_identity_holds_on_random_parameters(cs):
    res = spin_lowest_k_type(cs)
    assert verify_spin_identity(res)


@given(chain_sets())
def test_rules_only_redistribute(cs):
    res = spin_lowest_k_type(cs)
    assert sum(res.tau) == sum(lowest_k_type(cs))


@given(chain_sets())
def test_spin_norm_of_tau_is_norm_of_doubled_lambda(cs):
    res = spin_lowest_k_type(cs)
    assert spin_norm_sq(res.tau) == norm_sq(res.lambda2)


@given(chain_sets())
def test_rules_run_on_exactly_the_linked_pairs(cs):
    # is_linked is the oracle of the straddling test inlined in the loop
    res = spin_lowest_k_type(cs)
    ordered = res.chains
    linked = [(i, m) for m in range(len(ordered)) for i in range(m) if is_linked(ordered[i], ordered[m])]
    assert [(app.i, app.j) for app in res.trace] == linked


@given(reordered_chain_sets())
def test_canonical_order_invariance(pair):
    cs, shuffled = pair
    assert spin_lowest_k_type(cs) == spin_lowest_k_type(shuffled)
