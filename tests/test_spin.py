import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinchains.chains import ChainSet, is_linked
from spinchains.spin import (
    AlgorithmViolation,
    AppliedRule,
    _rules,
    _spin_identity,
    dirac_report,
    lowest_k_type,
    spin_lowest_k_type,
    verify_spin_identity,
)
from spinchains.weights import dominant, norm_sq, rho_doubled, spin_norm_sq

from test_chains import EX22, chain_sets, reordered_chain_sets


def test_lowest_k_type_worked_example():
    assert lowest_k_type(EX22) == tuple(2 * x for x in (9, 9, 6, 5, 5, 5, 5, 5, 4))


def test_lowest_k_type_single_chain_is_det_power():
    assert lowest_k_type(ChainSet.from_lists([[5, 3, 1]])) == (6, 6, 6)


def test_lowest_k_type_spherical_pair_is_constant():
    assert lowest_k_type(ChainSet.from_lists([[5, 3, 1], [4, 2]])) == (6,) * 5


class TauLayout:
    """Per-chain rows of coordinates, one row per chain in canonical order.

    Row i starts as the constant k_i repeated d_i times; rules overwrite
    slots, and every slot may be written at most once.
    """

    def __init__(self, chains):
        self.chains = chains
        self.rows = [[c.avg] * c.length for c in chains]
        self._written = [[False] * c.length for c in chains]

    def write(self, row, pos, value):
        if not 0 <= pos < len(self.rows[row]):
            raise AlgorithmViolation(f"slot {pos} outside row {row}")
        if self._written[row][pos]:
            raise AlgorithmViolation(f"slot {pos} of row {row} written twice")
        self._written[row][pos] = True
        self.rows[row][pos] = value


def classify_link(ci, cj):
    """Which rule the linked pair ci, cj falls under, with its parameter.

    ci precedes cj in canonical order.  Linked chains have opposite parity,
    so (C_{j,1} - C_{i,d_i} + 1)/2 is an exact integer.
    """
    assert is_linked(ci, cj) and (-ci.avg, ci.length) < (-cj.avg, cj.length)
    span = cj.top - ci.bottom
    assert span % 2 == 1, "linked chains must have opposite parity"
    param = (span + 1) // 2
    if ci.top > cj.top:
        return ("a" if cj.length <= param else "b"), param
    return "c", param


def apply_rule(layout, i, j, kind, param):
    """Rewrite rows i and j of the layout in place according to the rule."""
    ci, cj = layout.chains[i], layout.chains[j]
    ki, kj = ci.avg, cj.avg
    if kind == "a":
        for t in range(cj.length):
            layout.write(i, ci.length - param + t, ki + param - t)
            layout.write(j, t, kj - param + t)
    elif kind == "b":
        for t in range(param):
            layout.write(i, ci.length - param + t, ki + 1 + t)
            layout.write(j, t, kj - 1 - t)
    else:
        for t in range(ci.length):
            layout.write(i, t, ki + (param - ci.length + 1) + t)
            layout.write(j, param - ci.length + t, kj - (param - ci.length + 1) - t)


def tau_by_layout(cs):
    """(rows, trace, tau) of spin_lowest_k_type(cs), the slow way.

    The reference for the rule engine `spin._rules`: the chains in their
    defining order (-avg, length), every pair tested with is_linked,
    classified and rewritten on a write-once ChainSet layout.
    """
    ordered = tuple(sorted(cs.chains, key=lambda c: (-c.avg, c.length)))
    layout = TauLayout(ordered)
    trace = []
    for m in range(1, len(ordered)):
        for i in range(m):
            if is_linked(ordered[i], ordered[m]):
                kind, param = classify_link(ordered[i], ordered[m])
                apply_rule(layout, i, m, kind, param)
                trace.append((kind, i, m, param))
    tau = tuple(sorted((2 * x for row in layout.rows for x in row), reverse=True))
    return tuple(map(tuple, layout.rows)), tuple(trace), tau


@pytest.mark.parametrize(
    "lists, kind, param",
    [
        ([[9, 7, 5, 3, 1], [4]], "a", 2),
        ([[10, 8], [9, 7, 5, 3, 1]], "b", 1),
        ([[9, 7, 5, 3, 1], [6]], "c", 2),
    ],
    ids=["a", "b", "c"],
)
def test_classify_link_worked_pairs(lists, kind, param):
    res = spin_lowest_k_type(ChainSet.from_lists(lists))
    assert res.trace == (AppliedRule(kind, 0, 1, param),)


def test_apply_rule_a_on_worked_rows():
    res = spin_lowest_k_type(ChainSet.from_lists([[9, 7, 5, 3, 1], [4]]))
    assert res.rows == ((5, 5, 5, 7, 5), (2,))


def test_apply_rule_refuses_second_write():
    # overlapping pairs, which a ChainSet rejects: {4,2}, {3,1} and {2}
    with pytest.raises(AlgorithmViolation, match="slot 0 of row 2 written twice"):
        _rules(((4, 2), (3, 2), (2, 1)))


def test_apply_rule_names_the_first_clash_inside_a_run():
    # overlapping pairs: {6,4,2}, {5,3,1} and {3}, in canonical order rows
    # 0, 2 and 1.  Rule (a) on rows 0 and 1 writes slot 2 of row 0; rule (b)
    # on rows 0 and 2 then writes slots 1 and 2 of row 0, and slot 1 is free
    with pytest.raises(AlgorithmViolation, match="slot 2 of row 0 written twice"):
        _rules(((6, 3), (5, 3), (3, 1)))


def test_rules_assert_opposite_parity():
    # {5,3,1} and {3} share an entry and a parity
    with pytest.raises(AssertionError, match="opposite parity"):
        _rules(((5, 3), (3, 1)))


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


def spin_identity_by_generator(tau, lambda2) -> bool:
    """_spin_identity before its map form, kept as its oracle."""
    rho = rho_doubled(len(tau))
    lhs = dominant(t - r for t, r in zip(tau, rho))
    rhs = tuple(l - r for l, r in zip(lambda2, rho))
    return lhs == rhs


@given(st.lists(st.integers(-30, 30), min_size=1, max_size=10), st.randoms())
def test_spin_identity_equals_its_generator_form(tau, rng):
    # any integer tau, dominant or not, against the lambda2 that makes the
    # identity hold, a shuffle of it and a copy with one coordinate moved
    rho = rho_doubled(len(tau))
    holds = [g + r for g, r in zip(sorted((t - r for t, r in zip(tau, rho)), reverse=True), rho)]
    shuffled = rng.sample(holds, len(holds))
    moved = holds.copy()
    moved[rng.randrange(len(moved))] += rng.choice((-2, 2))
    for lambda2 in (holds, shuffled, moved):
        assert _spin_identity(tuple(tau), tuple(lambda2)) == spin_identity_by_generator(tau, lambda2)
    assert _spin_identity(tuple(tau), tuple(holds))


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


@given(chain_sets())
def test_rules_equal_the_layout_reference(cs):
    res = spin_lowest_k_type(cs)
    assert (res.rows, res.trace, res.tau) == tau_by_layout(cs)
