import pytest
from hypothesis import given, settings, strategies as st

from twotier import assertions
from twotier.assertions import (
    ImplicationResult,
    assertion,
    assertion_holds,
    assertion_implies,
    same_assertion,
)
from twotier.domainlogic import Atomic, ConceptAssertion, DataAssertion
from twotier.errors import UnboundVariable
from twotier.kernel import CandidatePool, alpha_deduce
from twotier.lifting import SpecLifting
from twotier.statelogic import And, Eq, Lit, TRUE, Var
from twotier.status import ObligationStatus

from tests.oracles import TRIVIAL, neq

HFW = ConceptAssertion(Atomic("HasFourWheels"), "c")
SC = ConceptAssertion(Atomic("SmallCar"), "c")
hv4 = DataAssertion("hasValue", "wheelsVar", 4)


def lifting_for(kb):
    return SpecLifting.direct(kb, ("wheels", "doors", "bodyId"))


def test_rendering():
    assert str(TRIVIAL) == "[ - | - ]"
    a = assertion((HFW,), Eq(Var("wheels"), Lit(4)))
    assert str(a) == "[ HasFourWheels(c) | wheels == 4 ]"


def test_same_assertion_modulo_order_and_true():
    a = assertion((HFW, hv4), And(TRUE, Eq(Var("a"), Lit(1))))
    b = assertion((hv4, HFW), And(Eq(Var("a"), Lit(1)), TRUE))
    assert same_assertion(a, b)
    assert not same_assertion(a, assertion((HFW,), Eq(Var("a"), Lit(1))))


def test_assertion_holds(corrected):
    kb = corrected[1]
    lift = lifting_for(kb)
    a = assertion((HFW,), Eq(Var("wheels"), Lit(4)))
    assert assertion_holds({"wheels": 4}, a, kb, lift)
    assert not assertion_holds({"wheels": 2}, a, kb, lift)
    # state tier alone holds but the lifted state refutes the domain tier
    b = assertion((HFW,), TRUE)
    assert not assertion_holds({"wheels": 2}, b, kb, lift)


@pytest.mark.parametrize("domain", [(), (HFW,)])
@pytest.mark.parametrize("first", ["wheels", "doors"])
def test_assertion_holds_refuses_a_missing_variable_whatever_the_order(
    corrected, domain, first
):
    kb = corrected[1]
    wheels, doors = Eq(Var("wheels"), Lit(4)), Eq(Var("doors"), Lit(2))
    state = And(wheels, doors) if first == "wheels" else And(doors, wheels)
    with pytest.raises(UnboundVariable):
        assertion_holds({"wheels": 0}, assertion(domain, state), kb, lifting_for(kb))


def test_implication_branch_condition_strengthening(corrected):
    """Discharging a branch condition already present in the state tier."""
    kb = corrected[1]
    lift = lifting_for(kb)
    base = And(Eq(Var("nrDoors"), Lit(4)), neq(Var("bodyId"), Lit(0)))
    a1 = assertion((), And(base, Eq(Lit(4), Lit(4))))
    a2 = assertion((), base)
    assert assertion_implies(a1, a2, kb, lift).proved


def test_implication_reflexive(corrected, monkeypatch):
    """a ==> a is Proved without enumerating states or querying the
    reasoner, also up to domain order and trivially-true conjuncts."""
    kb = corrected[1]
    lift = lifting_for(kb)

    def unreachable(*_args):
        raise AssertionError("a reflexive implication ran a check")

    monkeypatch.setattr(assertions, "state_implies_counterexample", unreachable)
    monkeypatch.setattr(assertions.reasoning, "entails", unreachable)
    a = assertion((SC, hv4), And(Eq(Var("doors"), Lit(2)), neq(Var("bodyId"), Lit(0))))
    b = assertion((hv4, SC), And(TRUE, a.state))
    for rhs in (a, b):
        result = assertion_implies(a, rhs, kb, lift)
        assert result == ImplicationResult(ObligationStatus.PROVED, "")


def test_implication_failure_reports_counter_state(corrected):
    kb = corrected[1]
    lift = lifting_for(kb)
    r = assertion_implies(
        assertion((), Eq(Var("wheels"), Lit(2))),
        assertion((), Eq(Var("wheels"), Lit(4))),
        kb,
        lift,
    )
    assert r.status is ObligationStatus.FAILED
    assert r.counter_state is not None
    assert r.counter_state["wheels"] == 2


def test_implication_failure_reports_countermodel(corrected):
    kb = corrected[1]
    lift = lifting_for(kb)
    r = assertion_implies(assertion((HFW,)), assertion((SC,)), kb, lift)
    assert r.status is ObligationStatus.FAILED
    assert r.counter_model is not None


def test_domain_strengthening_is_sound(corrected):
    """Adding deduced kernel atoms to the domain tier never changes which
    states satisfy the assertion."""
    kb = corrected[1]
    lift = lifting_for(kb)
    pool = CandidatePool.build(kb, lift)
    base = assertion((SC,), TRUE)
    enriched = assertion(
        (SC, *alpha_deduce((SC,), kb, pool).atoms), TRUE
    )
    assert assertion_implies(enriched, base, kb, lift).proved
    assert assertion_implies(base, enriched, kb, lift).proved
    for wheels in (0, 2, 4):
        for doors in (0, 2, 4):
            sigma = {"wheels": wheels, "doors": doors, "bodyId": 1}
            assert assertion_holds(sigma, base, kb, lift) == assertion_holds(
                sigma, enriched, kb, lift
            )


@given(
    st.sampled_from((0, 2, 4)),
    st.sampled_from((0, 2, 4)),
    st.sampled_from((0, 1)),
)
@settings(max_examples=27, deadline=None)
def test_holds_respects_implication(wheels, doors, body):
    """Whenever a proved implication links two assertions, every state
    satisfying the first satisfies the second."""
    from tests.conftest import load_corpus

    _, kb = load_corpus("assembly_corrected")
    lift = lifting_for(kb)
    a1 = assertion((HFW,), And(Eq(Var("wheels"), Lit(4)), neq(Var("bodyId"), Lit(0))))
    a2 = assertion((HFW,), Eq(Var("wheels"), Lit(4)))
    assert assertion_implies(a1, a2, kb, lift).proved
    sigma = {"wheels": wheels, "doors": doors, "bodyId": body}
    if assertion_holds(sigma, a1, kb, lift):
        assert assertion_holds(sigma, a2, kb, lift)
