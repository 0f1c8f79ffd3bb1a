import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from twotier import statelogic
from twotier.errors import UnboundVariable
from twotier.statelogic import (
    And,
    Eq,
    Lit,
    Not,
    TRUE,
    Var,
    compile_formula,
    compile_term,
    conj,
    conjuncts,
    constants_of,
    disj,
    holds,
    same_state,
    state_implies,
    state_implies_counterexample,
    substitute,
)

from tests.compatibility import characteristic_formula
from tests.oracles import eval_term, neq, walk_holds

VARS = ("a", "b", "c")
VALUES = (-1, 0, 1, 2)

terms = st.one_of(
    st.sampled_from(VALUES).map(Lit),
    st.sampled_from(VARS).map(Var),
)


@st.composite
def formulas(draw, depth=3, leaves=terms):
    if depth == 0:
        return Eq(draw(leaves), draw(leaves))
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return Eq(draw(leaves), draw(leaves))
    if choice == 1:
        return Not(draw(formulas(depth - 1, leaves)))
    return And(draw(formulas(depth - 1, leaves)), draw(formulas(depth - 1, leaves)))


@st.composite
def states(draw):
    return {v: draw(st.sampled_from(VALUES)) for v in VARS}


def all_states(values=VALUES, names=VARS):
    for combo in itertools.product(values, repeat=len(names)):
        yield dict(zip(names, combo))


def test_eval_and_holds_basics():
    sigma = {"a": 3, "b": 0}
    assert eval_term(Lit(7), sigma) == 7
    assert eval_term(Var("a"), sigma) == 3
    assert holds(Eq(Var("a"), Lit(3)), sigma)
    assert not holds(Eq(Var("a"), Var("b")), sigma)
    assert holds(neq(Var("a"), Lit(0)), sigma)
    assert holds(TRUE, sigma)
    with pytest.raises(UnboundVariable):
        eval_term(Var("zz"), sigma)


@given(formulas(), states(), st.sampled_from(VARS), terms)
@settings(max_examples=300)
def test_substitution_lemma(phi, sigma, v, e):
    # holds(phi[v\e], sigma) == holds(phi, sigma[v -> eval(e, sigma)])
    updated = {**sigma, v: eval_term(e, sigma)}
    assert holds(substitute(phi, v, e), sigma) == holds(phi, updated)


@given(formulas(), terms, states(), st.permutations(VARS))
@settings(max_examples=300)
def test_compiled_formulas_agree_with_holds(phi, t, sigma, order):
    """compile_formula, and holds, its one-state form, against the
    recursive semantics."""
    names = tuple(order)
    values = tuple(sigma[v] for v in names)
    assert compile_formula(phi, names)(values) == walk_holds(phi, sigma)
    assert holds(phi, {v: sigma[v] for v in names}) == walk_holds(phi, sigma)
    assert compile_term(t, names)(values) == eval_term(t, sigma)


def test_a_compiled_formula_over_an_unbound_variable_is_refused():
    with pytest.raises(UnboundVariable):
        compile_formula(Eq(Var("zz"), Lit(0)), VARS)


@pytest.mark.parametrize("first", ["x", "y"])
def test_a_missing_variable_raises_whatever_the_conjunct_order(first):
    # y is missing: the conjunct over x is false, and whether it comes
    # first or second, the missing y is refused, not short-circuited
    x1, y2 = Eq(Var("x"), Lit(1)), Eq(Var("y"), Lit(2))
    phi = And(x1, y2) if first == "x" else And(y2, x1)
    with pytest.raises(UnboundVariable) as raised:
        holds(phi, {"x": 0})
    assert raised.value.name == "y"


@given(states())
def test_characteristic_formula_identifies_state(sigma):
    chi = characteristic_formula(sigma)
    for tau in all_states():
        assert holds(chi, tau) == (tau == sigma)


def strip_true(phi):
    """A normal form: trivially-true conjuncts dropped and every
    conjunction associated to the left, under negations too.  The oracle
    for `same_state`, which holds when the normal forms are equal."""
    if isinstance(phi, Not):
        return Not(strip_true(phi.arg))
    if isinstance(phi, And):
        return conj(strip_true(c) for c in conjuncts(phi) if c != TRUE)
    return phi


@given(formulas())
@settings(max_examples=200)
def test_same_state_ignores_true_conjuncts(phi):
    conjunction = And(TRUE, And(phi, TRUE))
    assert same_state(conjunction, phi) and same_state(phi, conjunction)
    assert same_state(Not(conjunction), Not(phi))
    for sigma in all_states():
        assert holds(strip_true(conjunction), sigma) == holds(conjunction, sigma)


def test_same_state_ignores_associativity():
    a, b, c = Eq(Var("a"), Lit(1)), Eq(Var("b"), Lit(2)), neq(Var("c"), Lit(0))
    assert same_state(And(a, And(b, c)), And(And(a, b), c))
    assert same_state(Not(And(a, And(b, c))), Not(And(And(a, b), c)))
    assert same_state(TRUE, And(TRUE, TRUE)) and same_state(And(TRUE, TRUE), TRUE)
    assert not same_state(And(a, b), And(b, a))
    assert not same_state(Not(a), a) and not same_state(Not(And(a, b)), Not(a))
    assert list(conjuncts(And(And(a, b), c))) == [a, b, c]


@st.composite
def nested(draw, parts):
    """A conjunction of parts, in order, nested at random."""
    if len(parts) == 1:
        return parts[0]
    cut = draw(st.integers(1, len(parts) - 1))
    return And(draw(nested(parts[:cut])), draw(nested(parts[cut:])))


@st.composite
def variants(draw, phi):
    """phi with its conjunctions re-associated and true conjuncts
    inserted at random, under negations too."""
    if isinstance(phi, Not):
        return Not(draw(variants(phi.arg)))
    if isinstance(phi, Eq):
        parts = [phi]
    else:
        parts = [draw(variants(c)) for c in conjuncts(phi)]
    for _ in range(draw(st.integers(0, 2))):
        parts.insert(draw(st.integers(0, len(parts))), TRUE)
    return draw(nested(parts))


@st.composite
def state_pairs(draw):
    phi = draw(formulas())
    kind = draw(st.sampled_from(("variant", "negated variant", "unrelated")))
    if kind == "unrelated":
        return phi, draw(formulas())
    a, b = draw(variants(phi)), draw(variants(phi))
    return (Not(a), Not(b)) if kind == "negated variant" else (a, b)


@given(state_pairs())
@settings(max_examples=300)
def test_same_state_is_equality_of_the_normal_form(pair):
    a, b = pair
    assert same_state(a, b) == (strip_true(a) == strip_true(b))
    if same_state(a, b):
        for sigma in all_states():
            assert holds(a, sigma) == holds(b, sigma)


def test_conj_disj_semantics():
    a, b = Eq(Var("a"), Lit(1)), Eq(Var("b"), Lit(2))
    assert conj(()) == TRUE
    both = conj((a, b))
    either = disj(a, b)
    for sigma in all_states():
        assert holds(both, sigma) == (holds(a, sigma) and holds(b, sigma))
        assert holds(either, sigma) == (holds(a, sigma) or holds(b, sigma))


def test_constants():
    phi = And(Eq(Var("a"), Lit(4)), neq(Var("b"), Lit(0)))
    assert constants_of(phi) == {4, 0}


@given(formulas())
@settings(max_examples=100)
def test_state_implies_reflexive(phi):
    assert state_implies(phi, phi)


def test_state_implies_examples():
    a4 = Eq(Var("a"), Lit(4))
    b2 = Eq(Var("b"), Lit(2))
    assert state_implies(And(a4, b2), a4)
    assert not state_implies(a4, b2)
    cex = state_implies_counterexample(a4, b2)
    assert holds(a4, cex) and not holds(b2, cex)
    assert state_implies_counterexample(And(a4, b2), a4) is None


@given(formulas(), formulas(), formulas())
@settings(max_examples=60)
def test_state_implies_transitive(p, q, r):
    if state_implies(p, q) and state_implies(q, r):
        assert state_implies(p, r)


def test_counterexample_soundness_is_exhaustive_at_bound():
    # if no counterexample is reported, none exists over the bound
    phi1 = neq(Var("a"), Lit(0))
    phi2 = Eq(Var("a"), Lit(2))
    cex = state_implies_counterexample(phi1, phi2)
    assert cex is not None
    assert holds(phi1, cex) and not holds(phi2, cex)


def terms_of(phi):
    """The terms of phi, left to right."""
    if isinstance(phi, Eq):
        return [phi.lhs, phi.rhs]
    if isinstance(phi, Not):
        return terms_of(phi.arg)
    return terms_of(phi.lhs) + terms_of(phi.rhs)


def first_counter_state(phi1, phi2):
    """The first state that satisfies phi1 but not phi2, in the product
    order over the small-model domain: the constants of both formulas, 0,
    and one fresh value per variable."""
    both = terms_of(phi1) + terms_of(phi2)
    names = sorted({t.name for t in both if isinstance(t, Var)})
    constants = {t.value for t in both if isinstance(t, Lit)} | {0}
    fresh = max(abs(n) for n in constants) + 1
    values = sorted(constants | set(range(fresh, fresh + len(names))))
    for combo in itertools.product(values, repeat=len(names)):
        sigma = dict(zip(names, combo))
        if walk_holds(phi1, sigma) and not walk_holds(phi2, sigma):
            return sigma
    return None


@st.composite
def implications(draw):
    # constant pools with negative constants, with and without 0
    constants = draw(st.sampled_from(((-2, 0, 3), (-1, 2), (-3, -1), (5,))))
    leaves = st.one_of(
        st.sampled_from(constants).map(Lit), st.sampled_from(VARS).map(Var)
    )
    p, q = draw(formulas(leaves=leaves)), draw(formulas(leaves=leaves))
    # the last two pairs are valid
    return draw(st.sampled_from(((p, q), (And(p, q), p), (p, disj(q, p)))))


FALSE = Not(TRUE)
A1, B2 = Eq(Var("a"), Lit(1)), Eq(Var("b"), Lit(2))
DISTINCT = conj(
    neq(x, y) for x, y in itertools.combinations([Lit(0), *map(Var, VARS)], 2)
)


@given(implications())
@settings(max_examples=300, deadline=None)
# conjuncts that name no variable, decided before the search
@example((FALSE, A1))
@example((And(A1, FALSE), B2))
@example((A1, TRUE))
@example((Eq(Lit(1), Lit(1)), Eq(Lit(1), Lit(2))))
@example((And(A1, Eq(Lit(3), Lit(3))), neq(Lit(3), Lit(-1))))
# a disjunctive conclusion: its negation is one conjunct over a, b and c
@example((neq(Var("c"), Lit(0)), disj(A1, disj(B2, Eq(Var("c"), Var("a"))))))
@example((And(A1, B2), disj(neq(Var("b"), Lit(2)), Eq(Var("c"), Lit(0)))))
# three variables, nonzero and pairwise distinct: one fresh value each
@example((DISTINCT, FALSE))
def test_counterexample_is_the_first_state_of_the_enumeration(pair):
    phi1, phi2 = pair
    assert state_implies_counterexample(phi1, phi2) == first_counter_state(phi1, phi2)


def test_a_chain_of_equalities_is_decided_without_enumerating(monkeypatch):
    # the search checks 34 conjuncts on the two queries below
    checks = []
    compile_conjunct = statelogic.compile_formula

    def counted(phi, names):
        check = compile_conjunct(phi, names)

        def counted_check(values):
            checks.append(phi)
            if len(checks) > 100:
                raise AssertionError("enumerated the small-model domain")
            return check(values)

        return counted_check

    monkeypatch.setattr(statelogic, "compile_formula", counted)
    names = "abcdefgh"
    chain = conj(Eq(Var(x), Var(y)) for x, y in zip(names, names[1:]))
    # nine values over eight variables: 9**8 states to enumerate
    assert state_implies(chain, Eq(Var("a"), Var("h")))
    assert state_implies_counterexample(chain, Eq(Var("a"), Lit(0))) == {
        x: 1 for x in names
    }
    assert checks
