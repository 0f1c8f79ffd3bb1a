import functools
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from twotier import domainlogic, reasoning
from twotier.errors import BudgetExceeded
from twotier.domainlogic import (
    AndC,
    Atomic,
    Bottom,
    ConceptAssertion,
    DataAssertion,
    DomainInterpretation,
    DomainSignature,
    ExistsData,
    ExistsRole,
    ForallData,
    ForallRole,
    KnowledgeBase,
    Nominal,
    NotC,
    OrC,
    RoleAssertion,
    Stub,
    Subsumption,
    Top,
    equivalence,
    satisfies,
)

A = Atomic("A")
B = Atomic("B")


def tiny_kb(axioms=(), closure=False):
    sig = DomainSignature(
        atomic_concepts=frozenset({"A", "B"}),
        abstract_roles=frozenset({"r"}),
        concrete_roles=frozenset({"t"}),
        nominals=frozenset({"c", "s"}),
    )
    return KnowledgeBase(sig, tuple(axioms), (), closure)


def enumerate_models(values):
    """Every interpretation over universe {c, s} with nominal identity."""
    universe = ("c", "s")
    pairs = tuple(itertools.product(universe, universe))
    data_pairs = tuple(itertools.product(universe, values))
    for a_ext in itertools.chain.from_iterable(
        itertools.combinations(universe, k) for k in range(3)
    ):
        for b_ext in itertools.chain.from_iterable(
            itertools.combinations(universe, k) for k in range(3)
        ):
            for r_bits in range(1 << len(pairs)):
                r_ext = frozenset(
                    p for i, p in enumerate(pairs) if r_bits >> i & 1
                )
                for t_bits in range(1 << len(data_pairs)):
                    t_ext = frozenset(
                        p for i, p in enumerate(data_pairs) if t_bits >> i & 1
                    )
                    yield DomainInterpretation(
                        universe=frozenset(universe),
                        concept_ext={"A": frozenset(a_ext), "B": frozenset(b_ext)},
                        abs_role_ext={"r": r_ext},
                        conc_role_ext={"t": t_ext},
                        nominal_map={"c": "c", "s": "s"},
                    )


def oracle_entails(premises, conclusion, kb, values):
    for m in enumerate_models(values):
        if all(satisfies(m, f) for f in kb.axioms) and all(
            satisfies(m, f) for f in premises
        ):
            if not satisfies(m, conclusion):
                return False
    return True


POOL = (
    ConceptAssertion(A, "c"),
    ConceptAssertion(B, "s"),
    ConceptAssertion(NotC(A), "s"),
    RoleAssertion("r", "c", "s"),
    DataAssertion("t", "s", 1),
    ConceptAssertion(ExistsRole("r", B), "c"),
    ConceptAssertion(ExistsData("t", 1), "s"),
)

AXIOM_POOL = (
    Subsumption(A, B),
    Subsumption(ExistsRole("r", B), A),
    Subsumption(ExistsData("t", 1), B),
    Subsumption(A, ExistsRole("r", B)),
)


def test_solver_matches_exhaustive_oracle():
    """Bounded countermodel search agrees with brute-force enumeration
    over the same universe.  Any value pool that holds the query's
    constants, 0 and one fresh value decides the same queries, so the
    oracle's pool may differ from the search's."""
    rng = random.Random(7)
    values = (0, 1, 2)  # occurring {1}, zero, one fresh
    checked = 0
    for _ in range(120):
        premises = tuple(
            sorted(rng.sample(POOL, rng.randint(0, 3)), key=str)
        )
        axioms = tuple(sorted(rng.sample(AXIOM_POOL, rng.randint(0, 2)), key=str))
        goal = rng.choice(POOL)
        kb = tiny_kb(axioms)
        verdict = reasoning.entails(premises, (goal,), kb, fresh_witnesses=0)
        expected = oracle_entails(premises, goal, kb, values)
        if isinstance(verdict, reasoning.Unknown):
            # only permitted for cyclic axiom sets
            continue
        assert verdict.is_entailed == expected, (premises, axioms, goal)
        checked += 1
    assert checked >= 100


def test_countermodels_are_genuine():
    kb = tiny_kb((Subsumption(A, B),))
    verdict = reasoning.entails(
        (ConceptAssertion(B, "c"),), (ConceptAssertion(A, "c"),), kb
    )
    assert isinstance(verdict, reasoning.NotEntailed)
    m = verdict.countermodel
    assert satisfies(m, ConceptAssertion(B, "c"))
    assert satisfies(m, Subsumption(A, B))
    assert not satisfies(m, ConceptAssertion(A, "c"))


def test_entailed_needs_acyclic_axioms():
    cyclic = tiny_kb(equivalence(A, ExistsRole("r", A)))
    verdict = reasoning.entails(
        (ConceptAssertion(B, "c"),), (ConceptAssertion(Atomic("Top") if False else B, "c"),), cyclic
    )
    # premise inclusion stays Entailed even under a cyclic TBox
    assert verdict.is_entailed
    from twotier.domainlogic import Top

    verdict = reasoning.entails(
        (), (ConceptAssertion(Top(), "c"),), cyclic
    )
    assert isinstance(verdict, reasoning.Unknown)


def test_acyclicity_is_scanned_once_per_kb(monkeypatch):
    graphs = []
    build = domainlogic.definition_graph

    def counting(axioms):
        graphs.append(axioms)
        return build(axioms)

    monkeypatch.setattr(domainlogic, "definition_graph", counting)
    kb = tiny_kb((Subsumption(A, B),))
    premises = (ConceptAssertion(A, "c"), ConceptAssertion(A, "s"))
    for individual in ("c", "s"):
        verdict = reasoning.entails(
            premises, (ConceptAssertion(B, individual),), kb
        )
        assert verdict.certificate.startswith("no countermodel")
    assert len(graphs) == 1


def test_consistency():
    kb = tiny_kb((Subsumption(A, Bottom()),))
    assert not reasoning.consistent((ConceptAssertion(A, "c"),), kb)
    assert reasoning.consistent((ConceptAssertion(B, "c"),), kb)


def test_closure_changes_stub_entailments(corrected):
    kb = corrected[1]
    HFW = ConceptAssertion(Atomic("HasFourWheels"), "c")
    hv4 = DataAssertion("hasValue", "wheelsVar", 4)
    assert reasoning.entails((HFW,), (hv4,), kb).is_entailed
    off = kb.with_closure(False)
    flipped = reasoning.entails((HFW,), (hv4,), off)
    assert isinstance(flipped, reasoning.NotEntailed)
    # the witnessing direction does not need closure
    assert reasoning.entails((hv4,), (HFW,), off).is_entailed


def test_value_functionality_from_premises(corrected):
    kb = corrected[1]
    NZ = ConceptAssertion(Atomic("NonZero"), "wheelsVar")
    hv4 = DataAssertion("hasValue", "wheelsVar", 4)
    assert reasoning.entails((hv4,), (NZ,), kb).is_entailed
    hv0 = DataAssertion("hasValue", "wheelsVar", 0)
    assert isinstance(reasoning.entails((hv0,), (NZ,), kb), reasoning.NotEntailed)


# K's individuals are c and s; x occurs in no kb.  K's only constant is 1.
ATOMS = tuple(
    [ConceptAssertion(C, i) for C in (A, B, Atomic("N")) for i in "csx"]
    + [DataAssertion("t", i, v) for i in "csx" for v in (0, 1, 2, 5)]
    + [RoleAssertion("r", "c", i) for i in "sx"]
)
KB_AXIOMS = (
    Subsumption(A, B),
    Subsumption(ExistsData("t", 1), B),
    Subsumption(A, ForallData("t", 1)),
    Subsumption(ExistsRole("r", A), B),
    ConceptAssertion(A, "c"),
    RoleAssertion("r", "c", "s"),
    DataAssertion("t", "s", 1),
)


@st.composite
def kbs(draw):
    axioms = draw(st.lists(st.sampled_from(KB_AXIOMS), max_size=5, unique=True))
    if draw(st.integers(0, 3)) == 0:
        axioms += equivalence(A, ExistsRole("r", A))
    stubs = (Stub("r", "c", "s", "v"),) if draw(st.booleans()) else ()
    return KnowledgeBase(tiny_kb().signature, tuple(axioms), stubs, draw(st.booleans()))


@settings(max_examples=80, deadline=None)
@given(
    kb=kbs(),
    premises=st.lists(st.sampled_from(ATOMS), max_size=3),
    atoms=st.lists(st.sampled_from(ATOMS), max_size=10),
)
def test_entailed_atoms_matches_one_query_per_atom(kb, premises, atoms):
    """Atoms inside and outside the premises, over individuals and values
    inside and outside K, on acyclic and cyclic kbs: refuting atoms with
    earlier countermodels gives the per-atom verdicts."""
    kb.refutations.clear()
    fast = reasoning.entailed_atoms(premises, atoms, kb)
    kb.refutations.clear()
    slow = tuple(
        a for a in atoms if reasoning.entails(premises, (a,), kb).is_entailed
    )
    assert fast == slow


def test_equal_kbs_hash_equal():
    axioms = (Subsumption(A, B), ConceptAssertion(A, "c"))
    kb = tiny_kb(axioms)
    again = tiny_kb(list(axioms))
    assert kb is not again and kb == again and hash(kb) == hash(again)
    assert {kb: 1}[again] == 1
    assert kb != kb.with_closure(True)


def test_each_kb_keeps_its_own_answers(monkeypatch):
    searches = []
    search = reasoning.find_model

    def counting(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(reasoning, "find_model", counting)
    axioms = (Subsumption(A, B),)
    query = ((ConceptAssertion(A, "c"),), (ConceptAssertion(B, "c"),))
    kb = tiny_kb(axioms)
    assert reasoning.entails(*query, kb).is_entailed
    assert reasoning.entails(*query, kb).is_entailed
    assert len(searches) == 1
    # an equal kb built apart shares no answer with the first
    again = tiny_kb(list(axioms))
    assert again == kb
    assert reasoning.entails(*query, again).is_entailed
    assert len(searches) == 2


# every concept constructor, over tiny_kb's signature
CONCEPTS = st.recursive(
    st.one_of(
        st.sampled_from((Top(), Bottom(), A, B, Nominal("c"), Nominal("s"))),
        st.integers(0, 2).map(lambda v: ExistsData("t", v)),
        st.integers(0, 2).map(lambda v: ForallData("t", v)),
    ),
    lambda inner: st.one_of(
        inner.map(NotC),
        st.builds(AndC, inner, inner),
        st.builds(OrC, inner, inner),
        inner.map(lambda c: ExistsRole("r", c)),
        inner.map(lambda c: ForallRole("r", c)),
    ),
    max_leaves=4,
)
INDIVIDUALS = st.sampled_from(("c", "s"))
FORMULAS = st.one_of(
    st.builds(Subsumption, CONCEPTS, CONCEPTS),
    st.builds(ConceptAssertion, CONCEPTS, INDIVIDUALS),
    st.builds(RoleAssertion, st.just("r"), INDIVIDUALS, INDIVIDUALS),
    st.builds(DataAssertion, st.just("t"), INDIVIDUALS, st.integers(0, 2)),
)


@settings(max_examples=200, deadline=None)
@given(
    axioms=st.lists(FORMULAS, max_size=2),
    stubbed=st.booleans(),
    closure=st.booleans(),
    asserted=st.lists(FORMULAS, max_size=2),
    negated=st.lists(FORMULAS, max_size=2),
    fresh=st.integers(0, 2),
)
def test_models_satisfy_the_query(axioms, stubbed, closure, asserted, negated, fresh):
    """A model from the search satisfies K's effective axioms and the
    asserted formulas, and falsifies every negated one."""
    stubs = (Stub("r", "c", "s", "v"),) if stubbed else ()
    kb = KnowledgeBase(tiny_kb().signature, tuple(axioms), stubs, closure)
    # a few queries take the solver seconds; a smaller budget bounds them
    solve = functools.partial(reasoning._solve, budget=20_000)
    try:
        with mock.patch.object(reasoning, "_solve", solve):
            model = reasoning.find_model(
                asserted, kb, fresh_witnesses=fresh, negated=negated
            )
    except BudgetExceeded:
        return  # undecided: no model to check
    if model is None:
        return
    for f in kb.effective_axioms(asserted) + tuple(asserted):
        assert satisfies(model, f), f
    for f in negated:
        assert not satisfies(model, f), f


def test_grounding_repeats_no_literal():
    g = reasoning._Grounder(("c",), (0, 1), tiny_kb().signature)
    g.assert_formula(ConceptAssertion(AndC(A, A), "c"))
    assert g.clauses
    assert all(len(set(c)) == len(c) for c in g.clauses)


def test_truth_is_one_literal_with_one_unit_clause():
    g = reasoning._Grounder(("c", "s"), (0, 1), tiny_kb().signature)
    g.assert_formula(ConceptAssertion(OrC(Top(), Nominal("s")), "c"))
    g.assert_formula(Subsumption(Bottom(), A), holds=False)
    truths = [c for c in g.clauses if set(c) <= {g.true, -g.true}]
    assert truths == [(g.true,)]


def test_tautologies_do_not_change_the_model():
    g = reasoning._Grounder(("c", "s"), (0, 1, 2), tiny_kb().signature)
    for f in AXIOM_POOL + POOL[:4]:
        g.assert_formula(f)
    nvars = len(g.var_ids)
    model = reasoning._solve(g.clauses, nvars)
    assert model is not None
    tautology = (1, -1, nvars)
    for at in (0, len(g.clauses) // 2, len(g.clauses)):
        clauses = g.clauses[:at] + [tautology] + g.clauses[at:]
        assert reasoning._solve(clauses, nvars) == model
