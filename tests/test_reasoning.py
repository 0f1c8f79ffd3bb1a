import itertools
import random

import pytest

from twotier import domainlogic, reasoning
from twotier.domainlogic import (
    Atomic,
    Bottom,
    ConceptAssertion,
    DataAssertion,
    DomainInterpretation,
    DomainSignature,
    ExistsData,
    ExistsRole,
    KnowledgeBase,
    NotC,
    RoleAssertion,
    Subsumption,
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
    over the same universe and value pool."""
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
        verdict = reasoning.entails(
            premises, (goal,), kb, fresh_witnesses=0, extra_values=(2,)
        )
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


def test_negate_assertion_roundtrip_examples():
    f = ConceptAssertion(A, "c")
    neg = reasoning.negate_assertion(f)
    m = next(enumerate_models((0,)))
    assert satisfies(m, f) != satisfies(m, neg)


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
