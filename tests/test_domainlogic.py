import pytest

from twotier.errors import UndeclaredSymbol
from twotier.domainlogic import (
    AndC,
    Atomic,
    Bottom,
    ConceptAssertion,
    DataAssertion,
    DomainInterpretation,
    ExistsData,
    ExistsRole,
    ForallData,
    ForallRole,
    KnowledgeBase,
    Nominal,
    NotC,
    OrC,
    RoleAssertion,
    Subsumption,
    Top,
    concept_extension,
    constants_of_formulas,
    definition_graph,
    equivalence,
    is_acyclic,
    satisfies,
    signature_of,
)


@pytest.fixture
def interp():
    return DomainInterpretation(
        universe=frozenset({"x", "y", "z"}),
        concept_ext={"A": frozenset({"x", "y"}), "B": frozenset({"y"})},
        abs_role_ext={"r": frozenset({("x", "y"), ("y", "z")})},
        conc_role_ext={"t": frozenset({("x", 4), ("y", 4), ("y", 0)})},
        nominal_map={"x": "x", "y": "y", "z": "z"},
    )


def ext(c, interp):
    return set(concept_extension(c, interp))


def test_boolean_connectives(interp):
    A, B = Atomic("A"), Atomic("B")
    assert ext(Top(), interp) == {"x", "y", "z"}
    assert ext(Bottom(), interp) == set()
    assert ext(NotC(A), interp) == {"z"}
    assert ext(AndC(A, B), interp) == {"y"}
    assert ext(OrC(NotC(A), B), interp) == {"y", "z"}
    assert ext(Nominal("y"), interp) == {"y"}


def test_role_quantifiers(interp):
    A, B = Atomic("A"), Atomic("B")
    assert ext(ExistsRole("r", B), interp) == {"x"}
    # z has no r-successor, so the universal holds vacuously there
    assert ext(ForallRole("r", B), interp) == {"x", "z"}
    assert ext(ForallRole("r", NotC(AndC(A, B))), interp) == {"y", "z"}


def test_data_quantifiers(interp):
    assert ext(ExistsData("t", 4), interp) == {"x", "y"}
    assert ext(ExistsData("t", 0), interp) == {"y"}
    # x's only t-value is 4; z has none
    assert ext(ForallData("t", 4), interp) == {"x", "z"}
    # the paper's NonZero pattern: no t-successor equal to 0
    assert ext(NotC(ExistsData("t", 0)), interp) == {"x", "z"}


def test_satisfaction_of_formulas(interp):
    A, B = Atomic("A"), Atomic("B")
    assert satisfies(interp, Subsumption(B, A))
    assert not satisfies(interp, Subsumption(A, B))
    assert satisfies(interp, ConceptAssertion(A, "x"))
    assert not satisfies(interp, ConceptAssertion(B, "x"))
    assert satisfies(interp, RoleAssertion("r", "x", "y"))
    assert not satisfies(interp, RoleAssertion("r", "x", "z"))
    assert satisfies(interp, DataAssertion("t", "x", 4))
    assert not satisfies(interp, DataAssertion("t", "z", 4))


def test_undeclared_symbols_raise(interp):
    with pytest.raises(UndeclaredSymbol):
        satisfies(interp, ConceptAssertion(Atomic("Missing"), "x"))
    with pytest.raises(UndeclaredSymbol):
        satisfies(interp, ConceptAssertion(Atomic("A"), "nobody"))


def test_equivalence_expands_to_two_subsumptions():
    A = Atomic("A")
    body = ExistsRole("r", Atomic("B"))
    one, two = equivalence(A, body)
    assert one == Subsumption(A, body)
    assert two == Subsumption(body, A)


def test_signature_and_constants():
    formulas = (
        Subsumption(ExistsRole("r", ExistsData("t", 4)), Atomic("A")),
        ConceptAssertion(Atomic("A"), "c"),
        DataAssertion("t", "s", 2),
    )
    sig = signature_of(formulas)
    assert sig.atomic_concepts == {"A"}
    assert sig.abstract_roles == {"r"}
    assert sig.concrete_roles == {"t"}
    assert sig.nominals == {"c", "s"}
    assert constants_of_formulas(formulas) == {4, 2}


def test_acyclicity_scan():
    A, B, C = Atomic("A"), Atomic("B"), Atomic("C")
    acyclic = (*equivalence(A, AndC(B, C)), Subsumption(B, C))
    assert is_acyclic(acyclic)
    # a paired A <= B / B <= A is read as the benign definition A == B
    assert is_acyclic((Subsumption(A, B), Subsumption(B, A)))
    cyclic = equivalence(A, ExistsRole("r", A))
    assert not is_acyclic(cyclic)
    through_def = (*equivalence(A, ExistsRole("r", B)), Subsumption(B, A))
    assert not is_acyclic(through_def)
    graph = definition_graph(acyclic)
    assert graph["A"] >= {"B", "C"}


def test_corpus_knowledge_bases_are_acyclic(corrected, verbatim):
    assert is_acyclic(corrected[1].axioms)
    assert is_acyclic(verbatim[1].axioms)


def test_closure_and_functionality_axioms(corrected):
    kb = corrected[1]
    closure = kb.closure_axioms()
    rendered = {str(f) for f in closure}
    assert "(all wheels . {wheelsVar})(c)" in rendered
    hv4 = DataAssertion("hasValue", "wheelsVar", 4)
    func = kb.value_functionality_axioms((hv4,))
    assert str(func[0]) == "(all hasValue . 4)(wheelsVar)"
    assert kb.background[: len(kb.axioms)] == kb.axioms
    assert set(closure) <= set(kb.background)
    assert kb.query_axioms((hv4,)) == func
    # a triple K asserts is closed in the background, not per query
    with_hv4 = KnowledgeBase(kb.signature, kb.axioms + (hv4,), kb.stubs)
    assert func[0] in with_hv4.background
    assert with_hv4.query_axioms((hv4,)) == ()
    off = kb.with_closure(False)
    assert off.background == off.axioms
    assert off.query_axioms((hv4,)) == ()


def test_a_kb_holds_its_reasoner_state_in_one_reasoner(corrected):
    """The reasoner's slot and memos live on `kb.reasoner`, one per kb:
    a kb with closure switched holds its own."""
    kb = corrected[1]
    for name in ("refutations", "detachments", "grounding", "background_reads_values"):
        assert not hasattr(kb, name)
    assert kb.with_closure(False).reasoner is not kb.reasoner
