import functools
import itertools
import random
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from twotier import domainlogic, parsing, reasoning
from twotier.assertions import assertion, assertion_holds
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
from twotier.lifting import SpecLifting

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen_scaled  # noqa: E402

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
    kb.reasoner.refutations.clear()
    fast = reasoning.entailed_atoms(premises, atoms, kb)
    kb.reasoner.refutations.clear()
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


def test_premise_order_does_not_change_the_model():
    """Premises over the same variables in either order give one model:
    grounding them as they come would number A(c) or B(c) first, and
    the least model would differ."""
    either = ConceptAssertion(OrC(A, B), "c")
    other = ConceptAssertion(OrC(B, A), "c")
    kb = tiny_kb()
    first = reasoning.find_model((either, other), kb)
    assert first is not None
    assert reasoning.find_model((other, either), kb) == first


@st.composite
def queries_in_turn(draw):
    """Queries over several universes and value pools.  A query may be
    followed by one over the same universe that adds a data atom of K's
    individuals with a value the first does not hold: the slot then has K
    grounded over the first query's pool."""
    queries = []
    for _ in range(draw(st.integers(2, 6))):
        asserted = draw(st.lists(st.sampled_from(ATOMS), max_size=3))
        negated = draw(st.lists(st.sampled_from(ATOMS), max_size=1))
        fresh = draw(st.integers(0, 2))
        queries.append((asserted, negated, fresh))
        if draw(st.booleans()):
            held = {a.value for a in asserted + negated if isinstance(a, DataAssertion)}
            value = draw(st.sampled_from([v for v in (0, 2, 5, 7) if v not in held]))
            data = DataAssertion("t", draw(st.sampled_from("cs")), value)
            queries.append((asserted + [data], negated, fresh))
    return queries


@settings(max_examples=60, deadline=None)
@given(kb=kbs(), queries=queries_in_turn())
def test_a_kb_slot_gives_the_models_of_fresh_kbs(kb, queries):
    """Queries over several universes and value pools, answered in turn
    on one kb whose slot is refilled as the context changes, give the
    model each gives alone on an equal kb built afresh."""
    for asserted, negated, fresh in queries:
        alone = KnowledgeBase(kb.signature, kb.axioms, kb.stubs, kb.closure_enabled)
        expected = reasoning.find_model(
            asserted, alone, fresh_witnesses=fresh, negated=negated
        )
        model = reasoning.find_model(
            asserted, kb, fresh_witnesses=fresh, negated=negated
        )
        assert model == expected
        assert kb.reasoner.key is not None


def count_groundings(monkeypatch) -> list[tuple[tuple, tuple]]:
    """The (universe, value pool) of every grounder made from now on, in
    order."""
    groundings = []
    init = reasoning._Grounder.__init__

    def counting_init(self, universe, values):
        groundings.append((tuple(universe), tuple(values)))
        init(self, universe, values)

    monkeypatch.setattr(reasoning._Grounder, "__init__", counting_init)
    return groundings


@pytest.mark.hashseed
def test_fuzzing_grounds_k_once_per_context_switch(monkeypatch):
    """The fuzzer's queries on one set_i of s2 ground the kb's background
    axioms once each time the context changes, not once per search."""
    from twotier.calculus import VerifCtx, validate_judgement_empirically
    from twotier.strategy import verify_procedure

    kb_text, prog_text = gen_scaled.scaled(2, 1)
    kb = parsing.parse_kb(kb_text)
    program = parsing.parse_program(prog_text, kb)
    ctx = VerifCtx.build(program, kb)
    tree = verify_procedure(ctx, program.procedure("set_1"))
    assert tree.closed

    contexts = []
    search = reasoning.find_model

    def recording(*args, **kwargs):
        model = search(*args, **kwargs)
        contexts.append(kb.reasoner.key)
        return model

    groundings = count_groundings(monkeypatch)
    monkeypatch.setattr(reasoning, "find_model", recording)
    kb.reasoner.key = None
    report = validate_judgement_empirically(
        ctx, tree.conclusion, (0, 1, 2, 3), seed=1
    )
    assert report.ok
    switches = [k for i, k in enumerate(contexts) if i == 0 or k != contexts[i - 1]]
    # K holds no ∀-data restriction, so the slot is keyed by the universe
    assert not kb.reasoner.reads_values
    # 16 searches over 6 runs of one context
    assert [(universe, None) for universe, _ in groundings] == switches
    assert len(switches) < len(contexts)


@pytest.mark.hashseed
def test_fuzzing_addwheels_grounds_k_once(monkeypatch):
    """The fuzzer's queries on the corrected addWheels judgement range
    over several value pools and one universe; K holds no ∀-data
    restriction, so they share one grounding of K."""
    from tests.conftest import load_corpus
    from twotier.calculus import VerifCtx, validate_judgement_empirically
    from twotier.strategy import verify_procedure

    program, kb = load_corpus("assembly_corrected")
    ctx = VerifCtx.build(program, kb)
    tree = verify_procedure(ctx, program.procedure("addWheels"))
    assert tree.closed
    assert not kb.reasoner.reads_values

    searched = []
    bounds = reasoning._query_bounds

    def recording(*args):
        out = bounds(*args)
        searched.append(out)
        return out

    monkeypatch.setattr(reasoning, "_query_bounds", recording)
    groundings = count_groundings(monkeypatch)
    kb.reasoner.key = None
    report = validate_judgement_empirically(ctx, tree.conclusion, (0, 1, 2, 4))
    assert report.ok
    assert len({universe for universe, _ in searched}) == 1
    assert len({values for _, values in searched}) > 1
    assert len(groundings) == 1


@pytest.mark.hashseed
@pytest.mark.parametrize(
    "axioms, closure, pools",
    [
        ([Subsumption(A, ExistsData("t", 1))], False, [(0, 1, 2)]),
        (
            [Subsumption(A, ForallData("t", 1))],
            False,
            [(0, 1, 2), (0, 1, 3, 4), (0, 1, 2)],
        ),
        # closure makes K's data triple functional: (all t . 1)(c)
        ([DataAssertion("t", "c", 1)], True, [(0, 1, 2), (0, 1, 3, 4), (0, 1, 2)]),
    ],
    ids=["exists-data-axiom", "forall-data-axiom", "closed-data-triple"],
)
def test_k_is_grounded_again_only_when_it_reads_the_pool(
    axioms, closure, pools, monkeypatch
):
    """Searches over three value pools in one universe.  K without a
    ∀-data restriction is grounded once for all three; K with one grounds
    over the pool, so it is grounded again on each change: K grounded
    over (0, 1, 2) would let c have the t-value 3.  Each search gives the
    model of an equal kb built afresh."""
    kb = tiny_kb(axioms, closure)
    assert kb.reasoner.reads_values == (len(pools) > 1)
    a_c = ConceptAssertion(A, "c")
    queries = [
        ((a_c,), ()),
        ((a_c, ConceptAssertion(ExistsData("t", 3), "c")), ()),
        ((a_c,), (ConceptAssertion(ExistsData("t", 1), "c"),)),
    ]
    groundings = count_groundings(monkeypatch)
    models = [
        reasoning.find_model(asserted, kb, negated=negated)
        for asserted, negated in queries
    ]
    assert [values for _, values in groundings] == pools
    assert (models[1] is None) == kb.reasoner.reads_values
    for (asserted, negated), model in zip(queries, models):
        alone = KnowledgeBase(kb.signature, kb.axioms, kb.stubs, kb.closure_enabled)
        assert reasoning.find_model(asserted, alone, negated=negated) == model


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
    """A model from the search satisfies K's background axioms, the query
    axioms and the asserted formulas, and falsifies every negated one."""
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
    for f in kb.background + kb.query_axioms(asserted) + tuple(asserted):
        assert satisfies(model, f), f
    for f in negated:
        assert not satisfies(model, f), f


def test_grounding_repeats_no_literal():
    g = reasoning._Grounder(("c",), (0, 1))
    g.assert_formula(ConceptAssertion(AndC(A, A), "c"))
    assert g.clauses
    assert all(len(set(c)) == len(c) for c in g.clauses)


def test_truth_is_one_literal_with_one_unit_clause():
    g = reasoning._Grounder(("c", "s"), (0, 1))
    g.assert_formula(ConceptAssertion(OrC(Top(), Nominal("s")), "c"))
    g.assert_formula(Subsumption(Bottom(), A), holds=False)
    truths = [c for c in g.clauses if set(c) <= {g.true, -g.true}]
    assert truths == [(g.true,)]


def context(g, clauses):
    """A context over g's variable table holding the clauses, none of them
    settled yet."""
    ctx = reasoning._Grounder(g.universe, g.values)
    ctx.var_ids = dict(g.var_ids)
    ctx.clauses = list(clauses)
    return ctx


def search(ctx):
    """The model the search finds on ctx, as its total assignment, or
    None."""
    return ctx.assign[1:] if reasoning._solve(ctx) else None


def snapshot(ctx):
    """Everything the solver reads and writes on ctx."""
    return (
        list(ctx.clauses),
        {lit: list(cis) for lit, cis in ctx.occ.items() if cis},
        list(ctx.nfalse),
        list(ctx.nsat),
        list(ctx.assign),
        list(ctx.trail),
        dict(ctx.var_ids),
        ctx.values,
    )


def test_tautologies_do_not_change_the_model():
    g = reasoning._Grounder(("c", "s"), (0, 1, 2))
    for f in AXIOM_POOL + POOL[:4]:
        g.assert_formula(f)
    nvars = len(g.var_ids)
    model = search(context(g, g.clauses))
    assert model is not None
    tautology = (1, -1, nvars)
    for at in (0, len(g.clauses) // 2, len(g.clauses)):
        clauses = g.clauses[:at] + [tautology] + g.clauses[at:]
        assert search(context(g, clauses)) == model


def test_a_propagated_base_does_not_change_the_search():
    """Clauses split at any point between a settled level-0 base and the
    search's own clauses give the model and the verdict of one search
    over all of them, and restoring the mark leaves the base as it was."""
    for extra in ((), (Subsumption(B, Bottom()),)):
        g = reasoning._Grounder(("c", "s", "_anon0"), (0, 1, 2))
        for f in AXIOM_POOL + POOL[:4] + extra:
            g.assert_formula(f)
        whole = search(context(g, g.clauses))
        assert (whole is None) == bool(extra)
        for at in range(len(g.clauses) + 1):
            base = context(g, g.clauses[:at])
            if not base.settle():
                assert whole is None
                continue
            before = snapshot(base)
            mark = base.mark()
            base.clauses.extend(g.clauses[at:])
            assert search(base) == whole
            base.restore(mark)
            assert snapshot(base) == before


# a query whose conclusion is a tautology, on which chronological DPLL
# runs out of decisions under these premises (ROADMAP item 2)
TAUTOLOGY_SIG = DomainSignature(
    nominals=frozenset({"a", "b", "d"}),
    atomic_concepts=frozenset({"A"}),
    abstract_roles=frozenset({"r"}),
    concrete_roles=frozenset({"t"}),
)
TAUTOLOGY_PREMISES = (
    ConceptAssertion(ForallData("t", 2), "d"),
    Subsumption(ExistsData("t", 0), OrC(ForallRole("r", A), Bottom())),
)
SOME_1 = ExistsData("t", 1)
TAUTOLOGY = Subsumption(AndC(SOME_1, ExistsData("t", 2)), NotC(NotC(SOME_1)))


@pytest.mark.xfail(
    strict=True,
    reason="chronological DPLL exhausts its budget on this query (ROADMAP item 2)",
)
def test_a_tautology_is_entailed_under_premises():
    """The conclusion is a tautology, so it is entailed under any premises;
    with these two the search runs out of decisions and answers Unknown."""
    kb = KnowledgeBase(TAUTOLOGY_SIG, ())
    assert reasoning.entails((), (TAUTOLOGY,), kb, fresh_witnesses=1).is_entailed
    # unbounded, the search takes seconds to give up
    solve = functools.partial(reasoning._solve, budget=20_000)
    with mock.patch.object(reasoning, "_solve", solve):
        verdict = reasoning.entails(
            TAUTOLOGY_PREMISES, (TAUTOLOGY,), kb, fresh_witnesses=1
        )
    assert verdict.is_entailed


def test_a_search_out_of_budget_leaves_the_slot_as_it_was():
    """A search that runs out of its decision budget takes its part back
    off K's grounding, so the next query gives a fresh kb's model."""
    kb = KnowledgeBase(TAUTOLOGY_SIG, ())
    assert reasoning.find_model(TAUTOLOGY_PREMISES, kb, fresh_witnesses=1) is not None
    g = kb.reasoner.grounder
    before = snapshot(g)
    solve = functools.partial(reasoning._solve, budget=200)
    with mock.patch.object(reasoning, "_solve", solve), pytest.raises(BudgetExceeded):
        reasoning.find_model(
            TAUTOLOGY_PREMISES, kb, fresh_witnesses=1, negated=(TAUTOLOGY,)
        )
    assert kb.reasoner.grounder is g and snapshot(g) == before
    query = TAUTOLOGY_PREMISES[:1]
    alone = KnowledgeBase(TAUTOLOGY_SIG, ())
    expected = reasoning.find_model(query, alone, fresh_witnesses=1)
    assert expected is not None
    assert reasoning.find_model(query, kb, fresh_witnesses=1) == expected


@pytest.mark.xfail(
    strict=True,
    reason="two anonymous elements do not bound this kb's models (ROADMAP item 1)",
)
def test_three_existentials_need_three_witnesses():
    kb = parsing.parse_kb(
        "concept A; concept B; concept C; role r; individual a;\n"
        "A <= B & C & (some r . (B & !C)) & (some r . (C & !B))"
        " & (some r . (!B & !C));\n"
        "closure off;\n"
    )
    # A(a) has a model with three r-successors, one per existential,
    # which fresh_witnesses=3 finds
    goal = ConceptAssertion(NotC(A), "a")
    assert not reasoning.entails((), (goal,), kb).is_entailed


# ROADMAP item 1's kb, whose countermodels need three r-successors of a
THREE_SUCCESSORS_KB = (
    "concept A; concept B; concept C; role r; individual a;\n"
    "data-role hasValue;\n"
    "A <= B & C & (some r . (B & !C)) & (some r . (C & !B))"
    " & (some r . (!B & !C));\n"
)
NOT_A = ConceptAssertion(NotC(A), "a")


def test_a_restricted_query_keeps_the_full_universe():
    """The restricted query drops var_x's premise but not its element:
    with var_x, four elements give A(a) its three r-successors, and two
    anonymous elements alone do not."""
    kb = parsing.parse_kb(THREE_SUCCESSORS_KB + "closure off;\n")
    x5 = DataAssertion("hasValue", "var_x", 5)
    assert isinstance(reasoning.entails((x5,), (NOT_A,), kb), reasoning.NotEntailed)
    assert reasoning.entails((), (NOT_A,), kb).is_entailed
    assert not reasoning.entails((), (NOT_A,), kb, fresh_witnesses=3).is_entailed
    lifting = SpecLifting.direct(kb, ["x"])
    assert not assertion_holds({"x": 5}, assertion((NOT_A,)), kb, lifting)


def test_a_restricted_countermodel_must_spare_an_anonymous_element():
    """With var_x forced into B & C, no element of the full universe but
    the anonymous two can be one of A(a)'s successors, so !A(a) is
    entailed.  The restricted countermodel gives a three anonymous
    successors, none of which can make room for var_x."""
    kb = parsing.parse_kb(
        THREE_SUCCESSORS_KB + "some hasValue . 5 <= B & C;\nclosure off;\n"
    )
    x5 = DataAssertion("hasValue", "var_x", 5)
    assert reasoning.entails((x5,), (NOT_A,), kb).is_entailed
    assert not reasoning.entails((), (NOT_A,), kb, fresh_witnesses=3).is_entailed
    lifting = SpecLifting.direct(kb, ["x"])
    assert assertion_holds({"x": 5}, assertion((NOT_A,)), kb, lifting)


def test_a_trimmed_countermodel_must_still_refute_the_conclusion():
    """a's two successors take both anonymous elements of the full
    universe and var_x is B & C, so no element has hasValue 2.  The
    restricted countermodel's only element with hasValue 2 is the
    anonymous element that nothing points to, the one dropped to make
    room for var_x."""
    kb = parsing.parse_kb(
        "concept A; concept B; concept C; role r; individual a;\n"
        "data-role hasValue;\n"
        "A <= B & C & (some r . (B & !C)) & (some r . (C & !B));\n"
        "A(a);\n"
        "some hasValue . 5 <= B & C;\n"
        "some hasValue . 2 <= !B & !C;\n"
        "closure off;\n"
    )
    none_is_2 = Subsumption(ExistsData("hasValue", 2), Bottom())
    x5 = DataAssertion("hasValue", "var_x", 5)
    assert reasoning.entails((x5,), (none_is_2,), kb).is_entailed
    restricted = reasoning.entails((), (none_is_2,), kb, fresh_witnesses=3)
    assert not restricted.is_entailed
    lifting = SpecLifting.direct(kb, ["x"])
    assert assertion_holds({"x": 5}, assertion((none_is_2,)), kb, lifting)


# x and y occur in no kb; N is the kb's NonZero
STATE_ATOMS = tuple(
    [DataAssertion("t", i, v) for i in "csxy" for v in (0, 1, 2)]
    + [ConceptAssertion(C, i) for C in (A, Atomic("N")) for i in "xy"]
)
N_IS_NONZERO = equivalence(NotC(ExistsData("t", 0)), Atomic("N"))
# axioms that constrain every element, so a detached one too
SPREAD_AXIOMS = N_IS_NONZERO + (Subsumption(ExistsData("t", 2), Bottom()),)
# premises over every element
SPREAD_PREMISES = (
    Subsumption(ExistsData("t", 1), Bottom()),
    Subsumption(Atomic("N"), A),
)


@st.composite
def spread_kbs(draw):
    kb = draw(kbs())
    spread = draw(st.lists(st.sampled_from(SPREAD_AXIOMS), unique=True))
    return KnowledgeBase(
        kb.signature, kb.axioms + tuple(spread), kb.stubs, kb.closure_enabled
    )


@settings(max_examples=150, deadline=None)
@given(
    kb=spread_kbs(),
    premises=st.lists(
        st.sampled_from(STATE_ATOMS + ATOMS + SPREAD_PREMISES), max_size=5
    ),
    conclusion=st.lists(st.sampled_from(ATOMS), min_size=1, max_size=2),
)
@example(
    # x's premises have no type under N == !(some t . 0), so the full
    # premises are inconsistent and entail anything
    kb=tiny_kb(N_IS_NONZERO),
    premises=[DataAssertion("t", "x", 0), ConceptAssertion(Atomic("N"), "x")],
    conclusion=[ConceptAssertion(A, "c")],
)
@example(
    # a premise subsumption bars x's own premise
    kb=tiny_kb(),
    premises=[DataAssertion("t", "x", 1), SPREAD_PREMISES[0]],
    conclusion=[ConceptAssertion(A, "c")],
)
@example(
    # y's premise has no type under some t . 2 <= Bot
    kb=tiny_kb(SPREAD_AXIOMS),
    premises=[DataAssertion("t", "x", 1), DataAssertion("t", "y", 2)],
    conclusion=[ConceptAssertion(B, "s")],
)
def test_the_restricted_decision_is_the_full_one(kb, premises, conclusion):
    """Random states over individuals inside and outside K, on acyclic and
    cyclic kbs, with axioms or premises over every element: deciding a
    query without the premises about individuals only the premises name
    gives the full query's verdict."""
    alone = KnowledgeBase(kb.signature, kb.axioms, kb.stubs, kb.closure_enabled)
    full = reasoning.entails(premises, conclusion, alone).is_entailed
    assert reasoning.entailed(premises, conclusion, kb) == full
