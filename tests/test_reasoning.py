import dataclasses
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
from twotier.statelogic import Eq, Lit, Var, conj
from tests.conftest import count_groundings, record_bounds
from tests.oracles import neq, walk_holds

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


# K's individuals are c and s, unless its signature declares none; x and
# y occur in no kb.  K's only constant is 1.
ATOMS = tuple(
    [ConceptAssertion(C, i) for C in (A, B, Atomic("N")) for i in "csxy"]
    + [DataAssertion("t", i, v) for i in "csxy" for v in (0, 1, 2, 5)]
    + [RoleAssertion("r", "c", i) for i in "sxy"]
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
    """Kbs over tiny_kb's signature, and one in four over that signature
    without individuals, whose background then names none."""
    signature = tiny_kb().signature
    pool = KB_AXIOMS
    if draw(st.integers(0, 3)) == 0:
        signature = dataclasses.replace(signature, nominals=frozenset())
        pool = tuple(f for f in KB_AXIOMS if isinstance(f, Subsumption))
    axioms = draw(st.lists(st.sampled_from(pool), max_size=5, unique=True))
    if draw(st.integers(0, 3)) == 0:
        axioms += equivalence(A, ExistsRole("r", A))
    stubbed = signature.nominals and draw(st.booleans())
    stubs = (Stub("r", "c", "s", "v"),) if stubbed else ()
    return KnowledgeBase(signature, tuple(axioms), stubs, draw(st.booleans()))


def assert_entailed_atoms_are_per_atom(kb, premises, atoms):
    kb.reasoner.refutations.clear()
    fast = reasoning.entailed_atoms(premises, atoms, kb)
    kb.reasoner.refutations.clear()
    slow = tuple(
        a for a in atoms if reasoning.entails(premises, (a,), kb).is_entailed
    )
    assert fast == slow


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
    assert_entailed_atoms_are_per_atom(kb, premises, atoms)


# c and s are K's individuals, y is named by the premises that draw it,
# and x and z by nothing else; the values 2 and 5 are outside the pool
# unless a premise holds them
LONE_ATOMS = tuple(
    [ConceptAssertion(C, i) for C in (A, B) for i in "csyxz"]
    + [DataAssertion("t", i, v) for i in "csyxz" for v in (0, 1, 2, 5)]
    + [
        ConceptAssertion(NotC(A), "x"),
        ConceptAssertion(ExistsData("t", 1), "z"),
        RoleAssertion("r", "c", "x"),
    ]
)
LONE_PREMISES = (
    ConceptAssertion(A, "y"),
    DataAssertion("t", "y", 1),
    DataAssertion("t", "y", 2),
    RoleAssertion("r", "c", "y"),
    ConceptAssertion(A, "c"),
    Subsumption(B, ExistsData("t", 5)),
)


@settings(max_examples=100, deadline=None)
@given(
    kb=kbs(),
    premises=st.lists(st.sampled_from(LONE_PREMISES), max_size=3),
    atoms=st.lists(st.sampled_from(LONE_ATOMS), max_size=10),
)
@example(
    kb=tiny_kb([Subsumption(A, B)]),
    premises=[ConceptAssertion(A, "y")],
    atoms=[ConceptAssertion(B, "x"), ConceptAssertion(B, "y")],
)
@example(
    kb=tiny_kb([DataAssertion("t", "s", 1), Subsumption(ExistsData("t", 1), B)]),
    premises=[],
    atoms=[ConceptAssertion(B, "x"), ConceptAssertion(B, "s")],
)
def test_atoms_about_unnamed_individuals_are_asked_up_to_renaming(
    kb, premises, atoms
):
    """Atoms about one individual that neither K nor the premises name are
    asked about one other name, and share its context: the verdicts are
    still one query's per atom, for atoms about individuals K names, the
    premises name or nothing names, with values inside and outside the
    pool, and for atoms that are about more than one individual alone."""
    assert_entailed_atoms_are_per_atom(kb, premises, atoms)


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


# formulas that name the individuals x and y, which K does not declare,
# where the slot renames them: as the object of a role assertion, the
# subject of one and of a data triple, and in nominals
RENAMED = (
    RoleAssertion("r", "x", "y"),
    RoleAssertion("r", "y", "c"),
    DataAssertion("t", "y", 2),
    ConceptAssertion(ExistsRole("r", Nominal("y")), "c"),
    ConceptAssertion(ForallRole("r", NotC(Nominal("y"))), "x"),
    Subsumption(Nominal("y"), A),
)


@st.composite
def queries_in_turn(draw):
    """Queries over several universes and value pools: with or without
    the individuals x and y that K does not declare, and with zero to two
    anonymous elements, so that on a kb without individuals a universe
    may begin with any of its elements.  A query may be followed by one
    over the same universe that adds a data atom of c or s with a value
    the first does not hold: the slot then has K grounded over the first
    query's pool."""
    formulas = st.sampled_from(ATOMS + RENAMED)
    queries = []
    for _ in range(draw(st.integers(2, 6))):
        asserted = draw(st.lists(formulas, max_size=3))
        negated = draw(st.lists(formulas, max_size=1))
        fresh = draw(st.integers(0, 2))
        queries.append((asserted, negated, fresh))
        if draw(st.booleans()):
            held = {a.value for a in asserted + negated if isinstance(a, DataAssertion)}
            value = draw(st.sampled_from([v for v in (0, 2, 5, 7) if v not in held]))
            data = DataAssertion("t", draw(st.sampled_from("cs")), value)
            queries.append((asserted + [data], negated, fresh))
    return queries


def assert_positional(kb):
    """The last search's elements stand for a prefix of the slot's
    universe, position by position, K's individuals for themselves, and
    as many elements are switched on as the search's universe has."""
    r = kb.reasoner
    names = r.grounder.names
    own = tuple(sorted(kb.symbols.nominals))
    assert tuple(names)[: len(own)] == own
    assert all(names[x] == x for x in own)
    assert tuple(names.values()) == r.key[0][: len(names)]
    assert r.switched[0] == len(names)


@pytest.mark.hashseed
@settings(max_examples=60, deadline=None)
@given(kb=kbs(), queries=queries_in_turn())
# K grounded over x, y and two anonymous elements serves the universe of
# y and two anonymous elements with y standing for x: switching x off
# instead would let x's walk reach y's atoms in another order than y's
# own walk
@example(
    kb=KnowledgeBase(
        dataclasses.replace(tiny_kb().signature, nominals=frozenset()),
        (Subsumption(ExistsRole("r", A), B),) + equivalence(A, ExistsRole("r", A)),
        (),
        False,
    ),
    queries=[
        ([ConceptAssertion(A, "x"), ConceptAssertion(A, "y")], [], 2),
        ([ConceptAssertion(A, "y")], [], 2),
    ],
)
# the kernel's universe of c, s and `_lone`, then one of c, s and another
# name, which stands for `_lone`
@example(
    kb=tiny_kb(KB_AXIOMS[:5], closure=True),
    queries=[
        ([ConceptAssertion(A, reasoning._LONE)], [ConceptAssertion(B, reasoning._LONE)], 2),
        (
            [
                RoleAssertion("r", "c", "y"),
                DataAssertion("t", "y", 1),
                ConceptAssertion(ExistsRole("r", Nominal("y")), "s"),
            ],
            [ConceptAssertion(B, "y")],
            2,
        ),
    ],
)
def test_a_kb_slot_gives_the_models_of_fresh_kbs(kb, queries):
    """Queries over several universes and value pools, answered in turn
    on one kb whose one grounding of K serves them with their elements
    renamed to the slot's and the others switched off, or is made again
    over a universe it does not serve, give the model each gives alone
    on an equal kb built afresh."""
    for asserted, negated, fresh in queries:
        alone = KnowledgeBase(kb.signature, kb.axioms, kb.stubs, kb.closure_enabled)
        expected = reasoning.find_model(
            asserted, alone, fresh_witnesses=fresh, negated=negated
        )
        model = reasoning.find_model(
            asserted, kb, fresh_witnesses=fresh, negated=negated
        )
        assert model == expected
        r = kb.reasoner
        # None when K's grounding, or the switched state, conflicts
        if r.switched is not None and r.switched[1] is not None:
            assert_positional(kb)
            if model is not None:
                assert model.universe == set(r.grounder.names)


@pytest.mark.hashseed
def test_fuzzing_grounds_k_once_per_context_switch(monkeypatch):
    """The fuzzer's queries on one set_i of s2 ground the kb's background
    axioms once each time the slot's context changes, not once per
    search, and every search's elements stand for the grounding's by
    position."""
    from twotier.calculus import VerifCtx, validate_judgement_empirically
    from twotier.strategy import verify_procedure

    kb_text, prog_text = gen_scaled.scaled(2, 1)
    kb = parsing.parse_kb(kb_text)
    program = parsing.parse_program(prog_text, kb)
    ctx = VerifCtx.build(program, kb)
    tree = verify_procedure(ctx, program.procedure("set_1"))
    assert tree.closed

    keys = []
    search = reasoning.find_model

    def recording(*args, **kwargs):
        model = search(*args, **kwargs)
        keys.append(kb.reasoner.key)
        assert_positional(kb)
        return model

    groundings = count_groundings(monkeypatch)
    monkeypatch.setattr(reasoning, "find_model", recording)
    kb.reasoner.key = None
    report = validate_judgement_empirically(
        ctx, tree.conclusion, (0, 1, 2, 3), seed=1
    )
    assert report.ok
    switches = [k for i, k in enumerate(keys) if i == 0 or k != keys[i - 1]]
    # K holds no ∀-data restriction, so the slot is keyed by the universe
    assert not kb.reasoner.reads_values
    # 4 searches in one context
    assert [(universe, None) for universe, _ in groundings] == switches
    assert len(switches) < len(keys)


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

    searched = record_bounds(monkeypatch)
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
        list(ctx.assign),
        list(ctx.trail),
        dict(ctx.var_ids),
        ctx.values,
    )


def test_tautologies_do_not_change_the_model():
    g = reasoning._Grounder(("c", "s"), (0, 1, 2))
    for f in AXIOM_POOL + POOL[:4]:
        g.assert_formula(f)
    g.switch(g.universe)
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
        g.switch(g.universe)
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


def test_a_mark_restores_twice():
    """A mark restored after one query brings back the same state after
    another: K's base mark is restored on every switch of elements."""
    g = reasoning._Grounder(("c", "s", "_anon0"), (0, 1, 2))
    for f in AXIOM_POOL:
        g.assert_formula(f)
    g.switch(g.universe)
    assert g.settle()
    before = snapshot(g)
    mark = g.mark()
    for query in (POOL[:3], POOL[3:]):
        for f in query:
            g.assert_formula(f)
        reasoning._solve(g)
        g.restore(mark)
        assert snapshot(g) == before


def switched_model(axioms, negated, universe, on):
    """The model of the axioms, with the negated formulas false, over
    `universe` with the elements of `on` switched on; None if none."""
    g = reasoning._Grounder(universe, (0, 1, 2))
    for f in axioms:
        g.assert_formula(f)
    g.switch(on)
    assert g.settle()
    for f in negated:
        g.assert_formula(f, holds=False)
    return g.decode(tiny_kb().signature) if reasoning._solve(g) else None


def test_switched_off_elements_leave_the_model_of_the_elements_on():
    """K grounded over c, s, x and two anonymous elements, with x and the
    second anonymous one switched off, gives the model of K grounded
    over c, s and one anonymous element alone."""
    axioms = (Subsumption(A, B), Subsumption(Top(), OrC(A, ExistsRole("r", B))))
    # some element is B and not A, and c is not A
    negated = (Subsumption(B, A), ConceptAssertion(A, "c"))
    on = ("c", "s", "_anon0")
    expected = switched_model(axioms, negated, on, on)
    assert expected.abs_role_ext["r"] == {(x, "_anon0") for x in on}
    held = ("c", "s", "x", "_anon0", "_anon1")
    assert switched_model(axioms, negated, held, on) == expected


def test_an_atom_grounded_after_the_switch_is_off_too():
    """K uses neither r nor N, so the query grounds the edges from c and
    N at every element: those about x, which is off, are false, and c has
    no r-successor in N."""
    N = Atomic("N")
    # c has an r-successor in N, and c and s are not N
    negated = (
        ConceptAssertion(ForallRole("r", NotC(N)), "c"),
        ConceptAssertion(N, "c"),
        ConceptAssertion(N, "s"),
    )
    axioms = (Subsumption(A, B),)
    assert switched_model(axioms, negated, ("c", "s"), ("c", "s")) is None
    assert switched_model(axioms, negated, ("c", "s", "x"), ("c", "s")) is None


# a query whose conclusion is a tautology, on which chronological DPLL
# runs out of decisions under these premises (ROADMAP item 3(b))
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
    reason="chronological DPLL exhausts its budget on this query (ROADMAP item 3(b))",
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


def test_an_axiom_under_top_is_not_acyclic():
    kb = parsing.parse_kb(
        "concept A; concept B; concept C; role r; individual a;\n"
        "Top <= (some r . (B & !C)) & (some r . (C & !B))"
        " & (some r . (!B & !C)) & (some r . (B & C));\n"
        "closure off;\n"
    )
    # every element needs four r-successors of distinct types, so K has
    # no model at two anonymous elements and would entail an A that no
    # axiom mentions; fresh_witnesses=3 finds a model without A(a)
    assert not kb.acyclic
    verdict = reasoning.entails((), (ConceptAssertion(A, "a"),), kb)
    assert isinstance(verdict, reasoning.Unknown)


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


# N is the kb's NonZero
N_IS_NONZERO = equivalence(NotC(ExistsData("t", 0)), Atomic("N"))
# axioms that constrain every element, so a detached one too
SPREAD_AXIOMS = N_IS_NONZERO + (Subsumption(ExistsData("t", 2), Bottom()),)


@st.composite
def spread_kbs(draw):
    kb = draw(kbs())
    spread = draw(st.lists(st.sampled_from(SPREAD_AXIOMS), unique=True))
    return KnowledgeBase(
        kb.signature, kb.axioms + tuple(spread), kb.stubs, kb.closure_enabled
    )


def in_lifting_names(x):
    """x with the data role t read as the lifting's hasValue and the
    concept N as its NonZero, so that K speaks of the lifted state."""
    if isinstance(x, str):
        return {"t": "hasValue", "N": "NonZero"}.get(x, x)
    if isinstance(x, (tuple, frozenset)):
        return type(x)(map(in_lifting_names, x))
    if dataclasses.is_dataclass(x):
        fields = dataclasses.fields(x)
        return type(x)(*(in_lifting_names(getattr(x, f.name)) for f in fields))
    return x


# the variables s, x and y, each lifted to the individual of its name:
# s is K's when K has individuals, x and y never are
STATE_VARIABLES = ("s", "x", "y")
# state tiers that fix or exclude a detached variable, or s
STATE_TIERS = (
    Eq(Var("x"), Lit(2)),
    neq(Var("y"), Lit(0)),
    Eq(Var("s"), Lit(1)),
    neq(Var("s"), Lit(0)),
)


@settings(max_examples=60, deadline=None)
@given(
    kb=spread_kbs().map(in_lifting_names),
    state=st.lists(st.sampled_from(STATE_TIERS), max_size=2, unique=True),
    domain=st.lists(st.sampled_from(in_lifting_names(ATOMS)), min_size=1, max_size=2),
)
@example(
    # x == 2 has no type under some hasValue . 2 <= Bot, so every state
    # that meets the state tier has inconsistent premises
    kb=in_lifting_names(tiny_kb(SPREAD_AXIOMS)),
    state=[Eq(Var("x"), Lit(2))],
    domain=[ConceptAssertion(B, "c")],
)
@example(
    # the restricted countermodel gives a three anonymous successors, so
    # it has no anonymous element to spare for s, x and y, and each
    # state asks its full query.  That is entailed when s, x and y are
    # all 2, and so B & C: no element but the two anonymous ones can be
    # one of a's successors
    kb=parsing.parse_kb(
        THREE_SUCCESSORS_KB + "some hasValue . 2 <= B & C;\nclosure off;\n"
    ),
    state=[Eq(Var("x"), Lit(2))],
    domain=[NOT_A],
)
@example(
    # the lifted state tier NonZero(s) is a premise about a kept stub
    kb=tiny_kb(),
    state=[neq(Var("s"), Lit(0))],
    domain=[ConceptAssertion(Atomic("NonZero"), "s")],
)
@example(
    # NonZero == !(some hasValue . 0) and NonZero <= some hasValue . 0, so
    # x's premise NonZero(x) has no type, though its triple has one
    kb=in_lifting_names(
        tiny_kb(N_IS_NONZERO + (Subsumption(Atomic("N"), ExistsData("t", 0)),))
    ),
    state=[neq(Var("x"), Lit(0))],
    domain=[ConceptAssertion(A, "c")],
)
@example(
    # K names s, so s's triple stays: B(c) holds when s is 2
    kb=in_lifting_names(
        tiny_kb(
            (
                RoleAssertion("r", "c", "s"),
                Subsumption(ExistsData("t", 2), A),
                Subsumption(ExistsRole("r", A), B),
            )
        )
    ),
    state=[],
    domain=[ConceptAssertion(B, "c")],
)
@example(
    # y's premise hasValue(y, 2) has no type under some hasValue . 2 <=
    # Bot, and x's premise hasValue(x, 1) has one
    kb=in_lifting_names(tiny_kb(SPREAD_AXIOMS)),
    state=[Eq(Var("x"), Lit(1)), Eq(Var("y"), Lit(2))],
    domain=[ConceptAssertion(B, "s")],
)
def test_assertion_holds_is_the_full_query_in_every_state(kb, state, domain):
    """Over every state of a small domain, an assertion split once for
    its states answers as the unrestricted query of each state does."""
    lifting = SpecLifting(tuple(zip(STATE_VARIABLES, STATE_VARIABLES)), kb.symbols)
    a = assertion(domain, conj(state))
    lifted_phi, _residue = lifting.lift_partial(a.state)
    alone = KnowledgeBase(kb.signature, kb.axioms, kb.stubs, kb.closure_enabled)
    for values in itertools.product((0, 1, 2), repeat=len(STATE_VARIABLES)):
        sigma = dict(zip(STATE_VARIABLES, values))
        premises = lifting.lift_state(sigma) | lifted_phi
        full = walk_holds(a.state, sigma) and (
            reasoning.entails(premises, a.domain, alone).is_entailed
        )
        assert assertion_holds(sigma, a, kb, lifting) == full, sigma
