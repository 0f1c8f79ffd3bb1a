import sys
from pathlib import Path

import pytest

from twotier import parsing, reasoning
from twotier.calculus import VerifCtx
from twotier.errors import NoExplanation
from twotier.domainlogic import Atomic, ConceptAssertion, DataAssertion
from twotier.kernel import (
    alpha_abduce,
    alpha_deduce,
    candidate_pool,
    informative_kernel,
)
from twotier.lifting import SpecLifting
from twotier.strategy import verify_procedure, verify_program
from tests.conftest import count_groundings, load_corpus, record_bounds

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen_programs  # noqa: E402
import gen_scaled  # noqa: E402

NZ = lambda s: ConceptAssertion(Atomic("NonZero"), s)
hv = lambda s, n: DataAssertion("hasValue", s, n)


def proved(premises, conclusion, kb):
    return isinstance(reasoning.entails(premises, conclusion, kb), reasoning.Entailed)


@pytest.fixture(scope="module")
def corrected_pool(corrected):
    kb = corrected[1]
    return kb, candidate_pool(kb, SpecLifting.direct(kb))


@pytest.fixture(scope="module")
def verbatim_pool(verbatim):
    kb = verbatim[1]
    return kb, candidate_pool(kb, SpecLifting.direct(kb))


def test_pool_contents(corrected_pool):
    _, pool = corrected_pool
    atoms = set(pool)
    # three declared stubs, values {0, 2, 4}, plus NonZero per stub
    assert atoms == {
        a
        for s in ("bodyVar", "doorsVar", "wheelsVar")
        for a in (NZ(s), hv(s, 0), hv(s, 2), hv(s, 4))
    }
    assert list(pool) == sorted(pool, key=str)


def test_pool_extra_variables_and_constants(corrected_pool):
    kb, _ = corrected_pool
    pool = candidate_pool(kb, SpecLifting.direct(kb, ("x",)), extra_constants=(7,))
    assert hv("var_x", 7) in pool
    assert NZ("var_x") in pool


def test_deduce_smallcar(corrected_pool):
    kb, pool = corrected_pool
    delta = (ConceptAssertion(Atomic("SmallCar"), "c"),)
    atoms = alpha_deduce(delta, kb, pool)
    assert set(atoms) == {hv("doorsVar", 2), hv("wheelsVar", 4), NZ("bodyVar")}
    assert proved(delta, atoms, kb)
    # the asserted HasChassis(c) supplies Car, so the atoms give SmallCar back
    assert proved(atoms, delta, kb)


def test_deduce_four_wheels_invertible(corrected_pool):
    kb, pool = corrected_pool
    delta = (ConceptAssertion(Atomic("HasFourWheels"), "c"),)
    atoms = alpha_deduce(delta, kb, pool)
    assert hv("wheelsVar", 4) in atoms
    # no asserted data triple for wheelsVar in the premises, so a model may
    # still attach an extra zero value: NonZero is not deduced here
    assert NZ("wheelsVar") not in atoms
    assert proved(atoms, delta, kb)


def test_deduce_empty_spec(corrected_pool):
    kb, pool = corrected_pool
    atoms = alpha_deduce((), kb, pool)
    # only what the kb forces on its own: the asserted chassis gives a body
    assert atoms == (NZ("bodyVar"),)
    assert informative_kernel((), kb, pool) == ()
    assert proved(atoms, (), kb)


def test_informative_kernel_prunes(corrected_pool):
    kb, pool = corrected_pool
    delta = (ConceptAssertion(Atomic("HasFourWheels"), "c"),)
    full = alpha_deduce(delta, kb, pool)
    pruned = informative_kernel(delta, kb, pool)
    assert set(pruned) <= set(full)
    assert hv("wheelsVar", 4) in pruned
    # NonZero(wheelsVar) follows from hasValue 4, so it survives too,
    # but nothing kb-forced or already in delta may appear
    assert not any(a in delta for a in pruned)


def test_abduce_has_body(verbatim_pool):
    kb, pool = verbatim_pool
    delta = (ConceptAssertion(Atomic("HasBody"), "c"),)
    results = alpha_abduce(delta, kb, pool)
    assert results[0] == (NZ("bodyVar"),)
    assert proved(results[0], delta, kb)
    # any nonzero body value also explains, but does not entail back
    assert (hv("bodyVar", 2),) in results
    back = reasoning.entails(delta, (hv("bodyVar", 2),), kb)
    assert isinstance(back, reasoning.NotEntailed)
    sizes = [len(atoms) for atoms in results]
    assert sizes == sorted(sizes)


def test_abduce_asks_nothing_of_the_goal_beyond_its_explanations(
    verbatim_pool, monkeypatch
):
    """Abduction asks whether atoms entail the goal, never whether the
    goal entails the atoms it finds."""
    kb, pool = verbatim_pool
    delta = (ConceptAssertion(Atomic("HasBody"), "c"),)
    asked = []
    entails = reasoning.entails

    def recording(premises, conclusion, kb, **kwargs):
        asked.append(tuple(premises))
        return entails(premises, conclusion, kb, **kwargs)

    monkeypatch.setattr(reasoning, "entails", recording)
    assert alpha_abduce(delta, kb, pool, max_results=1) == [(NZ("bodyVar"),)]
    assert asked and delta not in asked


def test_abduce_smallcar(verbatim_pool):
    kb, pool = verbatim_pool
    results = alpha_abduce(
        (ConceptAssertion(Atomic("SmallCar"), "c"),), kb, pool
    )
    assert set(results[0]) == {hv("doorsVar", 2), hv("wheelsVar", 4)}


def test_abduce_minimality(verbatim_pool):
    kb, pool = verbatim_pool
    results = alpha_abduce((ConceptAssertion(Atomic("HasBody"), "c"),), kb, pool)
    minimal = {frozenset(atoms) for atoms in results}
    for s in minimal:
        assert not any(t < s for t in minimal)


def test_abduce_no_explanation(corrected_pool):
    kb, pool = corrected_pool
    with pytest.raises(
        NoExplanation, match=r"^no pool subset of size <= 3 explains the goal$"
    ):
        # 7 is outside every pool atom's value set
        alpha_abduce((hv("doorsVar", 7),), kb, pool)


@pytest.fixture
def searches(monkeypatch):
    """The number of model searches."""
    count = [0]
    search = reasoning.find_model

    def counting(*args, **kwargs):
        count[0] += 1
        return search(*args, **kwargs)

    monkeypatch.setattr(reasoning, "find_model", counting)
    return count


def test_countermodels_refute_most_pool_atoms_of_s4(searches):
    kb_text, prog_text = gen_scaled.scaled(4, 1)
    kb = parsing.parse_kb(kb_text)
    program = parsing.parse_program(prog_text, kb)
    ctx = VerifCtx.build(program, kb)
    assert all(verify_procedure(ctx, p).closed for p in program.procedures)
    # one search per pool atom and premise set would make 200
    assert searches[0] <= 60


def test_cyclic_kb_kernels_need_no_search(monkeypatch):
    kb = parsing.parse_kb(
        """concept Has; concept Loop; role p; role q; data-role hasValue;
        concept NonZero; individual c; individual v;
        some p . some hasValue . 2 == Has;
        Loop == some q . Loop;
        p(c, v);
        stub p(c, v) for var x;
        closure on;"""
    )
    assert not kb.acyclic
    pool = candidate_pool(kb, SpecLifting.direct(kb))

    def no_search(*args, **kwargs):
        raise AssertionError("a cyclic kb entails no atom beyond the premises")

    monkeypatch.setattr(reasoning, "find_model", no_search)
    delta = (hv("v", 2), NZ("v"))
    assert alpha_deduce(delta, kb, pool) == (NZ("v"), hv("v", 2))
    assert informative_kernel(delta, kb, pool) == ()
    has = ConceptAssertion(Atomic("Has"), "c")
    assert informative_kernel((has, hv("v", 2)), kb, pool) == ()


@pytest.mark.hashseed
def test_a_kernel_on_s5_grounds_k_once_for_all_parameter_stubs(monkeypatch):
    """The pool atoms about the stubs var_a_i of s5's parameters, which
    neither K nor Δ names, are asked about one individual: the kernel of
    Has_0(c) asks over two universes, and K's one grounding serves both,
    where a universe per stub took seven groundings."""
    kb_text, prog_text = gen_scaled.scaled(5, 2)
    kb = parsing.parse_kb(kb_text)
    program = parsing.parse_program(prog_text, kb)
    pool = VerifCtx.build(program, kb).pool
    assert NZ("var_a_4") in pool and hv("var_a_0", 1) in pool
    searched = record_bounds(monkeypatch)
    groundings = count_groundings(monkeypatch)
    has = ConceptAssertion(Atomic("Has_0"), "c")
    assert informative_kernel((has,), kb, pool) == (hv("v_0", 1),)
    assert len({universe for universe, _ in searched}) == 2
    assert len(groundings) <= 2


@pytest.mark.hashseed
def test_verifying_s5_grounds_k_at_most_twice(monkeypatch):
    """Every query of s5's verification is over K's individuals, the
    premises' individuals and the individual of lone atoms, plus the
    anonymous elements: one grounding of K over the longest of these
    universes serves the others, whose elements stand for its own by
    position, with the rest switched off."""
    kb_text, prog_text = gen_scaled.scaled(5, 2)
    kb = parsing.parse_kb(kb_text)
    program = parsing.parse_program(prog_text, kb)
    ctx = VerifCtx.build(program, kb)
    groundings = count_groundings(monkeypatch)
    trees = verify_program(ctx)
    assert all(tree.closed for tree in trees.values())
    assert len(groundings) <= 2


@pytest.mark.hashseed
def test_verifying_the_corpus_grounds_k_at_most_five_times(monkeypatch):
    """The assembly kernels ask over K's individuals and `_lone`, the
    other queries over K's individuals and `var_nrDoors`: the two
    universes have one length, so one grounding of K serves both, with
    `var_nrDoors` standing for `_lone`."""
    groundings = count_groundings(monkeypatch)
    for stem in ("addwheels", "assembly_corrected", "assembly_verbatim"):
        program, kb = load_corpus(stem)
        verify_program(VerifCtx.build(program, kb))
    assert len(groundings) <= 5


def test_a_second_context_shares_the_kernel(monkeypatch):
    """Two contexts over one kb share one pool, and an equal pool built
    apart asks no atom again for a kernel the first computed."""
    program, kb = load_corpus("assembly_corrected")
    first = VerifCtx.build(program, kb)
    delta = (ConceptAssertion(Atomic("SmallCar"), "c"), hv("doorsVar", 2))
    kernel = informative_kernel(delta, kb, first.pool)
    assert kernel
    assert VerifCtx.build(program, kb).pool is first.pool
    second = tuple(list(first.pool))
    assert second == first.pool and second is not first.pool

    def no_atoms(*args, **kwargs):
        raise AssertionError("the kernel is asked again")

    monkeypatch.setattr(reasoning, "entailed_atoms", no_atoms)
    assert informative_kernel(delta, kb, second) == kernel
    # the kernel reads delta as a set
    assert informative_kernel(delta[::-1] + delta, kb, second) == kernel


def test_contexts_over_one_kb_share_one_lifting_and_pool(monkeypatch):
    """The 500 generated programs have the same variables and constants:
    their contexts share one lifting and one pool, whose atoms are
    rendered once, for the pool's order, and equal a fresh build."""
    kb_text = (gen_programs.CORPUS / f"{gen_programs.HOST_STEM}.kb").read_text(
        encoding="utf-8"
    )
    kb = parsing.parse_kb(kb_text)
    programs = [parsing.parse_program(t, kb) for t in gen_programs.programs(42, 500)]
    renders = []
    for cls in (ConceptAssertion, DataAssertion):
        render = cls.__str__
        monkeypatch.setattr(
            cls, "__str__", lambda a, render=render: renders.append(a) or render(a)
        )
    contexts = [VerifCtx.build(program, kb) for program in programs]
    monkeypatch.undo()
    pool = contexts[0].pool
    assert sorted(map(str, renders)) == sorted(map(str, pool))
    assert all(c.pool is pool and c.lifting is contexts[0].lifting for c in contexts)
    fresh = parsing.parse_kb(kb_text)
    for c in contexts:
        lifting = SpecLifting.direct(fresh, c.program.variables)
        assert c.lifting.table == lifting.table
        assert c.lifting.kernel_signature == lifting.kernel_signature
        assert c.pool == candidate_pool(fresh, lifting, c.program.constants())
