"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
pass/fail line (to the real stdout, so the line survives capture) with
the elapsed time.  Criteria with stated runtime budgets assert them.
"""

import itertools
import json
import random
import sys
import time
from pathlib import Path

import pytest

from twotier import parsing, serialize
from twotier.assertions import assertion, assertion_holds
from twotier.calculus import (
    Judgement,
    VerifCtx,
    apply_rule,
    check_program,
    check_proof,
    validate_judgement_empirically,
)
from twotier.domainlogic import Atomic, ConceptAssertion, DataAssertion
from twotier.kernel import alpha_deduce, candidate_pool
from twotier.lang import (
    Assign,
    Call,
    Contract,
    If,
    Procedure,
    Program,
    Seq,
    While,
    sequence,
    statements_of,
)
from twotier.lifting import SpecLifting
from twotier.statelogic import And, Eq, Lit, Not, TRUE, Var, conj, substitute
from twotier.status import ObligationStatus
from twotier import reasoning
from twotier.strategy import derive, verify_program

from tests.compatibility import check_compatibility, liftable_formula_pool
from tests.conftest import corpus_text, load_corpus
from tests.oracles import expand_lift_var, expand_total, neq, rules_used

DATA = Path(__file__).parent / "data"

HFW = ConceptAssertion(Atomic("HasFourWheels"), "c")
SC = ConceptAssertion(Atomic("SmallCar"), "c")
NZb = ConceptAssertion(Atomic("NonZero"), "bodyVar")
hv = lambda s, n: DataAssertion("hasValue", s, n)


def _report(log, number: int, title: str, started: float, ok: bool = True) -> None:
    elapsed = time.perf_counter() - started
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {number}: {verdict} ({elapsed:.2f}s) {title}"
    print(line)
    log.append(line)
    assert ok, f"criterion {number} failed"


def test_criterion_1_addwheels_reproduction(criterion_log):
    started = time.perf_counter()
    program, kb = load_corpus("addwheels")
    ctx = VerifCtx.build(program, kb)
    tree = verify_program(ctx)["addWheels"]
    assert tree.closed
    assert tree.spine() == ("post-core", "post-inv", "var")
    payloads = {
        (o.payload, o.status)
        for _, node in tree.walk()
        for o in node.obligations
    }
    assert (
        "{hasValue(wheelsVar, 4)} |= {HasFourWheels(c), hasValue(wheelsVar, 4)}",
        ObligationStatus.PROVED,
    ) in payloads
    assert time.perf_counter() - started < 1.0
    _report(criterion_log, 1, "addWheels judgement closes with spine [post-core, post-inv, var]", started)


def test_criterion_2_assembly_reproduction(criterion_log):
    started = time.perf_counter()
    program, kb = load_corpus("assembly_corrected")
    ctx = VerifCtx.build(program, kb)
    trees = verify_program(ctx)
    assert all(t.closed for t in trees.values())
    used = set()
    for t in trees.values():
        used |= rules_used(t)
    assert {
        "seq",
        "contract",
        "cons",
        "var",
        "pre-core",
        "pre-inv",
        "post-core",
        "post-inv",
    } <= used
    # the source-faithful variant must fail with the culprit named
    v_program, v_kb = load_corpus("assembly_verbatim")
    v_ctx = VerifCtx.build(v_program, v_kb)
    v_trees = verify_program(v_ctx)
    assert not v_trees["assembly"].closed
    notes = "\n".join(
        o.note + " " + o.payload
        for _, node in v_trees["assembly"].walk()
        for o in node.obligations
        if o.status != ObligationStatus.PROVED
    )
    assert "hasValue(doorsVar, 2)" in notes
    assert time.perf_counter() - started < 10.0
    _report(criterion_log, 2, "corrected assembly closes with the full rule set; verbatim variant fails and names the unmet entailment", started)


def test_criterion_3_dl_regression(criterion_log):
    started = time.perf_counter()
    _, kb = load_corpus("assembly_corrected")
    delta2 = (hv("doorsVar", 2), hv("wheelsVar", 4), NZb)

    def entailed(premises, conclusion, k):
        return reasoning.entails(premises, conclusion, k, fresh_witnesses=2)

    assert entailed((HFW,), (hv("wheelsVar", 4),), kb).is_entailed
    assert entailed((SC,), delta2, kb).is_entailed
    assert entailed((hv("wheelsVar", 4),), (HFW,), kb).is_entailed

    off = kb.with_closure(False)
    flipped = [
        entailed((HFW,), (hv("wheelsVar", 4),), off),
        entailed((SC,), delta2, off),
    ]
    for premises, verdict in zip(((HFW,), (SC,)), flipped):
        assert isinstance(verdict, reasoning.NotEntailed)
        m = verdict.countermodel
        from twotier.domainlogic import satisfies

        for ax in off.axioms:
            assert satisfies(m, ax)
        for p in premises:
            assert satisfies(m, p)
        assert not satisfies(m, verdict.violated)
    # the witnessing direction survives without closure
    assert entailed((hv("wheelsVar", 4),), (HFW,), off).is_entailed
    assert time.perf_counter() - started < 5.0
    _report(criterion_log, 3, "closure-dependent entailments hold, flip off-closure with verified countermodels", started)


def test_criterion_4_compatibility(criterion_log):
    started = time.perf_counter()
    _, kb = load_corpus("assembly_corrected")
    variables = ("wheels", "doors", "bodyId", "nrWheels")
    lifting = SpecLifting.direct(kb, variables)
    formulas = liftable_formula_pool(variables, (0, 2, 4))
    assert len(formulas) >= 50
    report = check_compatibility(lifting, kb, (0, 2, 4), variables, formulas=formulas)
    assert report.states_checked == 3 ** 4
    assert report.violations == ()
    assert time.perf_counter() - started < 30.0
    _report(criterion_log, 4, f"satisfaction survives lifting on {report.states_checked} states x {report.formulas_checked} formulas", started)


def test_criterion_5_kernel_lemma_suite(criterion_log):
    started = time.perf_counter()
    _, kb = load_corpus("assembly_corrected")
    variables = ("wheels", "doors", "bodyId")
    lifting = SpecLifting.direct(kb, variables)
    pool = candidate_pool(kb, lifting)
    rng = random.Random(20260824)

    concepts = (HFW, SC, ConceptAssertion(Atomic("HasBody"), "c"), NZb)
    # only admissible states: a state whose lifting contradicts the
    # background knowledge satisfies every domain tier vacuously
    states = tuple(
        s
        for s in (
            dict(zip(variables, combo))
            for combo in itertools.product((0, 2, 4), repeat=3)
        )
        if reasoning.consistent(lifting.lift_state(s), kb)
    )
    assert len(states) >= 18

    def sat(a):
        return frozenset(
            i for i, s in enumerate(states) if assertion_holds(s, a, kb, lifting)
        )

    phis = liftable_formula_pool(variables, (0, 2, 4))
    checked = 0
    for _ in range(100):
        delta = tuple(
            dict.fromkeys(
                rng.sample(concepts, rng.randint(0, 2))
                + rng.sample(pool, rng.randint(0, 2))
            )
        )
        delta_prime = tuple(rng.sample(pool, rng.randint(0, 2)))
        phi = rng.choice(phis)

        # property 1: adding generated kernel atoms only shrinks or keeps
        # the satisfaction set, never grows it
        alpha = alpha_deduce(delta, kb, pool)
        assert sat(assertion(delta + alpha, phi)) <= sat(assertion(delta, phi))

        # property 2: adding the lifted state formula changes nothing
        lifted_phi = tuple(sorted(lifting.lift_spec(phi), key=str))
        assert sat(assertion(delta, phi)) == sat(assertion(delta + lifted_phi, phi))

        # property 3: conjoining the recovered reading of kernel-signature
        # atoms already present in the domain tier changes nothing
        both = delta + delta_prime
        recovered = lifting.delift(delta_prime)
        assert sat(assertion(both, phi)) == sat(
            assertion(both, And(phi, recovered))
        )
        checked += 1
    assert checked >= 100
    _report(criterion_log, 5, f"{checked} generated (domain set, kernel set, formula) instances satisfy all three lifting laws", started)


def _generated_program(rng, base_program):
    """A host program with the library addWheels procedure plus one
    generated procedure of at most six statements."""
    add = base_program.procedure("addWheels")
    assignable = ("wheels", "doors", "bodyId", "nrDoors")
    values = (0, 2, 4)

    def gen_simple():
        v = rng.choice(assignable)
        if rng.random() < 0.7:
            return Assign(v, Lit(rng.choice(values)))
        return Assign(v, Var(rng.choice(("nrDoors", "id"))))

    stmts = []
    budget = rng.randint(1, 6)
    while len(stmts) < budget:
        roll = rng.random()
        room = budget - len(stmts)
        if roll < 0.55 or room < 2:
            stmts.append(gen_simple())
        elif roll < 0.75:
            stmts.append(If(Var(rng.choice(assignable)), gen_simple(), gen_simple()))
        elif roll < 0.9:
            v = rng.choice(assignable)
            stmts.append(While(Var(v), Assign(v, Lit(0))))
        else:
            stmts.append(Call("addWheels", Lit(4)))
    body = sequence(stmts)

    # a contract the strategy has a chance to close: liftable state tiers,
    # occasionally a domain goal
    def liftable(vs):
        picks = rng.sample(vs, rng.randint(0, min(2, len(vs))))
        return conj(
            tuple(
                Eq(Var(v), Lit(rng.choice(values)))
                if rng.random() < 0.7
                else neq(Var(v), Lit(0))
                for v in picks
            )
        )

    pre = assertion((), liftable(["nrDoors", "id", "bodyId"]))
    if rng.random() < 0.25:
        post = assertion((HFW,), And(liftable(["doors"]), Eq(Var("wheels"), Lit(4))))
    else:
        post = assertion((), liftable(["wheels", "doors", "bodyId"]))
    proc = Procedure("generated", "id", Contract(pre, post), body)
    return Program(base_program.globals, (add, proc))


def test_criterion_6_empirical_soundness(criterion_log):
    started = time.perf_counter()
    base_program, kb = load_corpus("assembly_corrected")
    rng = random.Random(42)
    closed = 0
    generated = 0
    for _ in range(500):
        program = _generated_program(rng, base_program)
        proc = program.procedure("generated")
        assert len(statements_of(proc.body)) <= 6
        generated += 1
        ctx = VerifCtx.build(program, kb)
        j = Judgement(proc.contract.pre, proc.body, proc.contract.post)
        tree = derive(ctx, j)
        if not tree.closed:
            continue
        closed += 1
        report = validate_judgement_empirically(ctx, j, (0, 2, 4))
        assert report.ok, (proc.body, report.counterexamples[:1])
    assert generated == 500
    assert closed >= 50  # the generator must exercise the claim, not dodge it
    assert time.perf_counter() - started < 300.0
    _report(criterion_log, 6, f"all {closed} closed judgements out of 500 generated programs survive exhaustive execution", started)


def test_criterion_7_derived_rules_match_expansions(criterion_log):
    started = time.perf_counter()
    _, kb = load_corpus("assembly_corrected")
    program, _ = load_corpus("assembly_corrected")
    stubs = {"wheels": "wheelsVar", "doors": "doorsVar", "bodyId": "bodyVar"}
    concepts = {"wheels": HFW, "doors": ConceptAssertion(Atomic("HasTwoDoors"), "c")}
    rng = random.Random(7)
    agreements = 0
    failing_seen = 0
    for _ in range(24):
        closure = rng.random() < 0.5
        ctx = VerifCtx.build(program, kb.with_closure(closure))
        lifting = ctx.lifting
        picks = rng.sample(sorted(stubs), rng.randint(1, 2))
        values = {v: rng.choice((2, 4)) for v in picks}
        kernel = tuple(hv(stubs[v], n) for v, n in sorted(values.items()))
        phi = conj(tuple(Eq(Var(v), Lit(n)) for v, n in sorted(values.items())))
        target_var = picks[0]
        # assign from the parameter so substitution keeps the tier liftable
        stmt = Assign(target_var, Var("id"))

        # lift-var: both tiers are images of the lifting
        needed = substitute(phi, stmt.var, stmt.expr)
        lv = Judgement(
            assertion(tuple(sorted(lifting.lift_spec(needed), key=str)), needed),
            stmt,
            assertion(tuple(sorted(lifting.lift_spec(phi), key=str)), phi),
        )
        _, lv_obs = apply_rule(ctx, "lift-var", lv)
        lv_closed = all(o.status is ObligationStatus.PROVED for o in lv_obs)
        assert lv_closed == expand_lift_var(ctx, lv).closed

        # total: the domain goal is a concept, the kernel explains it
        goal = concepts.get(target_var, HFW)
        hat = And(phi, lifting.delift(kernel))
        needed = substitute(hat, stmt.var, stmt.expr)
        tj = Judgement(
            assertion(tuple(sorted(lifting.lift_spec(needed), key=str)), needed),
            stmt,
            assertion((goal,), phi),
        )
        _, t_obs = apply_rule(ctx, "total", tj, kernel=kernel)
        t_closed = all(o.status is ObligationStatus.PROVED for o in t_obs)
        expansion = expand_total(ctx, tj, kernel=kernel)
        assert t_closed == expansion.closed
        # the shared goal-to-kernel obligation carries the same verdict
        expansion_obs = {
            (o.kind, o.payload): o.status
            for _, node in expansion.walk()
            for o in node.obligations
        }
        shared = next(o for o in t_obs if "|=" in o.payload and str(goal) in o.payload)
        assert expansion_obs[(shared.kind, shared.payload)] is shared.status
        agreements += 1
        if not t_closed:
            failing_seen += 1
    assert agreements >= 20
    assert failing_seen >= 1  # the closure-off instances must exercise failure
    _report(criterion_log, 7, f"{agreements} generated assignment judgements: derived rules agree with their expansions ({failing_seen} failing)", started)


def test_criterion_8_tooling(criterion_log):
    started = time.perf_counter()
    # pretty-printing is a parse fixpoint on the whole corpus
    for stem in ("addwheels", "assembly_corrected", "assembly_verbatim"):
        kb_text = corpus_text(f"{stem}.kb")
        kb = parsing.parse_kb(kb_text)
        assert parsing.kb_to_text(parsing.parse_kb(parsing.kb_to_text(kb))) == parsing.kb_to_text(kb)
        assert parsing.kb_to_text(kb) == kb_text
        prog_text = corpus_text(f"{stem}.prog")
        program = parsing.parse_program(prog_text, kb)
        pretty = parsing.program_to_text(program)
        assert parsing.program_to_text(parsing.parse_program(pretty, kb)) == pretty
        assert pretty == prog_text

    # the checker accepts everything the strategy emits
    for stem in ("addwheels", "assembly_corrected", "assembly_verbatim"):
        program, kb = load_corpus(stem)
        ctx = VerifCtx.build(program, kb)
        for name, tree in verify_program(ctx).items():
            report = check_proof(ctx, tree)
            assert report.closed == tree.closed, (stem, name)

    # and rejects every stored mutation at the recorded node
    fixtures = sorted(DATA.glob("mutated_*.json"))
    assert len(fixtures) == 10
    ctxs = {}
    for path in fixtures:
        doc = json.loads(path.read_text(encoding="utf-8"))
        stem = doc["corpus"]
        if stem not in ctxs:
            program, kb = load_corpus(stem)
            ctxs[stem] = (VerifCtx.build(program, kb), program, kb)
        ctx, program, kb = ctxs[stem]
        tree = serialize.tree_from_dict(doc["tree"], kb, program)
        report = check_proof(ctx, tree)
        assert not report.closed, path.name
        assert report.failures[0].path == doc["expected_failure_path"], path.name

    # a certificate of the program: every tree must conclude its
    # procedure's contract over its body, and no procedure may lack one
    ctx = ctxs["assembly_corrected"][0]
    trees = verify_program(ctx)
    assert all(r.closed for r in check_program(ctx, trees).values())
    mutations = {
        "root swapped for another judgement": {**trees, "assembly": trees["addWheels"]},
        "procedure dropped": {"addWheels": trees["addWheels"]},
    }
    for name, mutated in mutations.items():
        reports = check_program(ctx, mutated)
        assert reports["addWheels"].closed, name
        assert not reports["assembly"].closed, name
        assert reports["assembly"].failures[0].path == "root", name
    _report(criterion_log, 8, "corpus pretty-print fixpoint; checker accepts emitted trees, rejects all 12 mutations node-precisely", started)
