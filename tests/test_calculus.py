import functools
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import twotier
from twotier import assertions, calculus, lang, reasoning
from twotier.assertions import assertion, assertion_holds, same_assertion
from twotier.calculus import (
    Judgement,
    ProofTree,
    VerifCtx,
    apply_rule,
    canonical_rule,
    check_proof,
    validate_judgement_empirically,
)
from twotier.domainlogic import Atomic, ConceptAssertion, DataAssertion
from twotier.errors import MissingArgument, RuleShapeMismatch
from twotier.lang import Assign, Call, If, RunContext, Seq, Skip, While, sequence
from twotier.statelogic import And, Eq, Lit, TRUE, Var, conj, substitute
from twotier.status import ObligationStatus

from tests.conftest import load_corpus
from tests.oracles import expand_lift_var, expand_total, neq

HFW = ConceptAssertion(Atomic("HasFourWheels"), "c")
hv4 = DataAssertion("hasValue", "wheelsVar", 4)

wheels4 = Eq(Var("wheels"), Lit(4))
param4 = Eq(Var("nrWheels"), Lit(4))


def test_rule_aliases():
    assert canonical_rule("post-abd") == "post-core"
    assert canonical_rule("post-abs") == "post-core"
    assert canonical_rule("new-var") == "var"
    assert canonical_rule("seq") == "seq"


def test_skip_rule(corrected_ctx):
    a = assertion((), wheels4)
    premises, obligations = apply_rule(
        corrected_ctx, "skip", Judgement(a, Skip(), a)
    )
    assert premises == () and obligations == ()
    with pytest.raises(RuleShapeMismatch):
        apply_rule(
            corrected_ctx,
            "skip",
            Judgement(a, Skip(), assertion((), param4)),
        )
    with pytest.raises(RuleShapeMismatch):
        apply_rule(corrected_ctx, "skip", Judgement(a, Assign("x", Lit(1)), a))


def test_var_rule_discharges_lifted_post(corrected_ctx):
    stmt = Assign("wheels", Var("nrWheels"))
    j = Judgement(assertion((), param4), stmt, assertion((HFW,), wheels4))
    premises, obligations = apply_rule(corrected_ctx, "var", j)
    assert premises == ()
    (ob,) = obligations
    assert ob.kind == "dl-entailment"
    assert ob.payload == "{hasValue(wheelsVar, 4)} |= {HasFourWheels(c)}"
    assert ob.status is ObligationStatus.PROVED


def test_var_rule_shape_errors(corrected_ctx):
    stmt = Assign("wheels", Var("nrWheels"))
    with pytest.raises(RuleShapeMismatch, match="empty domain"):
        apply_rule(
            corrected_ctx,
            "var",
            Judgement(assertion((HFW,), param4), stmt, assertion((), wheels4)),
        )
    with pytest.raises(RuleShapeMismatch, match="substituted"):
        apply_rule(
            corrected_ctx,
            "var",
            Judgement(assertion((), TRUE), stmt, assertion((), wheels4)),
        )


def test_contract_rule(corrected_ctx):
    stmt = Call("addWheels", Lit(4))
    from twotier.lang import contract_post, contract_pre

    pre = contract_pre(corrected_ctx.program, "addWheels", Lit(4))
    post = contract_post(corrected_ctx.program, "addWheels", Lit(4))
    premises, obligations = apply_rule(
        corrected_ctx, "contract", Judgement(pre, stmt, post)
    )
    assert premises == () and obligations == ()
    with pytest.raises(RuleShapeMismatch, match="declared precondition"):
        apply_rule(
            corrected_ctx,
            "contract",
            Judgement(assertion((), TRUE), stmt, post),
        )
    with pytest.raises(RuleShapeMismatch) as info:
        apply_rule(corrected_ctx, "contract", Judgement(pre, stmt, assertion((), TRUE)))
    assert str(info.value) == (
        "contract rule requires the declared postcondition "
        "(expected [ HasFourWheels(c) | nrDoors == 2 && bodyId != 0 ])"
    )


def test_seq_rule_needs_mid(corrected_ctx):
    stmt = Seq(Assign("wheels", Lit(4)), Skip())
    j = Judgement(assertion((), TRUE), stmt, assertion((), wheels4))
    with pytest.raises(MissingArgument):
        apply_rule(corrected_ctx, "seq", j)
    mid = assertion((), wheels4)
    premises, obligations = apply_rule(corrected_ctx, "seq", j, mid=mid)
    assert obligations == ()
    assert premises[0] == Judgement(j.pre, stmt.first, mid)
    assert premises[1] == Judgement(mid, stmt.second, j.post)


def test_branch_rule_splits_on_condition(corrected_ctx):
    stmt = If(Var("bodyId"), Skip(), Skip())
    pre = assertion((), wheels4)
    post = assertion((), wheels4)
    (then_j, else_j), obligations = apply_rule(
        corrected_ctx, "branch", Judgement(pre, stmt, post)
    )
    assert obligations == ()
    assert then_j.pre.state == And(wheels4, neq(Var("bodyId"), Lit(0)))
    assert else_j.pre.state == And(wheels4, Eq(Var("bodyId"), Lit(0)))
    with pytest.raises(RuleShapeMismatch, match="empty domain"):
        apply_rule(
            corrected_ctx,
            "branch",
            Judgement(assertion((HFW,), TRUE), stmt, post),
        )


def test_cons_rule_emits_two_implications(corrected_ctx):
    stmt = Assign("wheels", Lit(4))
    outer_pre = assertion((), And(param4, neq(Var("bodyId"), Lit(0))))
    inner_pre = assertion((), TRUE)
    inner_post = assertion((), wheels4)
    outer_post = assertion((), wheels4)
    (premise,), (ob1, ob2) = apply_rule(
        corrected_ctx,
        "cons",
        Judgement(outer_pre, stmt, outer_post),
        inner_pre=inner_pre,
        inner_post=inner_post,
    )
    assert premise == Judgement(inner_pre, stmt, inner_post)
    assert ob1.kind == ob2.kind == "assertion-implication"
    assert ob1.status is ObligationStatus.PROVED
    assert ob2.status is ObligationStatus.PROVED


def test_core_and_inv_rules(corrected_ctx):
    stmt = Assign("wheels", Lit(4))
    post = assertion((HFW,), TRUE)
    (premise,), (ob,) = apply_rule(
        corrected_ctx,
        "post-core",
        Judgement(assertion((), TRUE), stmt, post),
        kernel=(hv4,),
    )
    assert set(premise.post.domain) == {HFW, hv4}
    assert ob.kind == "dl-entailment" and ob.status is ObligationStatus.PROVED

    # post-inv moves the recovered equality into the state tier
    (premise2,), (sig_ob,) = apply_rule(
        corrected_ctx,
        "post-inv",
        Judgement(assertion((), TRUE), stmt, premise.post),
        delta_prime=(hv4,),
    )
    assert str(premise2.post.state) == "true && wheels == 4"
    assert sig_ob.kind == "signature-check"
    assert sig_ob.status is ObligationStatus.PROVED
    with pytest.raises(RuleShapeMismatch, match="come from"):
        apply_rule(
            corrected_ctx,
            "post-inv",
            Judgement(assertion((), TRUE), stmt, post),
            delta_prime=(hv4,),
        )


def test_lift_rules_enrich_domain(corrected_ctx):
    stmt = Skip()
    j = Judgement(assertion((), wheels4), stmt, assertion((), wheels4))
    (premise,), obligations = apply_rule(corrected_ctx, "pre-lift", j)
    assert obligations == ()
    assert premise.pre.domain == (hv4,)
    (premise2,), _ = apply_rule(corrected_ctx, "post-lift", j)
    assert premise2.post.domain == (hv4,)


ASSIGN = Assign("wheels", Var("nrWheels"))
hv2 = DataAssertion("hasValue", "wheelsVar", 2)


# rule, conclusion, arguments, the premise, its obligations as (kind,
# payload, status), and (arguments, error type, message) of failing calls
SIDED_CASES = [
    (
        "pre-lift",
        Judgement(assertion((), wheels4), Skip(), assertion((HFW,), TRUE)),
        {},
        "[ hasValue(wheelsVar, 4) | wheels == 4 ] skip; [ HasFourWheels(c) | - ]",
        [],
        [],
    ),
    (
        "post-lift",
        Judgement(assertion((HFW,), TRUE), Skip(), assertion((), wheels4)),
        {},
        "[ HasFourWheels(c) | - ] skip; [ hasValue(wheelsVar, 4) | wheels == 4 ]",
        [],
        [],
    ),
    (
        "pre-core",
        Judgement(assertion((HFW,), param4), ASSIGN, assertion((), wheels4)),
        {"kernel": (hv2,)},
        "[ HasFourWheels(c), hasValue(wheelsVar, 2) | nrWheels == 4 ] "
        "wheels := nrWheels; [ - | wheels == 4 ]",
        [("dl-entailment", "{HasFourWheels(c)} |= {hasValue(wheelsVar, 2)}", "Failed")],
        [({}, MissingArgument, "pre-core rule needs the kernel atoms")],
    ),
    (
        "pre-abd",
        Judgement(assertion((HFW,), param4), ASSIGN, assertion((), wheels4)),
        {"kernel": (hv2,)},
        "[ HasFourWheels(c), hasValue(wheelsVar, 2) | nrWheels == 4 ] "
        "wheels := nrWheels; [ - | wheels == 4 ]",
        [("dl-entailment", "{HasFourWheels(c)} |= {hasValue(wheelsVar, 2)}", "Failed")],
        [({}, MissingArgument, "pre-core rule needs the kernel atoms")],
    ),
    (
        "post-core",
        Judgement(assertion((), param4), ASSIGN, assertion((HFW,), wheels4)),
        {"kernel": (hv4,)},
        "[ - | nrWheels == 4 ] wheels := nrWheels; "
        "[ HasFourWheels(c), hasValue(wheelsVar, 4) | wheels == 4 ]",
        [("dl-entailment", "{HasFourWheels(c)} |= {hasValue(wheelsVar, 4)}", "Proved")],
        [({}, MissingArgument, "post-core rule needs the kernel atoms")],
    ),
    (
        "pre-inv",
        Judgement(assertion((HFW, hv4), param4), ASSIGN, assertion((), wheels4)),
        {"delta_prime": (hv4,)},
        "[ HasFourWheels(c), hasValue(wheelsVar, 4) | nrWheels == 4 && wheels == 4 ] "
        "wheels := nrWheels; [ - | wheels == 4 ]",
        [("signature-check", "sig({hasValue(wheelsVar, 4)}) within kernel", "Proved")],
        [
            ({}, MissingArgument, "pre-inv rule needs the recovered atoms"),
            (
                {"delta_prime": (hv2,)},
                RuleShapeMismatch,
                "pre-inv rule requires the recovered atoms to come from the "
                "domain precondition",
            ),
        ],
    ),
    (
        "post-inv",
        Judgement(assertion((), param4), ASSIGN, assertion((HFW, hv4), wheels4)),
        {"delta_prime": (hv4,)},
        "[ - | nrWheels == 4 ] wheels := nrWheels; "
        "[ HasFourWheels(c), hasValue(wheelsVar, 4) | wheels == 4 && wheels == 4 ]",
        [("signature-check", "sig({hasValue(wheelsVar, 4)}) within kernel", "Proved")],
        [
            ({}, MissingArgument, "post-inv rule needs the recovered atoms"),
            (
                {"delta_prime": (hv2,)},
                RuleShapeMismatch,
                "post-inv rule requires the recovered atoms to come from the "
                "domain postcondition",
            ),
        ],
    ),
]


@pytest.mark.parametrize(
    "rule, target, kwargs, premise, obligations, errors",
    SIDED_CASES,
    ids=[case[0] for case in SIDED_CASES],
)
def test_sided_rules(corrected_ctx, rule, target, kwargs, premise, obligations, errors):
    """Each side of core, inversion and lift, and an alias: the premise
    it leaves, the obligations it discharges and the errors of a missing
    or misplaced argument."""
    (got,), obs = apply_rule(corrected_ctx, rule, target, **kwargs)
    assert str(got) == premise
    assert [(o.kind, o.payload, o.status.value) for o in obs] == obligations
    for bad_kwargs, error, text in errors:
        with pytest.raises(error) as info:
            apply_rule(corrected_ctx, rule, target, **bad_kwargs)
        assert str(info.value) == text


@pytest.mark.parametrize("side", ["pre", "post"])
def test_inv_rule_fails_its_signature_check_outside_the_kernel(corrected_ctx, side):
    """An atom outside the kernel signature recovers no state conjunct,
    and the rule's signature check fails on it."""
    mystery = ConceptAssertion(Atomic("Mystery"), "c")
    tiers = {"pre": assertion(), "post": assertion(), side: assertion((mystery,))}
    target = Judgement(tiers["pre"], Skip(), tiers["post"])
    rule, recovered = f"{side}-inv", (mystery,)
    (got,), (ob,) = apply_rule(corrected_ctx, rule, target, delta_prime=recovered)
    # the recovered conjunct is true: the premise is the target
    assert same_assertion(got.pre, target.pre) and same_assertion(got.post, target.post)
    assert (ob.kind, ob.payload, ob.status) == (
        "signature-check",
        "sig({Mystery(c)}) within kernel",
        ObligationStatus.FAILED,
    )
    assert ob.note == "outside kernel: Mystery"


def test_lift_var_rule_and_expansion_agree(corrected_ctx):
    stmt = Assign("wheels", Var("nrWheels"))
    j = Judgement(
        assertion((DataAssertion("hasValue", "var_nrWheels", 4),), param4),
        stmt,
        assertion((hv4,), wheels4),
    )
    premises, (ob,) = apply_rule(corrected_ctx, "lift-var", j)
    assert premises == ()
    assert ob.status is ObligationStatus.PROVED
    tree = expand_lift_var(corrected_ctx, j)
    assert tree.closed
    assert tree.spine() == ("cons", "var")
    for bad, side in (
        (Judgement(assertion((), param4), stmt, j.post), "pre"),
        (Judgement(j.pre, stmt, assertion((), wheels4)), "post"),
    ):
        with pytest.raises(RuleShapeMismatch) as info:
            apply_rule(corrected_ctx, "lift-var", bad)
        assert str(info.value) == (
            f"lift-var rule requires the lifted {side}condition domain tier"
        )


def test_total_rule_and_expansion_agree(corrected_ctx):
    from twotier.statelogic import substitute

    stmt = Assign("wheels", Var("nrWheels"))
    phi = And(param4, wheels4)  # includes the delifted kernel conjunct
    hat = And(phi, corrected_ctx.lifting.delift((hv4,)))
    hat_sub = substitute(hat, "wheels", Var("nrWheels"))
    j = Judgement(
        assertion(
            tuple(
                sorted(
                    corrected_ctx.lifting.lift_spec(hat_sub), key=str
                )
            ),
            hat_sub,
        ),
        stmt,
        assertion((HFW,), phi),
    )
    premises, (ob1, ob2) = apply_rule(corrected_ctx, "total", j, kernel=(hv4,))
    assert premises == ()
    assert ob1.status is ObligationStatus.PROVED  # post domain entails kernel
    assert ob2.status is ObligationStatus.PROVED  # lifted post entails domain
    tree = expand_total(corrected_ctx, j, kernel=(hv4,))
    assert tree.closed
    assert tree.spine() == ("cons", "post-core", "post-inv", "cons", "var")


def test_unknown_rule_rejected(corrected_ctx):
    j = Judgement(assertion((), TRUE), Skip(), assertion((), TRUE))
    with pytest.raises(RuleShapeMismatch, match="unknown rule"):
        apply_rule(corrected_ctx, "frobnicate", j)


def test_check_proof_accepts_and_pinpoints(corrected_ctx):
    stmt = Assign("wheels", Var("nrWheels"))
    j = Judgement(assertion((), param4), stmt, assertion((HFW,), wheels4))
    _, obligations = apply_rule(corrected_ctx, "var", j)
    good = ProofTree(conclusion=j, rule="var", obligations=obligations)
    assert check_proof(corrected_ctx, good).closed

    bad_rule = ProofTree(conclusion=j, rule="skip", obligations=obligations)
    report = check_proof(corrected_ctx, bad_rule)
    assert not report.closed
    assert report.failures[0].path == "root"
    assert "skip rule requires a skip statement" in report.failures[0].reason

    dropped = ProofTree(conclusion=j, rule="var", obligations=())
    report = check_proof(corrected_ctx, dropped)
    assert not report.closed
    assert "missing obligation dl-entailment" in report.failures[0].reason


@pytest.mark.parametrize("rule", ["loop", "inv"])
def test_stored_loop_rule_is_unknown_to_the_checker(corrected_ctx, rule):
    stmt = While(Var("wheels"), Assign("wheels", Lit(0)))
    a = assertion((), TRUE)
    unrolled = Judgement(a, If(stmt.cond, Seq(stmt.body, stmt), Skip()), a)
    tree = ProofTree(
        Judgement(a, stmt, a), rule, premises=(ProofTree(unrolled, "open"),)
    )
    report = check_proof(corrected_ctx, tree)
    assert report.failures[0].path == "root"
    assert "unknown rule" in report.failures[0].reason


def test_check_proof_flags_open_leaves(corrected_ctx):
    j = Judgement(assertion((), TRUE), Skip(), assertion((), TRUE))
    tree = ProofTree(conclusion=j, rule="open")
    report = check_proof(corrected_ctx, tree)
    assert not report.closed
    assert "open leaf" in report.failures[0].reason


def test_empirical_validation_accepts_true_judgement(corrected_ctx):
    stmt = Assign("wheels", Var("nrWheels"))
    j = Judgement(assertion((), param4), stmt, assertion((HFW,), wheels4))
    report = validate_judgement_empirically(
        corrected_ctx, j, (0, 2, 4), samples=400, seed=1
    )
    assert report.tested > 0
    assert report.ok


def test_empirical_validation_refutes_false_judgement(corrected_ctx):
    stmt = Assign("wheels", Var("nrWheels"))
    j = Judgement(
        assertion((), Eq(Var("nrWheels"), Lit(3))),
        stmt,
        assertion((HFW,), TRUE),
    )
    report = validate_judgement_empirically(
        corrected_ctx, j, (0, 3, 4), samples=400, seed=1
    )
    assert not report.ok
    cex = report.counterexamples[0]
    assert dict(cex.sigma_prime)["wheels"] == 3


def test_empirical_validation_refutes_a_call_outside_its_precondition(corrected_ctx):
    """addWheels(4) requires nrDoors == 2 and bodyId != 0.  Every state
    that breaks it is a counterexample with no outcome state, although
    the judgement's own pre and post are empty."""
    j = Judgement(assertion(), Call("addWheels", Lit(4)), assertion())
    report = validate_judgement_empirically(corrected_ctx, j, (0, 2, 4))
    names = corrected_ctx.program.variables
    product = itertools.product((0, 2, 4), repeat=len(names))
    states = [dict(zip(names, c)) for c in product]
    breaking = [s for s in states if s["nrDoors"] != 2 or s["bodyId"] == 0]
    assert (report.tested, len(breaking)) == (729, 567)
    assert [
        (dict(cx.sigma), cx.sigma_prime, cx.detail) for cx in report.counterexamples
    ] == [(s, None, "callee precondition violated") for s in breaking]


def test_check_proof_lets_checker_bugs_propagate(corrected_ctx, monkeypatch):
    a = assertion((), wheels4)
    tree = ProofTree(Judgement(a, Skip(), a), "skip")
    assert check_proof(corrected_ctx, tree).closed

    def broken(*args, **kwargs):
        raise KeyError("checker bug")

    monkeypatch.setattr(calculus, "apply_rule", broken)
    with pytest.raises(KeyError):
        check_proof(corrected_ctx, tree)


def test_empirical_validation_samples_without_building_the_product(
    corrected_ctx, monkeypatch
):
    # six variables over eleven values: 1.77 million states
    def build_all(self):
        raise AssertionError("the validator built every state")

    monkeypatch.setattr(RunContext, "all_states", build_all)
    j = Judgement(assertion(), Assign("wheels", Lit(4)), assertion((), wheels4))
    report = validate_judgement_empirically(
        corrected_ctx, j, range(11), samples=50, seed=3
    )
    assert report.tested == 50
    assert report.ok


def test_empirical_validation_samples_the_states_of_the_full_product(corrected_ctx):
    j = Judgement(assertion(), Skip(), assertion((), wheels4))
    report = validate_judgement_empirically(
        corrected_ctx, j, (4, 0, 2), samples=100, seed=5
    )
    states = every_state(corrected_ctx.program, (0, 2, 4))
    expected = [s for s in random.Random(5).sample(states, 100) if s["wheels"] != 4]
    assert report.tested == 100
    assert [dict(cx.sigma) for cx in report.counterexamples] == expected


FUZZ_ADDWHEELS = """
from importlib import resources
from twotier import parsing
from twotier.assertions import assertion
from twotier.calculus import Judgement, VerifCtx, validate_judgement_empirically
from twotier.lang import Call
from twotier.statelogic import Eq, Lit, Var

corpus = resources.files("twotier") / "corpus"
kb = parsing.parse_kb((corpus / "assembly_corrected.kb").read_text())
program = parsing.parse_program((corpus / "assembly_corrected.prog").read_text(), kb)
j = Judgement(assertion(), Call("addWheels", Lit(4)), assertion((), Eq(Var("doors"), Lit(0))))
report = validate_judgement_empirically(VerifCtx.build(program, kb), j, (0, 2, 4), samples=50)
print(len(report.counterexamples))
for cx in report.counterexamples:
    print(cx)
"""


def test_fuzz_counterexamples_do_not_depend_on_the_hash_seed():
    # the call havocs its callee's variables: each sigma has many outcomes,
    # and 38 of the 50 sampled break addWheels's pre, one counterexample each
    src = str(Path(twotier.__file__).resolve().parents[1])
    outputs = {
        subprocess.run(
            [sys.executable, "-c", FUZZ_ADDWHEELS],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("1", "2", "3")
    }
    assert len(outputs) == 1
    assert outputs.pop().startswith("470\n")


EMPTY = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"


@pytest.mark.hashseed
@pytest.mark.parametrize(
    "ctx_name, proc, domain, tested, found, fuel_issues, digest",
    [
        ("addwheels_ctx", "addWheels", (0, 2, 4), 3, 0, 0, EMPTY),
        ("addwheels_ctx", "addWheels", (0, 1, 2, 4), 4, 0, 0, EMPTY),
        ("corrected_ctx", "addWheels", (0, 2, 4), 54, 0, 0, EMPTY),
        ("corrected_ctx", "addWheels", (0, 1, 2, 4), 192, 0, 0, EMPTY),
        ("corrected_ctx", "assembly", (0, 2, 4), 162, 0, 0, EMPTY),
        ("corrected_ctx", "assembly", (0, 1, 2, 4), 768, 0, 0, EMPTY),
        ("verbatim_ctx", "addWheels", (0, 2, 4), 54, 0, 0, EMPTY),
        ("verbatim_ctx", "addWheels", (0, 1, 2, 4), 192, 0, 0, EMPTY),
        (
            "verbatim_ctx",
            "assembly",
            (0, 2, 4),
            162,
            2916,
            0,
            "2691f368c3adc0ecce8aed5599c3bfa942bd281fd8d86abd5655db958dc78bbe",
        ),
        (
            "verbatim_ctx",
            "assembly",
            (0, 1, 2, 4),
            768,
            36864,
            0,
            "9e23fcfa8bb220e0d7cd8722f9fd827a42a9ba315c02e4fa365a94b4e8d3d7ec",
        ),
    ],
)
def test_fuzz_reports_of_the_corpus_are_pinned(
    request, ctx_name, proc, domain, tested, found, fuel_issues, digest
):
    """Each corpus procedure's contract fuzzed over two domains gives the
    same report, counterexamples in the same order, as an interpreter
    that runs a call's continuation and checks the post for every state."""
    ctx = request.getfixturevalue(ctx_name)
    p = ctx.program.procedure(proc)
    j = Judgement(p.contract.pre, p.body, p.contract.post)
    report = validate_judgement_empirically(ctx, j, domain)
    listed = [[cx.sigma, cx.sigma_prime, cx.detail] for cx in report.counterexamples]
    assert (report.tested, len(report.counterexamples), report.fuel_issues) == (
        tested,
        found,
        fuel_issues,
    )
    assert hashlib.sha256(json.dumps(listed).encode()).hexdigest() == digest


@pytest.mark.hashseed
def test_fuzzing_runs_a_havoc_once(corrected_ctx, monkeypatch):
    """Every tested state of assembly reaches addWheels(4)'s one havoc set:
    the fuzzer runs the compiled `doors := nrDoors` once per state of that
    set and checks the post once per outcome state, not once per tested state."""
    domain = (0, 1, 2, 4)
    run = RunContext(
        corrected_ctx.program, corrected_ctx.kb, corrected_ctx.lifting, domain
    )
    havoc = run.post_states("addWheels", 4)
    last = Assign("doors", Var("nrDoors"))
    p = corrected_ctx.program.procedure("assembly")
    j = Judgement(p.contract.pre, p.body, p.contract.post)
    interpreted: list = []
    checked: list = []
    compile_statement, holds = lang._compile, assertions.assertion_holds

    def counting_compile(s, ctx, then=lang._end):
        compiled = compile_statement(s, ctx, then)
        if s != last:
            return compiled

        def counting(values):
            interpreted.append(values)
            return compiled(values)

        return counting

    def counting_holds(sigma, a, kb, lifting):
        if a == j.post:
            checked.append(tuple(sorted(sigma.items())))
        return holds(sigma, a, kb, lifting)

    monkeypatch.setattr(lang, "_compile", counting_compile)
    monkeypatch.setattr(assertions, "assertion_holds", counting_holds)
    report = validate_judgement_empirically(corrected_ctx, j, domain)
    assert report.tested == 768 and report.ok
    assert len(havoc) > 1
    assert len(interpreted) == len(set(interpreted)) and set(interpreted) <= havoc
    assert set(interpreted) == havoc
    assert checked and len(checked) == len(set(checked))


def big_step(s, sigmas: list[dict], call) -> tuple[list[dict], bool]:
    """The final states of s from each state of sigmas, once each, and
    whether a callee's pre broke: the big-step rules over dicts, lifted
    to lists of states.  A loop of the generated grammar,
    `while (v) do v := 0; od`, ends after at most one round."""
    if isinstance(s, Seq):
        mids, broke = big_step(s.first, sigmas, call)
        finals, broke_later = big_step(s.second, mids, call)
        return finals, broke or broke_later
    finals, broke = [], False
    for sigma in sigmas:
        if isinstance(s, Skip) or isinstance(s, While) and sigma[s.cond.name] == 0:
            finals.append(sigma)
        elif isinstance(s, Assign):
            e = s.expr
            finals.append({**sigma, s.var: e.value if isinstance(e, Lit) else sigma[e.name]})
        else:
            if isinstance(s, If):
                branch = s.then if sigma[s.cond.name] != 0 else s.orelse
                more, more_broke = big_step(branch, [sigma], call)
            elif isinstance(s, While):
                more, more_broke = big_step(Seq(s.body, s), [sigma], call)
            else:
                more, more_broke = call(s, sigma)
            finals += more
            broke = broke or more_broke
    # every state lists its variables in the program's order
    return list({tuple(t.items()): t for t in finals}.values()), broke


def every_state(program, domain) -> list[dict]:
    names = program.variables
    return [dict(zip(names, c)) for c in itertools.product(domain, repeat=len(names))]


def big_step_report(ctx, j, domain, starts=None) -> calculus.FuzzReport:
    """The fuzz report of j by `big_step`, from each state of starts
    afresh, every state over the domain by default."""
    program, kb, lifting = ctx.program, ctx.kb, ctx.lifting
    every = every_state(program, domain)
    holds = functools.cache(
        lambda items, a: assertion_holds(dict(items), a, kb, lifting)
    )

    @functools.cache
    def contract(proc, n):
        p = program.procedure(proc)
        pre, post = (
            assertion(tier.domain, substitute(tier.state, p.parameter, Lit(n)))
            for tier in (p.contract.pre, p.contract.post)
        )
        return pre, [t for t in every if holds(tuple(t.items()), post)]

    def call(s, sigma):
        pre, post_states = contract(s.proc, s.arg.value)
        if not holds(tuple(sigma.items()), pre):
            return [], True
        return post_states, False

    tested, found = 0, []
    for sigma in every if starts is None else starts:
        if not holds(tuple(sigma.items()), j.pre):
            continue
        tested += 1
        finals, broke = big_step(j.stmt, [sigma], call)
        items = tuple(sorted(sigma.items()))
        if broke:
            found.append(calculus.FuzzCounterexample(items, None, "callee precondition violated"))
        bad = [tuple(sorted(t.items())) for t in finals if not holds(tuple(t.items()), j.post)]
        found += [calculus.FuzzCounterexample(items, b, "postcondition violated") for b in sorted(bad)]
    return calculus.FuzzReport(tested, tuple(found), 0)


GENERATED_VARS = ("wheels", "doors", "bodyId", "nrDoors")
generated_values = st.sampled_from((0, 2, 4)).map(Lit)
simple_statements = st.builds(
    Assign,
    st.sampled_from(GENERATED_VARS),
    st.one_of(generated_values, st.sampled_from(("nrDoors", "id")).map(Var)),
)
generated_statements = st.one_of(
    simple_statements,
    st.builds(If, st.sampled_from(GENERATED_VARS).map(Var), simple_statements, simple_statements),
    st.sampled_from(GENERATED_VARS).map(lambda v: While(Var(v), Assign(v, Lit(0)))),
    st.just(Call("addWheels", Lit(4))),
)


def liftable(variables):
    atom = st.one_of(
        st.builds(Eq, st.sampled_from(variables).map(Var), generated_values),
        st.sampled_from(variables).map(lambda v: neq(Var(v), Lit(0))),
    )
    return st.lists(atom, max_size=2).map(conj)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    pre=liftable(("nrDoors", "id", "bodyId")).map(lambda phi: assertion((), phi)),
    stmts=st.lists(generated_statements, min_size=1, max_size=6),
    post=st.one_of(
        liftable(("wheels", "doors", "bodyId")).map(lambda phi: assertion((), phi)),
        liftable(("doors",)).map(
            lambda phi: assertion((HFW,), And(phi, Eq(Var("wheels"), Lit(4))))
        ),
    ),
    samples=st.integers(1, 728),
    seed=st.integers(0, 2**32 - 1),
)
@example(
    pre=assertion((), Eq(Var("nrDoors"), Lit(2))),
    stmts=[
        If(Var("doors"), Assign("bodyId", Var("id")), Assign("bodyId", Lit(2))),
        Call("addWheels", Lit(4)),
        While(Var("doors"), Assign("doors", Lit(0))),
        Assign("wheels", Var("nrDoors")),
    ],
    post=assertion((HFW,), Eq(Var("wheels"), Lit(4))),
    samples=100,
    seed=5,
)
def test_fuzz_reports_match_a_big_step_evaluator(
    corrected_ctx, pre, stmts, post, samples, seed
):
    """The compiled statements of the benchmark's generated grammar give
    the fuzz report of an evaluator that shares no code with them, over
    all 729 states and over a seeded sample of them, from the states
    `random.sample` picks from the full product."""
    j = Judgement(pre, sequence(stmts), post)
    domain = (0, 2, 4)
    expected = big_step_report(corrected_ctx, j, domain)
    assert validate_judgement_empirically(corrected_ctx, j, domain) == expected
    every = every_state(corrected_ctx.program, domain)
    picks = random.Random(seed).sample(every, samples)
    expected = big_step_report(corrected_ctx, j, domain, picks)
    report = validate_judgement_empirically(corrected_ctx, j, domain, samples, seed)
    assert report == expected


@pytest.mark.hashseed
def test_the_fuzzer_asks_the_reasoner_in_one_order_under_every_hash_seed(
    monkeypatch,
):
    """A state is a tuple of ints, which hashes alike under every hash
    seed, so sets of states iterate in one order and the fuzzer asks its
    domain queries in one order too.  It asks each assertion's restricted
    query once per projection onto the relevant variables, and keeps the
    answers on the kb's reasoner, so the kb is a fresh one."""
    program, kb = load_corpus("assembly_corrected")
    ctx = VerifCtx.build(program, kb)
    asked: list = []
    entails = reasoning.entails

    def recording(premises, conclusion, kb, **bounds):
        premises = frozenset(premises)
        asked.append(
            [sorted(map(str, premises)), [str(c) for c in conclusion], bounds]
        )
        return entails(premises, conclusion, kb, **bounds)

    monkeypatch.setattr(reasoning, "entails", recording)
    p = program.procedure("assembly")
    j = Judgement(p.contract.pre, p.body, p.contract.post)
    report = validate_judgement_empirically(ctx, j, (0, 1, 2, 4))
    assert report.tested == 768 and report.ok
    digest = hashlib.sha256(json.dumps(asked).encode()).hexdigest()
    assert (len(asked), digest) == (
        51,
        "dbe315b3c1618a7e7fb7f4905c526d90cba0f84fb51ac1a438e17da94176a691",
    )


@pytest.mark.hashseed
def test_fuzzing_asks_few_model_searches(monkeypatch):
    """Fuzzing corrected assembly over {0, 1, 2, 4} on a fresh kb: each
    domain query keeps only the premises about individuals that K or the
    postcondition names, so states that differ elsewhere share a search.
    This makes 51 model searches; asking every full query made 816."""
    program, kb = load_corpus("assembly_corrected")
    ctx = VerifCtx.build(program, kb)
    p = program.procedure("assembly")
    j = Judgement(p.contract.pre, p.body, p.contract.post)
    searches: list = []
    search = reasoning.find_model

    def counting(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(reasoning, "find_model", counting)
    report = validate_judgement_empirically(ctx, j, (0, 1, 2, 4))
    assert report.tested == 768 and report.ok
    assert 0 < len(searches) <= 816 // 10
