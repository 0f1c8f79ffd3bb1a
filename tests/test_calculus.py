import itertools
import random

import pytest

from twotier import calculus
from twotier.assertions import assertion
from twotier.calculus import (
    Judgement,
    ProofTree,
    apply_rule,
    canonical_rule,
    check_proof,
    expand_lift_var,
    expand_total,
    validate_judgement_empirically,
)
from twotier.domainlogic import Atomic, ConceptAssertion, DataAssertion
from twotier.errors import MissingArgument, RuleShapeMismatch
from twotier.lang import Assign, Call, If, RunContext, Seq, Skip, While
from twotier.statelogic import And, Eq, Lit, TRUE, Var, neq
from twotier.status import ObligationStatus

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
    names = corrected_ctx.program.variables
    product = itertools.product((0, 2, 4), repeat=len(names))
    states = [dict(zip(names, c)) for c in product]
    expected = [s for s in random.Random(5).sample(states, 100) if s["wheels"] != 4]
    assert report.tested == 100
    assert [dict(cx.sigma) for cx in report.counterexamples] == expected
