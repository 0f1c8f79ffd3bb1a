"""Backward proof search for two-tier judgements.

The strategy is deliberately simple and incomplete: the calculus has no
invariant rule, so every loop is left open, and the strategy enriches
assertions only with kernel atoms that the reasoner can deduce.
Judgements it cannot close are returned as trees with open leaves
carrying diagnostics.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import BudgetExceeded, NoExplanation, RuleShapeMismatch
from .statelogic import And, Eq, Lit, Not, StateFormula, disj, holds, substitute
from .statelogic import state_implies_counterexample
from .domainlogic import DomainFormula, Subsumption, signature_of
from .lifting import SpecLifting
from .kernel import alpha_abduce, informative_kernel
from .status import ObligationStatus
from . import reasoning
from .assertions import TwoTierAssertion, assertion, same_assertion
from .lang import (
    Assign,
    Call,
    Expr,
    If,
    Procedure,
    Seq,
    Skip,
    Statement,
    While,
    contract_post,
    contract_pre,
    statements_of,
)
from .calculus import (
    Judgement,
    Obligation,
    OPEN_RULE,
    ProofTree,
    VerifCtx,
    chain,
    cons_step,
    kernel_steps,
    step,
)


def open_leaf(j: Judgement, reason: str) -> ProofTree:
    return ProofTree(
        conclusion=j,
        rule=OPEN_RULE,
        obligations=(
            Obligation("strategy", reason, ObligationStatus.FAILED, reason),
        ),
    )


def _invertible(
    lifting: SpecLifting, atoms
) -> tuple[DomainFormula, ...]:
    return tuple(a for a in atoms if lifting.delift_atom(a) is not None)


def _conj_delift(lifting: SpecLifting, phi: StateFormula, atoms) -> StateFormula:
    if not atoms:
        return phi
    return And(phi, lifting.delift(atoms))


# ---------------------------------------------------------------------------
# Provenance for failed consequence steps


def _concepts_over_role(ctx: VerifCtx, role: str) -> tuple[str, ...]:
    names: set[str] = set()
    for ax in ctx.kb.axioms:
        if isinstance(ax, Subsumption):
            sig = signature_of((ax,))
            if role in sig.abstract_roles | sig.concrete_roles:
                names |= sig.atomic_concepts
    return tuple(sorted(names))


def _provenance_note(
    ctx: VerifCtx,
    counter_state,
    recovered_atoms,
    var: str,
    expr: Expr,
) -> str:
    """Explain which recovered domain atoms the counter-state violates."""
    parts = []
    for atom, phi in ctx.lifting.delift_pairs(recovered_atoms):
        needed = substitute(phi, var, expr)
        if holds(needed, counter_state):
            continue
        line = f"unmet conjunct {needed} recovered from domain atom {atom}"
        stub = reasoning._about_one(atom)
        role = next((s.role for s in ctx.kb.stubs if s.stub == stub), None)
        if role:
            concepts = _concepts_over_role(ctx, role)
            if concepts:
                line += (
                    f"; axioms over role {role} involve concepts "
                    + ", ".join(concepts)
                )
        parts.append(line)
    return "; ".join(parts)


# ---------------------------------------------------------------------------
# Backward derivation


def derive(ctx: VerifCtx, j: Judgement) -> ProofTree:
    stmt = j.stmt
    try:
        if isinstance(stmt, Assign):
            return _derive_assign(ctx, j)
        if isinstance(stmt, Call):
            return _derive_call(ctx, j)
        if isinstance(stmt, Skip):
            return _derive_skip(ctx, j)
        if isinstance(stmt, Seq):
            return _derive_seq(ctx, j)
        if isinstance(stmt, If):
            return _derive_if(ctx, j)
        if isinstance(stmt, While):
            return open_leaf(
                j, "the calculus has no invariant rule, so loops are left Open"
            )
    except RuleShapeMismatch as exc:
        return open_leaf(j, f"rule application failed: {exc}")
    return open_leaf(j, f"unsupported statement {stmt!r}")


def _enrich(ctx: VerifCtx, a: TwoTierAssertion):
    """Kernel enrichment of an assertion: its informative deduced atoms
    `alpha`, and the atoms of its enlarged domain tier that recover a
    state conjunct.  Returns (alpha, recovered)."""
    alpha = informative_kernel(a.domain, ctx.kb, ctx.pool) if a.domain else ()
    return alpha, _invertible(ctx.lifting, a.domain + alpha)


def _cons_to(ctx: VerifCtx, j: Judgement, inner_pre, inner_post, leaf) -> ProofTree:
    """`leaf` of the judgement with tiers `inner_pre` and `inner_post`,
    under a cons step concluding `j` unless `j` has those tiers already
    (up to `same_assertion`: the leaf then still concludes the inner
    tiers as written, as proof files always have)."""
    if same_assertion(j.pre, inner_pre) and same_assertion(j.post, inner_post):
        return leaf(Judgement(inner_pre, j.stmt, inner_post))
    return chain(ctx, j, [cons_step(inner_pre, inner_post)], leaf)


def _derive_assign(ctx: VerifCtx, j: Judgement) -> ProofTree:
    """Both tiers enriched, post first, then var from the substituted
    enriched postcondition state, reached by cons."""
    stmt = j.stmt
    assert isinstance(stmt, Assign)
    alpha2, dp2 = _enrich(ctx, j.post)
    alpha1, dp1 = _enrich(ctx, j.pre)

    def leaf(enriched: Judgement) -> ProofTree:
        post = enriched.post
        needed = assertion((), substitute(post.state, stmt.var, stmt.expr))
        tree = _cons_to(ctx, enriched, needed, post, lambda vj: step(ctx, "var", vj))
        ob1 = tree.obligations[0]
        if dp2 and tree.rule == "cons" and ob1.status == ObligationStatus.FAILED:
            # the counter-state, if any, that refuted the state tier
            cex = state_implies_counterexample(enriched.pre.state, needed.state)
            note = "" if cex is None else _provenance_note(ctx, cex, dp2, stmt.var, stmt.expr)
            if note:
                ob1 = replace(ob1, note=ob1.note + "; " + note)
                tree = replace(tree, obligations=(ob1,) + tree.obligations[1:])
        return tree

    steps = kernel_steps("post", alpha2, dp2) + kernel_steps("pre", alpha1, dp1)
    return chain(ctx, j, steps, leaf)


def _derive_call(ctx: VerifCtx, j: Judgement) -> ProofTree:
    stmt = j.stmt
    assert isinstance(stmt, Call)
    cpre = contract_pre(ctx.program, stmt.proc, stmt.arg)
    cpost = contract_post(ctx.program, stmt.proc, stmt.arg)
    return _cons_to(ctx, j, cpre, cpost, lambda cj: step(ctx, "contract", cj))


def _derive_skip(ctx: VerifCtx, j: Judgement) -> ProofTree:
    if same_assertion(j.pre, j.post):
        return step(ctx, "skip", j)
    return chain(ctx, j, [cons_step(j.post, j.post)], lambda sj: step(ctx, "skip", sj))


def needed_pre(ctx: VerifCtx, stmt: Statement, post: TwoTierAssertion) -> TwoTierAssertion:
    """A heuristic empty-domain precondition from which `stmt` is likely
    derivable with postcondition `post`."""
    if isinstance(stmt, Assign):
        _alpha, recovered = _enrich(ctx, post)
        phihat = _conj_delift(ctx.lifting, post.state, recovered)
        return assertion((), substitute(phihat, stmt.var, stmt.expr))
    if isinstance(stmt, Call):
        return contract_pre(ctx.program, stmt.proc, stmt.arg)
    if isinstance(stmt, Skip):
        if not post.domain:
            return assertion((), post.state)
        try:
            explanations = alpha_abduce(post.domain, ctx.kb, ctx.pool, max_results=1)
        except (NoExplanation, BudgetExceeded):
            # an undecided abduction (cyclic kb) falls back like a failed
            # one; the guess only picks `mid`, the obligations decide
            return assertion((), post.state)
        atoms = _invertible(ctx.lifting, explanations[0].atoms)
        if set(atoms) != set(explanations[0].atoms):
            return assertion((), post.state)
        return assertion((), _conj_delift(ctx.lifting, post.state, atoms))
    if isinstance(stmt, If):
        then_pre = needed_pre(ctx, stmt.then, post)
        else_pre = needed_pre(ctx, stmt.orelse, post)
        if then_pre.domain or else_pre.domain:
            return assertion((), post.state)
        return assertion(
            (),
            disj(
                And(Not(Eq(stmt.cond, Lit(0))), then_pre.state),
                And(Eq(stmt.cond, Lit(0)), else_pre.state),
            ),
        )
    if isinstance(stmt, Seq):
        return needed_pre(ctx, stmt.first, needed_pre(ctx, stmt.second, post))
    return assertion((), post.state)


def _derive_seq(ctx: VerifCtx, j: Judgement) -> ProofTree:
    stmt = j.stmt
    assert isinstance(stmt, Seq)
    trailing = statements_of(stmt.first)[-1]
    if isinstance(trailing, Call):
        mid = contract_post(ctx.program, trailing.proc, trailing.arg)
    else:
        mid = needed_pre(ctx, stmt.second, j.post)
    return step(ctx, "seq", j, lambda pj: derive(ctx, pj), mid=mid)


def _derive_if(ctx: VerifCtx, j: Judgement) -> ProofTree:
    """branch, under the pre-side kernel steps and a cons that clear
    the precondition's domain tier when it has one."""
    assert isinstance(j.stmt, If)

    def branch(bj: Judgement) -> ProofTree:
        return step(ctx, "branch", bj, lambda pj: derive(ctx, pj))

    def leaf(enriched: Judgement) -> ProofTree:
        cleared = assertion((), enriched.pre.state)
        return _cons_to(ctx, enriched, cleared, enriched.post, branch)

    return chain(ctx, j, kernel_steps("pre", *_enrich(ctx, j.pre)), leaf)


# ---------------------------------------------------------------------------
# Entry points


def verify_procedure(ctx: VerifCtx, proc: Procedure) -> ProofTree:
    j = Judgement(proc.contract.pre, proc.body, proc.contract.post)
    return derive(ctx, j)


def verify_program(ctx: VerifCtx) -> dict[str, ProofTree]:
    return {p.name: verify_procedure(ctx, p) for p in ctx.program.procedures}
