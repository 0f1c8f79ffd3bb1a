"""Backward proof search for two-tier judgements.

The strategy is deliberately simple and incomplete: the calculus has no
invariant rule, so every loop is left open, and the strategy enriches
assertions only with kernel atoms that the reasoner can deduce.
Judgements it cannot close are returned as trees with open leaves
carrying diagnostics.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from .errors import BudgetExceeded, NoExplanation, RuleShapeMismatch, UnboundVariable
from .statelogic import And, Eq, Lit, Not, StateFormula, disj, holds, same_state, substitute
from .statelogic import state_implies_counterexample
from .domainlogic import (
    ConceptAssertion,
    DataAssertion,
    DomainFormula,
    Subsumption,
    signature_of,
)
from .lifting import SpecLifting
from .kernel import alpha_abduce, informative_kernel
from .status import ObligationStatus
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
    _cons,
    _kernel_steps,
    _node,
    apply_rule,
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


def _stub_role(ctx: VerifCtx, stub: str) -> Optional[str]:
    for s in ctx.kb.stubs:
        if s.stub == stub:
            return s.role
    return None


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
        try:
            falsified = not holds(needed, counter_state)
        except UnboundVariable:
            falsified = False
        if not falsified:
            continue
        line = f"unmet conjunct {needed} recovered from domain atom {atom}"
        stub = None
        if isinstance(atom, DataAssertion):
            stub = atom.subject
        elif isinstance(atom, ConceptAssertion):
            stub = atom.individual
        role = _stub_role(ctx, stub) if stub else None
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
    """Kernel enrichment of an assertion: informative deduced atoms
    plus the recovered state conjuncts.  Returns (alpha, recovered,
    enriched_domain, enriched_state)."""
    alpha = informative_kernel(a.domain, ctx.kb, ctx.pool) if a.domain else ()
    full = tuple(a.domain) + tuple(x for x in alpha if x not in a.domain)
    recovered = _invertible(ctx.lifting, full)
    return alpha, recovered, full, _conj_delift(ctx.lifting, a.state, recovered)


def _derive_assign(ctx: VerifCtx, j: Judgement) -> ProofTree:
    stmt = j.stmt
    assert isinstance(stmt, Assign)
    alpha2, dp2, d2full, phi2hat = _enrich(ctx, j.post)
    phineed = substitute(phi2hat, stmt.var, stmt.expr)
    alpha1, dp1, d1full, phi1hat = _enrich(ctx, j.pre)

    inner_pre = assertion((), phineed)
    inner_post = assertion(d2full, phi2hat)
    tree = _node(ctx, "var", Judgement(inner_pre, stmt, inner_post))

    if d1full or not same_state(phi1hat, phineed):
        tree = _cons(ctx, Judgement(assertion(d1full, phi1hat), stmt, inner_post), tree)
        ob1 = tree.obligations[0]
        if dp2 and ob1.status == ObligationStatus.FAILED:
            # the counter-state, if any, that refuted the state tier
            cex = state_implies_counterexample(phi1hat, phineed)
            note = "" if cex is None else _provenance_note(ctx, cex, dp2, stmt.var, stmt.expr)
            if note:
                ob1 = replace(ob1, note=ob1.note + "; " + note)
                tree = replace(tree, obligations=(ob1,) + tree.obligations[1:])
    outer = Judgement(j.pre, stmt, inner_post)
    tree = _kernel_steps(ctx, tree, outer, "pre", alpha1, dp1, d1full)
    return _kernel_steps(ctx, tree, j, "post", alpha2, dp2, d2full)


def _derive_call(ctx: VerifCtx, j: Judgement) -> ProofTree:
    stmt = j.stmt
    assert isinstance(stmt, Call)
    cpre = contract_pre(ctx.program, stmt.proc, stmt.arg)
    cpost = contract_post(ctx.program, stmt.proc, stmt.arg)
    leaf = _node(ctx, "contract", Judgement(cpre, stmt, cpost))
    if same_assertion(j.pre, cpre) and same_assertion(j.post, cpost):
        return leaf
    return _cons(ctx, j, leaf)


def _derive_skip(ctx: VerifCtx, j: Judgement) -> ProofTree:
    if same_assertion(j.pre, j.post):
        return _node(ctx, "skip", j)
    return _cons(ctx, j, _node(ctx, "skip", Judgement(j.post, j.stmt, j.post)))


def needed_pre(ctx: VerifCtx, stmt: Statement, post: TwoTierAssertion) -> TwoTierAssertion:
    """A heuristic empty-domain precondition from which `stmt` is likely
    derivable with postcondition `post`."""
    if isinstance(stmt, Assign):
        _alpha, _dp, _full, phihat = _enrich(ctx, post)
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
    left = derive(ctx, Judgement(j.pre, stmt.first, mid))
    right = derive(ctx, Judgement(mid, stmt.second, j.post))
    return _node(ctx, "seq", j, premises=(left, right), mid=mid)


def _clear_pre_domain(ctx: VerifCtx, j: Judgement, inner):
    """Wrap pre-core / pre-inv / cons steps around `inner(cleared)` so
    that a rule requiring an empty-domain precondition applies."""
    alpha1, dp1, d1full, phi1hat = _enrich(ctx, j.pre)
    cleared = Judgement(assertion((), phi1hat), j.stmt, j.post)
    tree = _cons(ctx, Judgement(assertion(d1full, phi1hat), j.stmt, j.post), inner(cleared))
    return _kernel_steps(ctx, tree, j, "pre", alpha1, dp1, d1full)


def _derive_if(ctx: VerifCtx, j: Judgement) -> ProofTree:
    stmt = j.stmt
    assert isinstance(stmt, If)
    if j.pre.domain:
        return _clear_pre_domain(ctx, j, lambda cleared: _derive_if(ctx, cleared))
    premise_js, _obs = apply_rule(ctx, "branch", j)
    subtrees = tuple(derive(ctx, pj) for pj in premise_js)
    return _node(ctx, "branch", j, premises=subtrees)


# ---------------------------------------------------------------------------
# Entry points


def verify_procedure(ctx: VerifCtx, proc: Procedure) -> ProofTree:
    j = Judgement(proc.contract.pre, proc.body, proc.contract.post)
    return derive(ctx, j)


def verify_program(ctx: VerifCtx) -> dict[str, ProofTree]:
    return {p.name: verify_procedure(ctx, p) for p in ctx.program.procedures}
