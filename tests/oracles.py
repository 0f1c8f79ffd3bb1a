"""Oracles that the package is tested against, kept out of it because
only tests read them: the recursive semantics of state formulas, which
`compile_formula` and `holds` must agree with; the primitive derivations
behind the derived rules lift-var and total (criterion 7); and small
helpers for writing formulas, assertions and proof trees."""

from __future__ import annotations

from twotier.assertions import assertion
from twotier.calculus import (
    Judgement,
    ProofTree,
    VerifCtx,
    chain,
    cons_step,
    kernel_steps,
    step,
)
from twotier.domainlogic import DomainFormula
from twotier.errors import UnboundVariable
from twotier.lang import Assign
from twotier.statelogic import (
    And,
    Eq,
    Lit,
    Not,
    ProgramState,
    StateFormula,
    Term,
    Var,
    substitute,
)

# ---------------------------------------------------------------------------
# The recursive semantics of the state logic


def eval_term(t: Term, sigma: ProgramState) -> int:
    if isinstance(t, Lit):
        return t.value
    if isinstance(t, Var):
        try:
            return sigma[t.name]
        except KeyError:
            raise UnboundVariable(t.name) from None
    raise TypeError(f"not a term: {t!r}")


def walk_holds(phi: StateFormula, sigma: ProgramState) -> bool:
    """Whether sigma satisfies phi, by the standard recursive semantics:
    a conjunction stops at its first false side."""
    if isinstance(phi, Eq):
        return eval_term(phi.lhs, sigma) == eval_term(phi.rhs, sigma)
    if isinstance(phi, Not):
        return not walk_holds(phi.arg, sigma)
    if isinstance(phi, And):
        return walk_holds(phi.lhs, sigma) and walk_holds(phi.rhs, sigma)
    raise TypeError(f"not a state formula: {phi!r}")


def neq(lhs: Term, rhs: Term) -> StateFormula:
    return Not(Eq(lhs, rhs))


TRIVIAL = assertion()


# ---------------------------------------------------------------------------
# Proof trees


def rules_used(tree: ProofTree) -> frozenset[str]:
    return frozenset(node.rule for _, node in tree.walk())


def expand_lift_var(ctx: VerifCtx, target: Judgement) -> ProofTree:
    """The primitive derivation behind rule lift-var: cons over var."""
    assert isinstance(target.stmt, Assign)
    steps = [cons_step(assertion((), target.pre.state), target.post)]
    return chain(ctx, target, steps, lambda j: step(ctx, "var", j))


def expand_total(
    ctx: VerifCtx, target: Judgement, kernel: tuple[DomainFormula, ...]
) -> ProofTree:
    """The primitive derivation behind rule total, for a non-empty
    kernel: cons, post-core, post-inv, cons, var."""
    stmt = target.stmt
    assert isinstance(stmt, Assign)
    kernel = tuple(kernel)
    hat = And(target.post.state, ctx.lifting.delift(kernel))
    bare_pre = assertion((), substitute(hat, stmt.var, stmt.expr))
    steps = [
        cons_step(bare_pre, target.post),
        *kernel_steps("post", kernel, kernel),
        cons_step(bare_pre, assertion(target.post.domain + kernel, hat)),
    ]
    return chain(ctx, target, steps, lambda j: step(ctx, "var", j))
