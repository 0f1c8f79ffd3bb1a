"""Proof calculus over two-tier Hoare judgements.

A judgement relates a precondition assertion, a statement, and a
postcondition assertion.  Rules are applied through `apply_rule`, which
returns the premise judgements and discharged side obligations for one
inference step; `check_proof` replays a stored tree node by node through
the same code path, so a tree is only accepted if every step re-derives.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    MissingArgument,
    OutsideLiftableFragment,
    RuleShapeMismatch,
    VerifierError,
)
from .statelogic import (
    And,
    Eq,
    Lit,
    Not,
    State,
    same_state,
    substitute,
)
from .domainlogic import DomainFormula, KnowledgeBase
from .lifting import SpecLifting
from .kernel import CandidatePool
from .status import ObligationStatus, status_of_verdict
from .assertions import (
    TwoTierAssertion,
    assertion,
    assertion_holds,
    assertion_implies,
    same_assertion,
)
from .lang import (
    Assign,
    Call,
    If,
    Program,
    RunContext,
    Seq,
    Skip,
    Statement,
    contract_post,
    contract_pre,
    interpret,
)
from . import reasoning


# ---------------------------------------------------------------------------
# Core data


@dataclass(frozen=True)
class Judgement:
    pre: TwoTierAssertion
    stmt: Statement
    post: TwoTierAssertion

    def __str__(self) -> str:
        from .parsing import statement_to_line

        return f"{self.pre} {statement_to_line(self.stmt)} {self.post}"

    def with_side(self, side: str, a: TwoTierAssertion) -> "Judgement":
        """This judgement with its `side` ("pre" or "post") assertion replaced."""
        if side == "pre":
            return Judgement(a, self.stmt, self.post)
        return Judgement(self.pre, self.stmt, a)


@dataclass(frozen=True)
class Obligation:
    kind: str  # dl-entailment | state-implication | assertion-implication | signature-check
    payload: str
    status: ObligationStatus
    note: str = ""


# core, inversion and lift are each one rule, applied to either side
SIDES = ("pre", "post")
SIDED_KINDS = ("lift", "core", "inv")
RULE_NAMES = {
    "pre-lift",
    "post-lift",
    "pre-core",
    "post-core",
    "pre-inv",
    "post-inv",
    "cons",
    "var",
    "skip",
    "branch",
    "contract",
    "seq",
    "lift-var",
    "total",
}

OPEN_RULE = "open"

# rule-name drift in the source material; aliases accepted in stored proofs
RULE_ALIASES = {
    "post-abd": "post-core",
    "post-abs": "post-core",
    "pre-abd": "pre-core",
    "pre-abs": "pre-core",
    "new-var": "var",
}


def canonical_rule(name: str) -> str:
    return RULE_ALIASES.get(name, name)


@dataclass(frozen=True)
class ProofTree:
    conclusion: Judgement
    rule: str
    premises: tuple["ProofTree", ...] = ()
    obligations: tuple[Obligation, ...] = ()
    args: tuple[tuple[str, str], ...] = ()  # rendered rule arguments

    @property
    def closed(self) -> bool:
        if canonical_rule(self.rule) not in RULE_NAMES:
            return False
        return all(
            o.status == ObligationStatus.PROVED for o in self.obligations
        ) and all(p.closed for p in self.premises)

    def spine(self) -> tuple[str, ...]:
        """Rule names along the single-premise chain from the root."""
        out = [self.rule]
        node = self
        while len(node.premises) == 1:
            node = node.premises[0]
            out.append(node.rule)
        return tuple(out)

    def rules_used(self) -> frozenset[str]:
        return frozenset(node.rule for _, node in self.walk())

    def walk(self, path: str = "root") -> Iterator[tuple[str, "ProofTree"]]:
        yield path, self
        for i, p in enumerate(self.premises):
            yield from p.walk(f"{path}.{i}")


# ---------------------------------------------------------------------------
# Verification context


@dataclass
class VerifCtx:
    program: Program
    kb: KnowledgeBase
    lifting: SpecLifting
    pool: CandidatePool

    @staticmethod
    def build(program: Program, kb: KnowledgeBase) -> "VerifCtx":
        lifting = SpecLifting.direct(kb, program.variables)
        pool = CandidatePool.build(
            kb,
            lifting,
            extra_constants=program.constants(),
            variables=program.variables,
        )
        return VerifCtx(program=program, kb=kb, lifting=lifting, pool=pool)

    # -- obligation discharge ------------------------------------------------

    def dl_obligation(
        self,
        premises: Iterable[DomainFormula],
        conclusion: Iterable[DomainFormula],
    ) -> Obligation:
        premises = tuple(premises)
        conclusion = tuple(conclusion)
        verdict = reasoning.entails(premises, conclusion, self.kb)
        status = status_of_verdict(verdict)
        note = ""
        if isinstance(verdict, reasoning.NotEntailed):
            note = (
                f"not entailed: {verdict.violated}; countermodel:\n"
                + verdict.countermodel.describe()
            )
        elif isinstance(verdict, reasoning.Unknown):
            note = f"undecided at bound: {verdict.bound}"
        return Obligation(
            kind="dl-entailment",
            payload=f"{render_set(premises)} |= {render_set(conclusion)}",
            status=status,
            note=note,
        )

    def implication_obligation(
        self, a1: TwoTierAssertion, a2: TwoTierAssertion
    ) -> Obligation:
        result = assertion_implies(a1, a2, self.kb, self.lifting)
        note = result.detail
        if result.counter_state is not None:
            note += f"; counter-state {dict(result.counter_state)}"
        if result.counter_model is not None:
            note += "; countermodel:\n" + result.counter_model.describe()
        return Obligation(
            kind="assertion-implication",
            payload=f"{a1} ==> {a2}",
            status=result.status,
            note=note,
        )

    def signature_obligation(self, atoms: Iterable[DomainFormula]) -> Obligation:
        atoms = tuple(atoms)
        from .domainlogic import signature_of

        missing = signature_of(atoms).missing_from(self.lifting.kernel_signature)
        return Obligation(
            kind="signature-check",
            payload=f"sig({render_set(atoms)}) within kernel",
            status=ObligationStatus.PROVED if not missing else ObligationStatus.FAILED,
            note="" if not missing else f"outside kernel: {', '.join(missing)}",
        )


def render_set(formulas: Iterable) -> str:
    items = sorted(str(f) for f in formulas)
    return "{" + ", ".join(items) + "}"


# ---------------------------------------------------------------------------
# Rule application


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise RuleShapeMismatch(message)


def apply_rule(
    ctx: VerifCtx,
    rule: str,
    target: Judgement,
    *,
    kernel: Optional[tuple[DomainFormula, ...]] = None,
    delta_prime: Optional[tuple[DomainFormula, ...]] = None,
    mid: Optional[TwoTierAssertion] = None,
    inner_pre: Optional[TwoTierAssertion] = None,
    inner_post: Optional[TwoTierAssertion] = None,
) -> tuple[tuple[Judgement, ...], tuple[Obligation, ...]]:
    """The premise judgements and side obligations of one step of `rule`
    concluding `target`.  Core, inversion and lift are each one rule
    applied to a named side: `pre-core` and `post-core` enrich that
    side's domain tier with kernel atoms, `pre-inv` and `post-inv`
    recover state conjuncts from its domain atoms, and `pre-lift` and
    `post-lift` add the lifting of its state tier."""
    rule = canonical_rule(rule)
    pre, stmt, post = target.pre, target.stmt, target.post
    lifting = ctx.lifting

    if rule == "skip":
        _require(isinstance(stmt, Skip), "skip rule requires a skip statement")
        _require(
            same_assertion(pre, post), "skip rule requires pre equal to post"
        )
        return (), ()

    if rule == "var":
        _require(isinstance(stmt, Assign), "var rule requires an assignment")
        _require(not pre.domain, "var rule requires an empty domain precondition")
        needed = substitute(post.state, stmt.var, stmt.expr)
        _require(
            same_state(pre.state, needed),
            "var rule requires the precondition state to be the substituted "
            "postcondition state",
        )
        lifted, _residue = lifting.lift_partial(post.state)
        return (), (ctx.dl_obligation(lifted, post.domain),)

    if rule == "contract":
        _require(isinstance(stmt, Call), "contract rule requires a call")
        declared = (
            contract_pre(ctx.program, stmt.proc, stmt.arg),
            contract_post(ctx.program, stmt.proc, stmt.arg),
        )
        for side, a in zip(SIDES, declared):
            _require(
                same_assertion(getattr(target, side), a),
                f"contract rule requires the declared {side}condition (expected {a})",
            )
        return (), ()

    if rule == "seq":
        _require(isinstance(stmt, Seq), "seq rule requires a sequence")
        if mid is None:
            raise MissingArgument("seq rule needs the intermediate assertion")
        return (
            (
                Judgement(pre, stmt.first, mid),
                Judgement(mid, stmt.second, post),
            ),
            (),
        )

    if rule == "branch":
        _require(isinstance(stmt, If), "branch rule requires a conditional")
        _require(not pre.domain, "branch rule requires an empty domain precondition")
        then_pre = assertion((), And(pre.state, Not(Eq(stmt.cond, Lit(0)))))
        else_pre = assertion((), And(pre.state, Eq(stmt.cond, Lit(0))))
        return (
            (
                Judgement(then_pre, stmt.then, post),
                Judgement(else_pre, stmt.orelse, post),
            ),
            (),
        )

    if rule == "cons":
        if inner_pre is None or inner_post is None:
            raise MissingArgument("cons rule needs the inner pre and post")
        ob1 = ctx.implication_obligation(pre, inner_pre)
        ob2 = ctx.implication_obligation(inner_post, post)
        return ((Judgement(inner_pre, stmt, inner_post),), (ob1, ob2))

    side, _, kind = rule.partition("-")
    if side in SIDES and kind in SIDED_KINDS:
        a = getattr(target, side)
        if kind == "lift":
            lifted = tuple(sorted(lifting.lift_spec(a.state), key=str))
            enriched = assertion(tuple(a.domain) + lifted, a.state)
            obligations = ()
        elif kind == "core":
            if kernel is None:
                raise MissingArgument(f"{rule} rule needs the kernel atoms")
            enriched = assertion(tuple(a.domain) + tuple(kernel), a.state)
            obligations = (ctx.dl_obligation(a.domain, kernel),)
        else:
            if delta_prime is None:
                raise MissingArgument(f"{rule} rule needs the recovered atoms")
            _require(
                set(delta_prime) <= set(a.domain),
                f"{rule} rule requires the recovered atoms to come from the "
                f"domain {side}condition",
            )
            recovered = lifting.delift(delta_prime)
            enriched = assertion(a.domain, And(a.state, recovered))
            obligations = (ctx.signature_obligation(delta_prime),)
        return (target.with_side(side, enriched),), obligations

    if rule == "lift-var":
        _require(isinstance(stmt, Assign), "lift-var rule requires an assignment")
        try:
            lifted_post = lifting.lift_spec(post.state)
            needed = substitute(post.state, stmt.var, stmt.expr)
            lifted_pre = lifting.lift_spec(needed)
        except OutsideLiftableFragment as exc:
            raise RuleShapeMismatch(f"lift-var rule needs liftable tiers: {exc}")
        _require(
            same_state(pre.state, needed),
            "lift-var rule requires the substituted postcondition state",
        )
        for side, lifted in zip(SIDES, (lifted_pre, lifted_post)):
            _require(
                set(getattr(target, side).domain) == set(lifted),
                f"lift-var rule requires the lifted {side}condition domain tier",
            )
        return (), (ctx.dl_obligation(lifted_post, post.domain),)

    if rule == "total":
        _require(isinstance(stmt, Assign), "total rule requires an assignment")
        if kernel is None:
            raise MissingArgument("total rule needs the kernel atoms")
        try:
            recovered = lifting.delift(kernel)
            hat = And(post.state, recovered)
            needed = substitute(hat, stmt.var, stmt.expr)
            lifted_needed = lifting.lift_spec(needed)
            lifted_post = lifting.lift_spec(post.state)
        except OutsideLiftableFragment as exc:
            raise RuleShapeMismatch(f"total rule needs liftable tiers: {exc}")
        _require(
            same_state(pre.state, needed),
            "total rule requires the substituted enriched postcondition state",
        )
        _require(
            set(pre.domain) == set(lifted_needed),
            "total rule requires the derived precondition domain tier",
        )
        return (), (
            ctx.dl_obligation(post.domain, kernel),
            ctx.dl_obligation(lifted_post, post.domain),
        )

    raise RuleShapeMismatch(f"unknown rule: {rule}")


# ---------------------------------------------------------------------------
# Derived-rule expansions (used by the soundness property tests)


def _node(
    ctx: VerifCtx,
    rule: str,
    target: Judgement,
    premises: Sequence[ProofTree] = (),
    **kwargs,
) -> ProofTree:
    """Build one tree node by applying the rule and attaching subtrees."""
    premise_judgements, obligations = apply_rule(ctx, rule, target, **kwargs)
    subtrees = tuple(premises)
    assert len(subtrees) == len(premise_judgements)
    for sub, expected in zip(subtrees, premise_judgements):
        assert same_assertion(sub.conclusion.pre, expected.pre)
        assert same_assertion(sub.conclusion.post, expected.post)
    return ProofTree(
        conclusion=target,
        rule=rule,
        premises=subtrees,
        obligations=obligations,
        args=render_args(kwargs),
    )


def _cons(ctx: VerifCtx, target: Judgement, sub: ProofTree) -> ProofTree:
    """A cons step concluding `target` over `sub`, whose conclusion gives
    the inner pre- and postcondition."""
    inner = sub.conclusion
    return _node(
        ctx, "cons", target, premises=(sub,), inner_pre=inner.pre, inner_post=inner.post
    )


def _kernel_steps(
    ctx: VerifCtx, tree: ProofTree, outer: Judgement, side: str, alpha, recovered, full
) -> ProofTree:
    """Wrap `tree`, which proves `outer` with its `side` domain tier
    enlarged to `full`, in the `{side}-inv` step recovering the state
    conjuncts of `recovered` and the `{side}-core` step adding the
    kernel atoms `alpha`, each left out when it has no atoms."""
    if recovered:
        enriched = outer.with_side(side, assertion(full, getattr(outer, side).state))
        tree = _node(ctx, f"{side}-inv", enriched, premises=(tree,), delta_prime=recovered)
    if alpha:
        tree = _node(ctx, f"{side}-core", outer, premises=(tree,), kernel=alpha)
    return tree


# a rule's arguments in stored order, each marked True when it is a list
# of domain atoms (stored as "a; b") rather than an assertion
RULE_ARGS = (
    ("kernel", True),
    ("delta_prime", True),
    ("mid", False),
    ("inner_pre", False),
    ("inner_post", False),
)


def render_args(kwargs: dict) -> tuple[tuple[str, str], ...]:
    out = []
    for key, atoms in RULE_ARGS:
        value = kwargs.get(key)
        if value is None:
            continue
        if atoms:
            out.append((key, "; ".join(str(f) for f in value)))
        else:
            out.append((key, str(value)))
    return tuple(out)


def expand_lift_var(ctx: VerifCtx, target: Judgement) -> ProofTree:
    """The primitive derivation behind rule lift-var: cons over var."""
    stmt = target.stmt
    assert isinstance(stmt, Assign)
    inner_pre = assertion((), target.pre.state)
    return _cons(ctx, target, _node(ctx, "var", Judgement(inner_pre, stmt, target.post)))


def expand_total(
    ctx: VerifCtx, target: Judgement, kernel: tuple[DomainFormula, ...]
) -> ProofTree:
    """The primitive derivation behind rule total, for a non-empty
    kernel: cons, post-core, post-inv, cons, var."""
    stmt = target.stmt
    assert isinstance(stmt, Assign)
    delta = target.post.domain
    phi = target.post.state
    hat = And(phi, ctx.lifting.delift(kernel))
    needed = substitute(hat, stmt.var, stmt.expr)
    bare_pre = assertion((), needed)
    enlarged = assertion(tuple(delta) + tuple(kernel), hat)
    var_leaf = _node(ctx, "var", Judgement(bare_pre, stmt, enlarged))
    inner_cons = _cons(
        ctx, Judgement(bare_pre, stmt, assertion(enlarged.domain, hat)), var_leaf
    )
    outer = Judgement(bare_pre, stmt, assertion(delta, phi))
    kernel = tuple(kernel)
    tree = _kernel_steps(ctx, inner_cons, outer, "post", kernel, kernel, enlarged.domain)
    return _cons(ctx, target, tree)


# ---------------------------------------------------------------------------
# Proof checking


@dataclass(frozen=True)
class CheckFailure:
    path: str
    reason: str


@dataclass(frozen=True)
class VerificationReport:
    closed: bool
    failures: tuple[CheckFailure, ...]

    def describe(self) -> str:
        if self.closed:
            return "Closed"
        lines = ["Open"]
        for f in self.failures:
            lines.append(f"  at {f.path}: {f.reason}")
        return "\n".join(lines)


def _parse_args(ctx: VerifCtx, node: ProofTree) -> dict:
    from .parsing import parse_assertion, parse_domain_formula

    sig = ctx.kb.symbols
    atom_lists = dict(RULE_ARGS)
    out: dict = {}
    for key, value in node.args:
        if atom_lists.get(key):
            parts = [p.strip() for p in value.split(";") if p.strip()]
            out[key] = tuple(parse_domain_formula(p, sig) for p in parts)
        elif key in atom_lists:
            out[key] = parse_assertion(value, sig)
    return out


def check_proof(ctx: VerifCtx, tree: ProofTree) -> VerificationReport:
    failures: list[CheckFailure] = []
    for path, node in tree.walk():
        rule = canonical_rule(node.rule)
        if rule == OPEN_RULE:
            reasons = "; ".join(o.note or o.payload for o in node.obligations)
            failures.append(CheckFailure(path, f"open leaf: {reasons}"))
            continue
        if rule not in RULE_NAMES:
            failures.append(CheckFailure(path, f"unknown rule {node.rule!r}"))
            continue
        try:
            kwargs = _parse_args(ctx, node)
            premise_judgements, obligations = apply_rule(
                ctx, rule, node.conclusion, **kwargs
            )
        except VerifierError as exc:
            failures.append(CheckFailure(path, f"{type(exc).__name__}: {exc}"))
            continue
        if len(premise_judgements) != len(node.premises):
            failures.append(
                CheckFailure(
                    path,
                    f"rule {rule} requires {len(premise_judgements)} premises, "
                    f"tree stores {len(node.premises)}",
                )
            )
            continue
        for i, (expected, sub) in enumerate(zip(premise_judgements, node.premises)):
            actual = sub.conclusion
            if (
                not same_assertion(expected.pre, actual.pre)
                or not same_assertion(expected.post, actual.post)
                or expected.stmt != actual.stmt
            ):
                failures.append(
                    CheckFailure(
                        f"{path}.{i}",
                        f"premise mismatch: rule {rule} requires "
                        f"{expected} but the tree stores {actual}",
                    )
                )
        expected_obs = {(o.kind, o.payload): o for o in obligations}
        stored_obs = {(o.kind, o.payload) for o in node.obligations}
        for key, ob in expected_obs.items():
            if key not in stored_obs:
                failures.append(
                    CheckFailure(path, f"missing obligation {key[0]}: {key[1]}")
                )
            elif ob.status != ObligationStatus.PROVED:
                failures.append(
                    CheckFailure(
                        path,
                        f"obligation not proved ({ob.status.value}) "
                        f"{ob.kind}: {ob.payload}"
                        + (f" [{ob.note}]" if ob.note else ""),
                    )
                )
        for key in stored_obs:
            if key not in expected_obs:
                failures.append(
                    CheckFailure(path, f"extraneous obligation {key[0]}: {key[1]}")
                )
    return VerificationReport(closed=not failures, failures=tuple(failures))


# ---------------------------------------------------------------------------
# Empirical validation (executable semantics versus the calculus)


@dataclass(frozen=True)
class FuzzCounterexample:
    sigma: tuple[tuple[str, int], ...]
    sigma_prime: Optional[tuple[tuple[str, int], ...]]
    detail: str


@dataclass(frozen=True)
class FuzzReport:
    tested: int
    counterexamples: tuple[FuzzCounterexample, ...]
    fuel_issues: int

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _nth_combo(values: Sequence[int], width: int, index: int) -> tuple[int, ...]:
    """The index-th tuple of itertools.product(values, repeat=width)."""
    digits = []
    for _ in range(width):
        index, d = divmod(index, len(values))
        digits.append(values[d])
    return tuple(reversed(digits))


def validate_judgement_empirically(
    ctx: VerifCtx,
    j: Judgement,
    var_domain: Sequence[int],
    samples: int = 10_000,
    seed: int = 0,
) -> FuzzReport:
    """Run the statement from every precondition-satisfying state over
    the bounded domain and check the postcondition on every outcome.  A
    run that calls a procedure outside its precondition is a
    counterexample with no outcome state, listed before that state's
    postcondition violations.  When there are more than `samples`
    states, a seeded sample of them is drawn without building the
    others.  One run shares a RunContext, so a call's havoc and what
    follows it are interpreted once (see `interpret`), and the
    postcondition is checked once per distinct outcome state: whether a
    state meets it depends on the state alone, so the report is the one
    a fresh check per outcome would give."""
    run = RunContext(
        program=ctx.program,
        kb=ctx.kb,
        lifting=ctx.lifting,
        var_domain=tuple(sorted(set(var_domain))),
    )
    names = ctx.program.variables
    values = run.var_domain
    total = len(values) ** len(names)
    if total > samples:
        # the states rng.sample would pick from the full product, decoded
        # from their positions in itertools.product order
        picks = random.Random(seed).sample(range(total), samples)
        combos = (_nth_combo(values, len(names), i) for i in picks)
    else:
        combos = itertools.product(values, repeat=len(names))
    counterexamples: list[FuzzCounterexample] = []
    fuel_issues = 0
    tested = 0
    post_holds: dict[State, bool] = {}
    for combo in combos:
        sigma = State(zip(names, combo))
        if not assertion_holds(sigma, j.pre, ctx.kb, ctx.lifting):
            continue
        tested += 1
        outcome = interpret(j.stmt, sigma, run)
        if outcome.fuel_exhausted:
            fuel_issues += 1
        if outcome.pre_violated:
            counterexamples.append(
                FuzzCounterexample(
                    tuple(sorted(sigma.items())), None, "callee precondition violated"
                )
            )
        found = len(counterexamples)
        for sigma2 in outcome.states:
            ok = post_holds.get(sigma2)
            if ok is None:
                ok = assertion_holds(sigma2, j.post, ctx.kb, ctx.lifting)
                post_holds[sigma2] = ok
            if not ok:
                counterexamples.append(
                    FuzzCounterexample(
                        sigma=tuple(sorted(sigma.items())),
                        sigma_prime=tuple(sorted(sigma2.items())),
                        detail="postcondition violated",
                    )
                )
        if len(counterexamples) - found > 1:
            # outcome.states is a set, whose order follows the hash seed
            counterexamples[found:] = sorted(
                counterexamples[found:], key=lambda cx: cx.sigma_prime
            )
    return FuzzReport(tested, tuple(counterexamples), fuel_issues)
