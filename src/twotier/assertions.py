"""Two-tier assertions and their semantic checks.

An assertion pairs a set of domain formulas with a state formula.  A
state satisfies it when the state formula holds and the lifted state
(together with the lifted liftable part of the state formula) entails
the domain tier under the knowledge base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .statelogic import (
    ProgramState,
    StateFormula,
    TRUE,
    compile_formula,
    same_state,
    state_implies_counterexample,
)
from .domainlogic import (
    DataAssertion,
    DomainFormula,
    DomainInterpretation,
    KnowledgeBase,
    signature_of,
)
from .lifting import VALUE_ROLE, SpecLifting
from .status import ObligationStatus, status_of_verdict
from . import reasoning


@dataclass(frozen=True)
class TwoTierAssertion:
    domain: tuple[DomainFormula, ...]
    state: StateFormula

    def __str__(self) -> str:
        dom = ", ".join(str(d) for d in self.domain) if self.domain else "-"
        st = "-" if self.state == TRUE else str(self.state)
        return f"[ {dom} | {st} ]"


def assertion(
    domain: Iterable[DomainFormula] = (), state: StateFormula = TRUE
) -> TwoTierAssertion:
    return TwoTierAssertion(tuple(dict.fromkeys(domain)), state)


def same_assertion(a: TwoTierAssertion, b: TwoTierAssertion) -> bool:
    """Syntactic equality up to domain-tier set order and trivially-true
    state conjuncts."""
    return set(a.domain) == set(b.domain) and same_state(a.state, b.state)


def assertion_holds(
    sigma: ProgramState,
    a: TwoTierAssertion,
    kb: KnowledgeBase,
    lifting: SpecLifting,
) -> bool:
    """Whether sigma meets a's state tier and the lifted state, with the
    lifted liftable part of the state tier, entails a's domain tier.
    The state tier is compiled, and those premises are split, once per
    (a, lifting, sigma's variables); the split is kept, with its answers,
    on kb's reasoner (`_Split`)."""
    key = (a, lifting, tuple(sigma))
    split = kb.reasoner.splits.get(key)
    if split is None:
        split = kb.reasoner.splits[key] = _Split(a, key[2], kb, lifting)
    if not split.state(tuple(sigma.values())):
        return False
    return not a.domain or split.entailed(sigma)


class _Split:
    """An assertion's state tier, compiled over one set of variables
    (`state`), and whether its premises entail its domain tier, over
    every state of those variables, with the premises split once.

    The premises are one triple hasValue(stub(v), σ(v)) per variable v
    and the lifted liftable part φ of the state tier, each about one
    stub.  A stub that neither K's individuals nor the domain tier name
    detaches, whatever the state's values (`reasoning.restricted`).  The
    relevant variables are those whose stubs stay.  A state's restricted
    query is then that of its values of the relevant variables, asked
    once per such projection.  When it is entailed, so is every state
    with that projection.  When its countermodel trims, a state fails
    unless a detached stub's premises have no type, and whether they do
    is kept per (stub, its variable's value).  Otherwise the state asks
    its full query."""

    def __init__(
        self,
        a: TwoTierAssertion,
        variables: tuple[str, ...],
        kb: KnowledgeBase,
        lifting: SpecLifting,
    ):
        self.state = compile_formula(a.state, variables)
        if not a.domain:
            return  # the state tier is the whole assertion
        self.conclusion, self.kb, self.lifting = a.domain, kb, lifting
        self.phi = lifting.lift_partial(a.state)[0]
        named = kb.symbols.nominals | signature_of(a.domain).nominals
        stub, about = lifting.stub_for, reasoning._about_one
        # the lifting is one-to-one, so each detached stub is one variable's
        detached = {stub(v): v for v in variables if stub(v) not in named}
        # φ's premises about stubs that stay; a state adds its relevant triples
        self.kept = frozenset(p for p in self.phi if about(p) not in detached)
        self.relevant = tuple((v, stub(v)) for v in variables if stub(v) not in detached)
        # each detached stub, its variable and its premises from φ
        self.detached = tuple(
            (d, detached[d], frozenset(p for p in self.phi if about(p) == d))
            for d in sorted(detached)
        )
        # relevant values -> `reasoning.restricted`'s answer
        self.answers: dict[tuple[int, ...], Optional[bool]] = {}
        # (detached stub, its variable's value) -> whether they have a type
        self.types: dict[tuple, bool] = {}

    def entailed(self, sigma: ProgramState) -> bool:
        values = tuple(sigma[v] for v, _ in self.relevant)
        try:
            answer = self.answers[values]
        except KeyError:
            kept = self.kept.union(
                DataAssertion(VALUE_ROLE, s, n) for (_, s), n in zip(self.relevant, values)
            )
            answer = self.answers[values] = reasoning.restricted(
                kept, self.conclusion, len(self.detached), self.kb
            )
        if answer is False and not all(self._has_type(d, sigma) for d in self.detached):
            answer = None
        if answer is None:
            premises = self.lifting.lift_state(sigma) | self.phi
            return reasoning.entails(premises, self.conclusion, self.kb).is_entailed
        return answer

    def _has_type(self, detached: tuple, sigma: ProgramState) -> bool:
        d, v, own = detached
        key = (d, sigma[v])
        typed = self.types.get(key)
        if typed is None:
            triple = DataAssertion(VALUE_ROLE, d, sigma[v])
            typed = self.types[key] = reasoning.has_type(own | {triple}, self.kb)
        return typed


def compile_assertion(
    a: TwoTierAssertion, names: Sequence[str], kb: KnowledgeBase, lifting: SpecLifting
) -> Callable[[tuple], bool]:
    """`assertion_holds` over tuples of values in `names` order, its state
    tier compiled: only a state that meets it goes on to
    `assertion_holds`, whose split of the premises over states of these
    variables is made once, so each such state costs a lookup by its
    values of the relevant variables."""
    state = compile_formula(a.state, names)
    if not a.domain:
        return state
    return lambda values: state(values) and assertion_holds(
        dict(zip(names, values)), a, kb, lifting
    )


@dataclass(frozen=True)
class ImplicationResult:
    status: ObligationStatus
    detail: str
    counter_state: Optional[dict[str, int]] = None
    counter_model: Optional[DomainInterpretation] = None

    @property
    def proved(self) -> bool:
        return self.status == ObligationStatus.PROVED


def assertion_implies(
    a1: TwoTierAssertion,
    a2: TwoTierAssertion,
    kb: KnowledgeBase,
    lifting: SpecLifting,
) -> ImplicationResult:
    """Sound sufficient check: the state tiers must stand in
    implication and the first domain tier plus the lifted first state
    must entail the second domain tier.  An assertion implies itself
    (up to domain order and trivially-true conjuncts) without a check."""
    if same_assertion(a1, a2):
        return ImplicationResult(ObligationStatus.PROVED, "")
    cex = state_implies_counterexample(a1.state, a2.state)
    if cex is not None:
        return ImplicationResult(
            ObligationStatus.FAILED,
            "state tier refuted by counter-state",
            counter_state=cex,
        )
    if a2.domain:
        lifted_phi, _residue = lifting.lift_partial(a1.state)
        premises = frozenset(a1.domain) | lifted_phi
        verdict = reasoning.entails(premises, a2.domain, kb)
        status = status_of_verdict(verdict)
        if status == ObligationStatus.FAILED:
            return ImplicationResult(
                status,
                f"domain tier not entailed: {verdict.violated}",
                counter_model=verdict.countermodel,
            )
        if status == ObligationStatus.UNKNOWN:
            return ImplicationResult(status, f"domain tier undecided: {verdict.bound}")
    return ImplicationResult(ObligationStatus.PROVED, "")
