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
    State,
    StateFormula,
    TRUE,
    compile_formula,
    holds,
    same_state,
    state_implies_counterexample,
)
from .domainlogic import DomainFormula, DomainInterpretation, KnowledgeBase
from .lifting import SpecLifting
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


TRIVIAL = assertion()


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
    if not holds(a.state, sigma):
        return False
    if not a.domain:
        return True
    lifted_phi, _residue = lifting.lift_partial(a.state)
    premises = lifting.lift_state(sigma) | lifted_phi
    return reasoning.entailed(premises, a.domain, kb)


def compile_assertion(
    a: TwoTierAssertion, names: Sequence[str], kb: KnowledgeBase, lifting: SpecLifting
) -> Callable[[tuple], bool]:
    """assertion_holds over tuples of values in `names` order, its state
    tier compiled: only a state that meets it asks the domain tier."""
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
    counter_state: Optional[State] = None
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
