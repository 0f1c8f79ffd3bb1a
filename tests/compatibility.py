"""Oracles for the semantic lifting, used by criterion 4 and
`test_lifting.py`: the characteristic formula of a state, and an
exhaustive check that satisfaction survives lifting."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from twotier import reasoning
from twotier.domainlogic import KnowledgeBase
from twotier.errors import EmptyState
from twotier.lifting import SpecLifting
from twotier.statelogic import (
    And,
    Eq,
    Lit,
    Not,
    ProgramState,
    StateFormula,
    Var,
    conj,
    holds,
)


def characteristic_formula(sigma: ProgramState) -> StateFormula:
    """Conjunction of v == sigma(v) in lexicographic variable order."""
    if not sigma:
        raise EmptyState("characteristic formula of the empty state")
    return conj(Eq(Var(v), Lit(sigma[v])) for v in sorted(sigma))


@dataclass(frozen=True)
class CompatibilityViolation:
    sigma: tuple[tuple[str, int], ...]
    phi: StateFormula
    verdict: reasoning.EntailmentVerdict


@dataclass(frozen=True)
class CompatibilityReport:
    states_checked: int
    formulas_checked: int
    violations: tuple[CompatibilityViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def liftable_formula_pool(
    variables: Sequence[str], var_domain: Iterable[int]
) -> list[StateFormula]:
    """All liftable atoms over the variables and values, plus their
    pairwise conjunctions; deterministic order."""
    atoms: list[StateFormula] = []
    for v in sorted(variables):
        for n in sorted(set(var_domain)):
            atoms.append(Eq(Var(v), Lit(n)))
        atoms.append(Not(Eq(Var(v), Lit(0))))
    return atoms + [And(a, b) for a, b in itertools.combinations(atoms, 2)]


def check_compatibility(
    lifting: SpecLifting,
    kb: KnowledgeBase,
    var_domain: Iterable[int],
    variables: Sequence[str] = (),
    formulas: Optional[Sequence[StateFormula]] = None,
) -> CompatibilityReport:
    """Exhaustive check that satisfaction survives lifting: whenever a
    pool formula holds in a state, the lifted state entails the lifted
    formula under kb."""
    values = sorted(set(var_domain))
    names = sorted(variables) or sorted(lifting.table)
    if formulas is None:
        formulas = liftable_formula_pool(names, values)
    violations: list[CompatibilityViolation] = []
    states = 0
    for combo in itertools.product(values, repeat=len(names)):
        sigma = dict(zip(names, combo))
        states += 1
        if not sigma:
            continue
        lifted_state = lifting.lift_state(sigma)
        for phi in formulas:
            if not holds(phi, sigma):
                continue
            verdict = reasoning.entails(lifted_state, lifting.lift_spec(phi), kb)
            if not verdict.is_entailed:
                violations.append(
                    CompatibilityViolation(
                        tuple(sorted(sigma.items())), phi, verdict
                    )
                )
    return CompatibilityReport(states, len(formulas), tuple(violations))
