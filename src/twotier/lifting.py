"""Semantic lifting between program states/formulas and domain formulas.

The direct lifting maps equality atoms v == n to data assertions
hasValue(stub(v), n) and disequality atoms v != 0 to NonZero(stub(v));
states lift through their characteristic formula.  The inverse mapping
decodes kernel-signature formulas back into state formulas, dropping
kernel formulas that carry no state-level content.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import EmptyState, OutsideLiftableFragment, SignatureViolation
from .statelogic import (
    And,
    Eq,
    Lit,
    Not,
    ProgramState,
    StateFormula,
    TRUE,
    Var,
    conj,
    conjuncts,
    holds,
)
from .domainlogic import (
    Atomic,
    ConceptAssertion,
    DataAssertion,
    DomainFormula,
    DomainSignature,
    KnowledgeBase,
    signature_of,
)
from . import reasoning

VALUE_ROLE = "hasValue"
NONZERO_CONCEPT = "NonZero"


def default_stub_name(variable: str) -> str:
    return f"var_{variable}"


@dataclass(frozen=True)
class SpecLifting:
    """The direct lifting for a fixed knowledge base and variable set."""

    stub_bindings: tuple[tuple[str, str], ...]  # (variable, stub individual)
    kernel_signature: DomainSignature

    @staticmethod
    def direct(kb: KnowledgeBase, variables: Iterable[str] = ()) -> "SpecLifting":
        """The lifting of kb's stubs and a default stub for each other
        variable.  It is kept on kb's reasoner per variables, so that
        every program over kb and the same variables shares it."""
        variables = tuple(variables)
        liftings = kb.reasoner.liftings
        if variables in liftings:
            return liftings[variables]
        bindings: dict[str, str] = {}
        for s in kb.stubs:
            bindings[s.variable] = s.stub
        for v in variables:
            bindings.setdefault(v, default_stub_name(v))
        kernel = kb.symbols.union(
            DomainSignature(
                nominals=frozenset(bindings.values()),
                concrete_roles=frozenset({VALUE_ROLE}),
                atomic_concepts=frozenset({NONZERO_CONCEPT}),
            )
        )
        lifting = liftings[variables] = SpecLifting(tuple(sorted(bindings.items())), kernel)
        return lifting

    def stub_for(self, variable: str) -> str:
        for v, s in self.stub_bindings:
            if v == variable:
                return s
        return default_stub_name(variable)

    def variable_for(self, stub: str) -> Optional[str]:
        for v, s in self.stub_bindings:
            if s == stub:
                return v
        return None

    # -- formula lifting ----------------------------------------------------

    def lift_atom(self, phi: StateFormula) -> Optional[DomainFormula]:
        """Image of a single liftable atom, or None if outside the
        fragment (v == n and v != 0 atoms only)."""
        if isinstance(phi, Eq) and isinstance(phi.lhs, Var) and isinstance(phi.rhs, Lit):
            return DataAssertion(VALUE_ROLE, self.stub_for(phi.lhs.name), phi.rhs.value)
        if (
            isinstance(phi, Not)
            and isinstance(phi.arg, Eq)
            and isinstance(phi.arg.lhs, Var)
            and isinstance(phi.arg.rhs, Lit)
            and phi.arg.rhs.value == 0
        ):
            return ConceptAssertion(
                Atomic(NONZERO_CONCEPT), self.stub_for(phi.arg.lhs.name)
            )
        return None

    def lift_spec(self, phi: StateFormula) -> frozenset[DomainFormula]:
        """Images of every conjunct; the first conjunct outside the
        fragment raises OutsideLiftableFragment."""
        lifted, residue = self.lift_partial(phi)
        if residue:
            raise OutsideLiftableFragment(residue[0])
        return lifted

    def lift_partial(
        self, phi: StateFormula
    ) -> tuple[frozenset[DomainFormula], tuple[StateFormula, ...]]:
        """Images of the liftable conjuncts plus the residual conjuncts."""
        lifted: set[DomainFormula] = set()
        residue: list[StateFormula] = []
        for c in conjuncts(phi):
            if c == TRUE:
                continue
            img = self.lift_atom(c)
            if img is None:
                residue.append(c)
            else:
                lifted.add(img)
        return frozenset(lifted), tuple(residue)

    def lift_state(self, sigma: ProgramState) -> frozenset[DomainFormula]:
        """The lifting of sigma's characteristic formula, built directly:
        hasValue(stub(v), sigma(v)) for every variable v."""
        if not sigma:
            raise EmptyState("characteristic formula of the empty state")
        return frozenset(
            DataAssertion(VALUE_ROLE, self.stub_for(v), n) for v, n in sigma.items()
        )

    # -- inverse lifting ----------------------------------------------------

    def delift_atom(self, d: DomainFormula) -> Optional[StateFormula]:
        """State-level reading of one kernel formula; None when the
        formula carries no invertible content (it drops to true)."""
        if isinstance(d, DataAssertion) and d.role == VALUE_ROLE:
            v = self.variable_for(d.subject)
            if v is not None:
                return Eq(Var(v), Lit(d.value))
        if (
            isinstance(d, ConceptAssertion)
            and d.concept == Atomic(NONZERO_CONCEPT)
        ):
            v = self.variable_for(d.individual)
            if v is not None:
                return Not(Eq(Var(v), Lit(0)))
        return None

    def delift(self, delta: Iterable[DomainFormula]) -> StateFormula:
        atoms = tuple(delta)
        outside = signature_of(atoms).missing_from(self.kernel_signature)
        if outside:
            raise SignatureViolation(outside[0])
        return conj(img for _d, img in self.delift_pairs(atoms) if img is not None)

    def delift_pairs(
        self, delta: Iterable[DomainFormula]
    ) -> tuple[tuple[DomainFormula, Optional[StateFormula]], ...]:
        """(kernel formula, its state-level reading or None), in the same
        deterministic order delift uses."""
        atoms = tuple(delta)
        return tuple(
            (d, self.delift_atom(d)) for d in sorted(atoms, key=str)
        )


# ---------------------------------------------------------------------------
# Compatibility checking


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
    names = sorted(variables) or sorted({v for v, _ in lifting.stub_bindings})
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
