"""Semantic lifting between program states/formulas and domain formulas.

The direct lifting maps equality atoms v == n to data assertions
hasValue(stub(v), n) and disequality atoms v != 0 to NonZero(stub(v));
states lift through their characteristic formula.  The inverse mapping
decodes kernel-signature formulas back into state formulas, dropping
kernel formulas that carry no state-level content.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import (
    EmptyState,
    OutsideLiftableFragment,
    UnboundVariable,
    VerifierError,
)
from .statelogic import (
    Eq,
    Lit,
    Not,
    ProgramState,
    StateFormula,
    TRUE,
    Var,
    conj,
    conjuncts,
)
from .domainlogic import (
    Atomic,
    ConceptAssertion,
    DataAssertion,
    DomainFormula,
    DomainSignature,
    KnowledgeBase,
)

VALUE_ROLE = "hasValue"
NONZERO_CONCEPT = "NonZero"


def default_stub_name(variable: str) -> str:
    return f"var_{variable}"


class LiftingClash(VerifierError):
    """A lifting's refusal of its `binding`-th (variable, stub) binding:
    an earlier binding has the same `taken` part, "variable" or "stub"."""

    def __init__(self, message: str, binding: int, variable: str, taken: str):
        super().__init__(message)
        self.binding, self.variable, self.taken = binding, variable, taken


class SpecLifting:
    """The direct lifting for a fixed knowledge base and variable set.
    `table` maps each variable to its stub individual, and `inverse` back.
    Built from (variable, stub) bindings, it refuses one that gives a
    variable a second stub or a stub a second variable (`LiftingClash`).
    `direct` keeps one per kb and variables, so it compares by identity."""

    def __init__(self, bindings: Iterable[tuple[str, str]], signature: DomainSignature):
        """The lifting of the bindings, whose kernel signature adds their
        stubs, `VALUE_ROLE` and `NONZERO_CONCEPT` to `signature`."""
        self.table: dict[str, str] = {}
        self.inverse: dict[str, str] = {}
        for i, (v, s) in enumerate(bindings):
            if v in self.table:
                raise LiftingClash(f"second stub for variable {v!r}", i, v, "variable")
            if s in self.inverse:
                w = self.inverse[s]
                message = (
                    f"default stub {s!r} of variable {v!r} is the stub of variable {w!r}"
                    if s == default_stub_name(v)
                    else f"stub {s!r} already stands for variable {w!r}"
                )
                raise LiftingClash(message, i, v, "stub")
            self.table[v], self.inverse[s] = s, v
        self.kernel_signature = signature.union(
            DomainSignature(
                nominals=frozenset(self.inverse),
                concrete_roles=frozenset({VALUE_ROLE}),
                atomic_concepts=frozenset({NONZERO_CONCEPT}),
            )
        )

    @staticmethod
    def direct(kb: KnowledgeBase, variables: Iterable[str] = ()) -> "SpecLifting":
        """The lifting of kb's stubs and of the default stub of each other
        variable.  It is kept on kb's reasoner per variables, so that
        every program over kb and the same variables shares it."""
        variables = tuple(variables)
        liftings = kb.reasoner.liftings
        if variables not in liftings:
            bindings = [(s.variable, s.stub) for s in kb.stubs]
            bound = {v for v, _ in bindings}
            bindings += [(v, default_stub_name(v)) for v in variables if v not in bound]
            liftings[variables] = SpecLifting(bindings, kb.symbols)
        return liftings[variables]

    def stub_for(self, variable: str) -> str:
        try:
            return self.table[variable]
        except KeyError:
            raise UnboundVariable(variable) from None

    def variable_for(self, stub: str) -> Optional[str]:
        return self.inverse.get(stub)

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
        """The conjunction of the state-level readings of delta's atoms;
        an atom with none, inside the kernel signature or not, drops."""
        return conj(img for _d, img in self.delift_pairs(delta) if img is not None)

    def delift_pairs(
        self, delta: Iterable[DomainFormula]
    ) -> tuple[tuple[DomainFormula, Optional[StateFormula]], ...]:
        """(kernel formula, its state-level reading or None), in the same
        deterministic order delift uses."""
        atoms = tuple(delta)
        return tuple(
            (d, self.delift_atom(d)) for d in sorted(atoms, key=str)
        )

