"""Kernel generation: deriving kernel-signature atoms from a domain
specification by deduction, or explaining it by abduction over a finite
candidate pool of hasValue/NonZero atoms."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .errors import NoExplanation
from .domainlogic import (
    Atomic,
    ConceptAssertion,
    DataAssertion,
    DomainFormula,
    KnowledgeBase,
)
from .lifting import NONZERO_CONCEPT, VALUE_ROLE, SpecLifting
from .status import ObligationStatus, status_of_verdict as _status
from . import reasoning

ABDUCTION_MAX_SIZE = 3


@dataclass(frozen=True)
class CandidatePool:
    atoms: tuple[DomainFormula, ...]

    @staticmethod
    def build(
        kb: KnowledgeBase,
        lifting: SpecLifting,
        extra_constants: Iterable[int] = (),
    ) -> "CandidatePool":
        """hasValue(stub, n) and NonZero(stub) atoms over the stubs of the
        lifting's table, with n drawn from the constants of kb and the
        caller, plus zero.  The pool is kept on kb's reasoner per
        (lifting, constants), so that every context over kb with these
        shares it."""
        constants = frozenset(extra_constants)
        key = (lifting, constants)
        pools = kb.reasoner.pools
        if key in pools:
            return pools[key]
        values = sorted(kb.constants | constants | {0})
        atoms: list[DomainFormula] = []
        for stub in lifting.inverse:
            atoms.append(ConceptAssertion(Atomic(NONZERO_CONCEPT), stub))
            for n in values:
                atoms.append(DataAssertion(VALUE_ROLE, stub, n))
        atoms.sort(key=str)
        pool = pools[key] = CandidatePool(tuple(atoms))
        return pool


@dataclass(frozen=True)
class KernelResult:
    atoms: tuple[DomainFormula, ...]
    forward_obligation: ObligationStatus  # delta entails atoms
    backward_obligation: ObligationStatus  # atoms entail delta


def alpha_deduce(
    delta: Iterable[DomainFormula],
    kb: KnowledgeBase,
    pool: CandidatePool,
) -> KernelResult:
    """Every pool atom entailed by delta under kb."""
    delta = tuple(dict.fromkeys(delta))
    atoms = reasoning.entailed_atoms(delta, pool.atoms, kb)
    backward = _status(reasoning.entails(atoms, delta, kb))
    return KernelResult(
        atoms=atoms,
        forward_obligation=ObligationStatus.PROVED,
        backward_obligation=backward,
    )


def alpha_abduce(
    delta: Iterable[DomainFormula],
    kb: KnowledgeBase,
    pool: CandidatePool,
    max_results: int = 16,
) -> list[KernelResult]:
    """All subset-minimal consistent pool subsets of at most
    ABDUCTION_MAX_SIZE atoms entailing delta, in increasing size then
    lexicographic atom order."""
    delta = tuple(dict.fromkeys(delta))
    found: list[tuple[DomainFormula, ...]] = []
    for size in range(0, ABDUCTION_MAX_SIZE + 1):
        for combo in itertools.combinations(pool.atoms, size):
            if any(set(prev) <= set(combo) for prev in found):
                continue
            if not reasoning.consistent(combo, kb):
                continue
            if reasoning.entails(combo, delta, kb).is_entailed:
                found.append(combo)
                if len(found) >= max_results:
                    break
        if len(found) >= max_results:
            break
    if not found:
        raise NoExplanation(
            f"no pool subset of size <= {ABDUCTION_MAX_SIZE} explains the goal"
        )
    results = []
    for atoms in found:
        forward = _status(reasoning.entails(delta, atoms, kb))
        results.append(
            KernelResult(
                atoms=atoms,
                forward_obligation=forward,
                backward_obligation=ObligationStatus.PROVED,
            )
        )
    return results


def informative_kernel(
    delta: Iterable[DomainFormula],
    kb: KnowledgeBase,
    pool: CandidatePool,
) -> tuple[DomainFormula, ...]:
    """Deduced pool atoms that are consequences of delta beyond what kb
    alone already forces.  Any subset of the deduced atoms keeps the
    forward obligation valid, so dropping background-forced atoms is a
    sound way to keep derivations small.  The answer depends on delta as
    a set, and is kept on kb's reasoner per (delta, pool atoms), so that
    every context over kb and the pool shares it."""
    delta = tuple(dict.fromkeys(delta))
    deltaset = frozenset(delta)
    kernels = kb.reasoner.kernels
    key = (deltaset, pool.atoms)
    if key not in kernels:
        deduced = reasoning.entailed_atoms(
            delta, (a for a in pool.atoms if a not in deltaset), kb
        )
        forced = set(reasoning.entailed_atoms((), deduced, kb))
        kernels[key] = tuple(a for a in deduced if a not in forced)
    return kernels[key]
