"""Kernel generation: deriving kernel-signature atoms from a domain
specification by deduction, or explaining it by abduction over a finite
candidate pool of hasValue/NonZero atoms."""

from __future__ import annotations

import itertools
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
from . import reasoning

ABDUCTION_MAX_SIZE = 3


def candidate_pool(
    kb: KnowledgeBase,
    lifting: SpecLifting,
    extra_constants: Iterable[int] = (),
) -> tuple[DomainFormula, ...]:
    """hasValue(stub, n) and NonZero(stub) atoms over the stubs of the
    lifting's table, with n drawn from the constants of kb and the
    caller, plus zero, in rendered order.  The pool is kept on kb's
    reasoner per (lifting, constants), so that every context over kb
    with these shares it."""
    constants = frozenset(extra_constants)
    key = (lifting, constants)
    pools = kb.reasoner.pools
    if key not in pools:
        values = sorted(kb.constants | constants | {0})
        atoms: list[DomainFormula] = []
        for stub in lifting.inverse:
            atoms.append(ConceptAssertion(Atomic(NONZERO_CONCEPT), stub))
            for n in values:
                atoms.append(DataAssertion(VALUE_ROLE, stub, n))
        atoms.sort(key=str)
        pools[key] = tuple(atoms)
    return pools[key]


def alpha_deduce(
    delta: Iterable[DomainFormula],
    kb: KnowledgeBase,
    pool: tuple[DomainFormula, ...],
) -> tuple[DomainFormula, ...]:
    """Every pool atom entailed by delta under kb."""
    return reasoning.entailed_atoms(tuple(dict.fromkeys(delta)), pool, kb)


def alpha_abduce(
    delta: Iterable[DomainFormula],
    kb: KnowledgeBase,
    pool: tuple[DomainFormula, ...],
    max_results: int = 16,
) -> list[tuple[DomainFormula, ...]]:
    """All subset-minimal consistent pool subsets of at most
    ABDUCTION_MAX_SIZE atoms entailing delta, in increasing size then
    lexicographic atom order."""
    delta = tuple(dict.fromkeys(delta))
    found: list[tuple[DomainFormula, ...]] = []
    for size in range(0, ABDUCTION_MAX_SIZE + 1):
        for combo in itertools.combinations(pool, size):
            if any(set(prev) <= set(combo) for prev in found):
                continue
            if not reasoning.consistent(combo, kb):
                continue
            if reasoning.entails(combo, delta, kb).is_entailed:
                found.append(combo)
                if len(found) >= max_results:
                    return found
    if not found:
        raise NoExplanation(
            f"no pool subset of size <= {ABDUCTION_MAX_SIZE} explains the goal"
        )
    return found


def informative_kernel(
    delta: Iterable[DomainFormula],
    kb: KnowledgeBase,
    pool: tuple[DomainFormula, ...],
) -> tuple[DomainFormula, ...]:
    """Deduced pool atoms that are consequences of delta beyond what kb
    alone already forces.  Any subset of the deduced atoms keeps the
    forward obligation valid, so dropping background-forced atoms is a
    sound way to keep derivations small.  The answer depends on delta as
    a set, and is kept on kb's reasoner per (delta, pool), so that
    every context over kb and the pool shares it."""
    delta = tuple(dict.fromkeys(delta))
    deltaset = frozenset(delta)
    kernels = kb.reasoner.kernels
    key = (deltaset, pool)
    if key not in kernels:
        deduced = reasoning.entailed_atoms(
            delta, (a for a in pool if a not in deltaset), kb
        )
        forced = set(reasoning.entailed_atoms((), deduced, kb))
        kernels[key] = tuple(a for a in deduced if a not in forced)
    return kernels[key]
