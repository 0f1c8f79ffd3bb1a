"""Two-tier contract verification: Hoare-style reasoning over pairs of
description-logic domain assertions and first-order state assertions,
connected by a semantic lifting."""

from .statelogic import And, Eq, Lit, Not, TRUE, Var
from .domainlogic import (
    Atomic,
    ConceptAssertion,
    DataAssertion,
    KnowledgeBase,
    RoleAssertion,
    Subsumption,
)
from .lifting import SpecLifting
from .assertions import TwoTierAssertion, assertion, assertion_holds
from .calculus import (
    Judgement,
    ProofTree,
    VerifCtx,
    apply_rule,
    check_proof,
    validate_judgement_empirically,
)
from .strategy import derive, verify_procedure, verify_program
from .kernel import alpha_abduce, alpha_deduce, candidate_pool
from .parsing import parse_assertion, parse_kb, parse_program

__version__ = "0.1.0"

__all__ = [
    "And",
    "Atomic",
    "ConceptAssertion",
    "DataAssertion",
    "Eq",
    "Judgement",
    "KnowledgeBase",
    "Lit",
    "Not",
    "ProofTree",
    "RoleAssertion",
    "SpecLifting",
    "Subsumption",
    "TRUE",
    "TwoTierAssertion",
    "Var",
    "VerifCtx",
    "alpha_abduce",
    "alpha_deduce",
    "apply_rule",
    "assertion",
    "assertion_holds",
    "candidate_pool",
    "check_proof",
    "derive",
    "parse_assertion",
    "parse_kb",
    "parse_program",
    "validate_judgement_empirically",
    "verify_procedure",
    "verify_program",
]
