"""Entailment under background knowledge by bounded countermodel search.

Queries are decided by refutation: to show premises entail a formula d
under K, search for a finite interpretation of K, the premises, and the
negation of d.  Interpretations range over a universe of the occurring
individuals plus a configurable number of anonymous elements (individuals
are kept pairwise distinct), and data values over the integers occurring
in the query plus zero and one fresh value.  The search grounds the
query into propositional logic and runs a small DPLL solver.

Absence of a countermodel at the bound certifies entailment only for
acyclic terminologies; cyclic inputs yield Unknown verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceeded, UndeclaredSymbol
from .domainlogic import (
    AndC,
    Atomic,
    Bottom,
    Concept,
    ConceptAssertion,
    DataAssertion,
    DomainFormula,
    DomainInterpretation,
    DomainSignature,
    ExistsData,
    ExistsRole,
    ForallData,
    ForallRole,
    KnowledgeBase,
    Nominal,
    NotC,
    OrC,
    RoleAssertion,
    Subsumption,
    Top,
    constants_of_formulas,
    satisfies,
    signature_of,
)

DEFAULT_FRESH_WITNESSES = 2
DEFAULT_DECISION_BUDGET = 500_000


# ---------------------------------------------------------------------------
# Verdicts


@dataclass(frozen=True)
class Entailed:
    certificate: str

    @property
    def is_entailed(self) -> bool:
        return True


@dataclass(frozen=True)
class NotEntailed:
    countermodel: DomainInterpretation
    violated: DomainFormula

    @property
    def is_entailed(self) -> bool:
        return False


@dataclass(frozen=True)
class Unknown:
    bound: str

    @property
    def is_entailed(self) -> bool:
        return False


EntailmentVerdict = Entailed | NotEntailed | Unknown


# ---------------------------------------------------------------------------
# Propositional grounding


class _Grounder:
    """Grounds domain formulas over a fixed universe and value pool into
    propositional clauses (Tseitin transformation)."""

    def __init__(
        self,
        universe: Sequence[str],
        values: Sequence[int],
        signature: DomainSignature,
    ):
        self.universe = tuple(universe)
        self.values = tuple(values)
        self.signature = signature
        self.var_ids: dict[tuple, int] = {}
        self.clauses: list[tuple[int, ...]] = []
        self._defs: dict[tuple, int] = {}

    def var(self, key: tuple) -> int:
        vid = self.var_ids.get(key)
        if vid is None:
            vid = len(self.var_ids) + 1
            self.var_ids[key] = vid
        return vid

    # boolean expression nodes: ('lit', id) | ('true',) | ('false',) |
    # ('not', e) | ('and', (e...)) | ('or', (e...))

    def concept_expr(self, c: Concept, x: str):
        if isinstance(c, Top):
            return ("true",)
        if isinstance(c, Bottom):
            return ("false",)
        if isinstance(c, Atomic):
            return ("lit", self.var(("C", c.name, x)))
        if isinstance(c, Nominal):
            # individuals denote themselves and are pairwise distinct
            return ("true",) if c.name == x else ("false",)
        if isinstance(c, NotC):
            return ("not", self.concept_expr(c.arg, x))
        if isinstance(c, AndC):
            return ("and", (self.concept_expr(c.lhs, x), self.concept_expr(c.rhs, x)))
        if isinstance(c, OrC):
            return ("or", (self.concept_expr(c.lhs, x), self.concept_expr(c.rhs, x)))
        if isinstance(c, ExistsRole):
            parts = tuple(
                (
                    "and",
                    (
                        ("lit", self.var(("R", c.role, x, y))),
                        self.concept_expr(c.arg, y),
                    ),
                )
                for y in self.universe
            )
            return ("or", parts)
        if isinstance(c, ForallRole):
            parts = tuple(
                (
                    "or",
                    (
                        ("not", ("lit", self.var(("R", c.role, x, y)))),
                        self.concept_expr(c.arg, y),
                    ),
                )
                for y in self.universe
            )
            return ("and", parts)
        if isinstance(c, ExistsData):
            return ("lit", self.var(("T", c.role, x, c.value)))
        if isinstance(c, ForallData):
            parts = tuple(
                ("not", ("lit", self.var(("T", c.role, x, v))))
                for v in self.values
                if v != c.value
            )
            return ("and", parts)
        raise TypeError(f"not a concept: {c!r}")

    def formula_expr(self, delta: DomainFormula):
        if isinstance(delta, Subsumption):
            parts = tuple(
                (
                    "or",
                    (
                        ("not", self.concept_expr(delta.lhs, x)),
                        self.concept_expr(delta.rhs, x),
                    ),
                )
                for x in self.universe
            )
            return ("and", parts)
        if isinstance(delta, ConceptAssertion):
            return self.concept_expr(delta.concept, delta.individual)
        if isinstance(delta, RoleAssertion):
            return ("lit", self.var(("R", delta.role, delta.subject, delta.obj)))
        if isinstance(delta, DataAssertion):
            return ("lit", self.var(("T", delta.role, delta.subject, delta.value)))
        raise TypeError(f"not a domain formula: {delta!r}")

    def _tseitin(self, expr) -> int:
        """Returns a literal equisatisfiably representing expr."""
        tag = expr[0]
        if tag == "lit":
            return expr[1]
        if tag == "true":
            t = self.var(("aux", "true"))
            self.clauses.append((t,))
            return t
        if tag == "false":
            t = self.var(("aux", "true"))
            self.clauses.append((t,))
            return -t
        if tag == "not":
            return -self._tseitin(expr[1])
        cached = self._defs.get(expr)
        if cached is not None:
            return cached
        # no clause repeats a literal: the solver's unit test counts them
        subs = tuple(dict.fromkeys(self._tseitin(e) for e in expr[1]))
        out = self.var(("aux", len(self._defs), tag))
        if tag == "and":
            for s in subs:
                self.clauses.append((-out, s))
            self.clauses.append((out,) + tuple(-s for s in subs))
        elif tag == "or":
            for s in subs:
                self.clauses.append((-s, out))
            self.clauses.append((-out,) + subs)
        else:
            raise ValueError(tag)
        self._defs[expr] = out
        return out

    def assert_expr(self, expr) -> None:
        self.clauses.append((self._tseitin(expr),))

    def assert_formula(self, delta: DomainFormula) -> None:
        self.assert_expr(self.formula_expr(delta))

    def decode(self, assignment: dict[int, bool]) -> DomainInterpretation:
        sig = self.signature
        concept_ext: dict[str, frozenset[str]] = {}
        abs_ext: dict[str, frozenset[tuple[str, str]]] = {}
        conc_ext: dict[str, frozenset[tuple[str, int]]] = {}
        for name in sig.atomic_concepts:
            concept_ext[name] = frozenset(
                x
                for x in self.universe
                if assignment.get(self.var_ids.get(("C", name, x), 0), False)
            )
        for role in sig.abstract_roles:
            abs_ext[role] = frozenset(
                (x, y)
                for x in self.universe
                for y in self.universe
                if assignment.get(self.var_ids.get(("R", role, x, y), 0), False)
            )
        for role in sig.concrete_roles:
            conc_ext[role] = frozenset(
                (x, v)
                for x in self.universe
                for v in self.values
                if assignment.get(self.var_ids.get(("T", role, x, v), 0), False)
            )
        nominal_map = {
            n: n for n in self.universe if not n.startswith(_ANON_PREFIX)
        }
        return DomainInterpretation(
            universe=frozenset(self.universe),
            concept_ext=concept_ext,
            abs_role_ext=abs_ext,
            conc_role_ext=conc_ext,
            nominal_map=nominal_map,
        )


_ANON_PREFIX = "_anon"


# ---------------------------------------------------------------------------
# DPLL


def _solve(
    clauses: list[tuple[int, ...]],
    nvars: int,
    budget: int = DEFAULT_DECISION_BUDGET,
) -> Optional[dict[int, bool]]:
    """Iterative DPLL with counter-based unit propagation.

    No clause may repeat a literal.  A clause with complementary literals
    is true under every assignment of their variable, so it never becomes
    unit or conflicting."""
    nclauses = len(clauses)
    occ: dict[int, list[int]] = {}
    for ci, c in enumerate(clauses):
        if not c:
            return None
        for lit in c:
            occ.setdefault(lit, []).append(ci)
    nfalse = [0] * nclauses
    nsat = [0] * nclauses
    assign: list[Optional[bool]] = [None] * (nvars + 1)
    trail: list[int] = []  # literals in assignment order
    decision_marks: list[tuple[int, int]] = []  # (trail length, decided lit)
    decisions = 0

    def set_lit(lit: int) -> Optional[int]:
        """Assign lit true, update counters; returns a conflicting clause
        index or None.  New unit literals are appended to `pending`."""
        v = abs(lit)
        assign[v] = lit > 0
        trail.append(lit)
        for ci in occ.get(lit, ()):
            nsat[ci] += 1
        conflict = None
        for ci in occ.get(-lit, ()):
            nfalse[ci] += 1
            if nsat[ci] == 0:
                c = clauses[ci]
                if nfalse[ci] == len(c):
                    conflict = ci
                elif nfalse[ci] == len(c) - 1:
                    for l2 in c:
                        if assign[abs(l2)] is None:
                            pending.append(l2)
                            break
        return conflict

    def unset_to(mark: int) -> None:
        while len(trail) > mark:
            lit = trail.pop()
            v = abs(lit)
            assign[v] = None
            for ci in occ.get(lit, ()):
                nsat[ci] -= 1
            for ci in occ.get(-lit, ()):
                nfalse[ci] -= 1

    def propagate() -> bool:
        """Drain pending implications; False on conflict."""
        while pending:
            lit = pending.pop()
            v = abs(lit)
            cur = assign[v]
            if cur is not None:
                if cur != (lit > 0):
                    return False
                continue
            if set_lit(lit) is not None:
                return False
        return True

    pending: list[int] = [c[0] for c in clauses if len(c) == 1]
    next_var = 1
    if not propagate():
        return None
    while True:
        while next_var <= nvars and assign[next_var] is not None:
            next_var += 1
        if next_var > nvars:
            return {v: bool(assign[v]) for v in range(1, nvars + 1)}
        decisions += 1
        if decisions > budget:
            raise BudgetExceeded("model search decision budget exhausted")
        decision_marks.append((len(trail), -next_var))
        pending.clear()
        pending.append(-next_var)
        while not propagate():
            # backtrack to the most recent decision still having an
            # untried polarity
            pending.clear()
            while decision_marks:
                mark, lit = decision_marks.pop()
                unset_to(mark)
                if lit < 0:  # tried False first; try True now
                    decision_marks.append((mark, -lit))
                    pending.append(-lit)
                    break
            else:
                return None
            next_var = 1


# ---------------------------------------------------------------------------
# Query interface


def _query_symbols(
    kb: KnowledgeBase, formulas: Iterable[DomainFormula]
) -> tuple[DomainSignature, frozenset[int]]:
    """The signature and the value pool, before its fresh value, of a
    query over the formulas."""
    # the formulas include kb's axioms, so their symbols and constants
    # cover the kb's
    fs = tuple(formulas)
    sig = kb.signature.union(signature_of(fs))
    ints = set(constants_of_formulas(fs))
    ints.add(0)
    return sig, frozenset(ints)


def _query_bounds(
    nominals: Iterable[str], ints: frozenset[int], fresh_witnesses: int
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The universe (the named individuals, then the anonymous ones) and
    the value pool (the query's values plus one fresh value)."""
    universe = tuple(sorted(nominals)) + tuple(
        f"{_ANON_PREFIX}{i}" for i in range(fresh_witnesses)
    )
    fresh = max(abs(v) for v in ints) + 1
    return universe, tuple(sorted(ints | {fresh}))


def find_model(
    formulas: Iterable[DomainFormula],
    kb: KnowledgeBase,
    *,
    fresh_witnesses: int = DEFAULT_FRESH_WITNESSES,
    negated: Iterable[DomainFormula] = (),
) -> Optional[DomainInterpretation]:
    """A bounded model of kb's effective axioms plus the given formulas,
    with every formula in `negated` false; None if none exists."""
    asserted = tuple(formulas)
    negated = tuple(negated)
    axioms = kb.effective_axioms(asserted)
    sig, ints = _query_symbols(kb, axioms + asserted + negated)
    universe, values = _query_bounds(sig.nominals, ints, fresh_witnesses)
    g = _Grounder(universe, values, sig)
    for f in axioms:
        g.assert_formula(f)
    for f in asserted:
        g.assert_formula(f)
    for f in negated:
        g.assert_expr(("not", g.formula_expr(f)))
    assignment = _solve(g.clauses, len(g.var_ids))
    if assignment is None:
        return None
    return g.decode(assignment)


def entails(
    premises: Iterable[DomainFormula],
    conclusion: Iterable[DomainFormula],
    kb: KnowledgeBase,
    *,
    fresh_witnesses: int = DEFAULT_FRESH_WITNESSES,
) -> EntailmentVerdict:
    """Does every bounded model of kb and the premises satisfy every
    conclusion formula?  Each search's answer is kept in kb's memo."""
    prem = frozenset(premises)
    concl = tuple(dict.fromkeys(conclusion))
    memo = kb.refutations
    needed_search = False
    for d in concl:
        if d in prem:
            continue
        needed_search = True
        key = (prem, d, fresh_witnesses)
        try:
            model = memo[key]
        except KeyError:
            model = memo[key] = find_model(
                prem, kb, fresh_witnesses=fresh_witnesses, negated=(d,)
            )
        if model is not None:
            return NotEntailed(countermodel=model, violated=d)
    if not needed_search:
        return Entailed(certificate="premise inclusion")
    bound = f"universe = individuals + {fresh_witnesses} anonymous"
    if kb.acyclic:
        return Entailed(certificate=f"no countermodel at bound ({bound})")
    return Unknown(bound=bound)


def entailed_atoms(
    premises: Iterable[DomainFormula],
    atoms: Iterable[DomainFormula],
    kb: KnowledgeBase,
) -> tuple[DomainFormula, ...]:
    """The atoms a, in order, for which `entails(premises, (a,), kb)` is
    Entailed, with fewer model searches.

    A query for a is decided over the premises' universe and value pool,
    extended by a's individual and value.  A countermodel found for one
    atom is a model of kb and the premises over that query context, so
    it refutes every later atom over the same context that it falsifies
    (the backbone method of Janota, Lynce and Marques-Silva, AI Comm.
    2015).  Only the remaining atoms are searched."""
    prem = frozenset(premises)
    if not kb.acyclic:
        # entails then answers Unknown or NotEntailed beyond inclusion
        return tuple(a for a in atoms if a in prem)
    sig, ints = _query_symbols(kb, kb.effective_axioms(prem) + tuple(prem))
    countermodels: dict[tuple, DomainInterpretation] = {}
    out = []
    for a in atoms:
        if a in prem:
            out.append(a)
            continue
        bounds = _query_bounds(
            sig.nominals | signature_of((a,)).nominals,
            ints | constants_of_formulas((a,)),
            DEFAULT_FRESH_WITNESSES,
        )
        model = countermodels.get(bounds)
        if model is not None and _falsifies(model, a):
            continue
        verdict = entails(prem, (a,), kb)
        if verdict.is_entailed:
            out.append(a)
        else:
            countermodels[bounds] = verdict.countermodel
    return tuple(out)


def _falsifies(model: DomainInterpretation, d: DomainFormula) -> bool:
    """Whether model falsifies d; False when it leaves d's symbols
    uninterpreted."""
    try:
        return not satisfies(model, d)
    except UndeclaredSymbol:
        return False


def consistent(formulas: Iterable[DomainFormula], kb: KnowledgeBase) -> bool:
    if find_model(formulas, kb) is not None:
        return True
    if not kb.acyclic:
        raise BudgetExceeded(
            "no model at the enumeration bound and the terminology is cyclic; "
            "consistency undecided"
        )
    return False
