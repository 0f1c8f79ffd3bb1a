"""Entailment under background knowledge by bounded countermodel search.

Queries are decided by refutation: to show premises entail a formula d
under K, search for a finite interpretation of K, the premises, and the
negation of d.  Interpretations range over a universe of the occurring
individuals plus a bounded number of anonymous elements (individuals
are kept pairwise distinct), and data values over the integers occurring
in the query plus zero and one fresh value.  Every query counts
DEFAULT_FRESH_WITNESSES anonymous elements, `entailed`'s restricted ones
excepted (below).  The search grounds the query into propositional
logic and runs a small DPLL solver.  Each knowledge base's `Reasoner`
keeps K grounded and unit-propagated over the context of the last
search, and the memos of answers; a search in the same context grounds
its own formulas onto that state, solves in place and restores it.

Absence of a countermodel at the bound certifies entailment only for
acyclic terminologies; cyclic inputs yield Unknown verdicts, and so does a
search that runs out of its decision budget.

`entailed` gives the verdict alone, for `assertion_holds`.  It asks the
query first without the premises about individuals that neither K nor
the conclusion names, over one more anonymous element for each, so that
states differing only in such individuals share a search.  Its answer
is that of the full query: an `Entailed` always, a `NotEntailed` when
the countermodel extends to one over the full query's universe, and
otherwise it asks the full query.
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
    nodes_of,
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
    propositional clauses (Tseitin transformation), and holds the DPLL
    state over them.  A concept at an element, or a formula, becomes one
    literal; each conjunction or disjunction of literals becomes one gate
    variable, shared by every use of the same inputs.  The state is each
    literal's occurrence list, per-clause counts of false and of true
    literals, the assignment (indexed by variable) and the trail of
    assigned literals in assignment order."""

    def __init__(self, universe: Sequence[str], values: Sequence[int]):
        self.universe = tuple(universe)
        self.values = tuple(values)
        self.var_ids: dict[tuple, int] = {}
        # the literal of Top, which holds in every model
        self.true = self.var(("true",))
        self.clauses: list[tuple[int, ...]] = [(self.true,)]
        self.occ: dict[int, list[int]] = {}
        self.nfalse: list[int] = []
        self.nsat: list[int] = []
        self.assign: list[Optional[bool]] = [None]
        self.trail: list[int] = []

    def var(self, key: tuple) -> int:
        vid = self.var_ids.get(key)
        if vid is None:
            vid = len(self.var_ids) + 1
            self.var_ids[key] = vid
        return vid

    def gate(self, tag: str, literals: Iterable[int]) -> int:
        """A literal equivalent to the conjunction ("and") or disjunction
        ("or") of the literals."""
        # no clause repeats a literal: the solver's unit test counts them
        ins = tuple(dict.fromkeys(literals))
        key = (tag, ins)
        out = self.var_ids.get(key)
        if out is None:
            out = self.var(key)
            if tag == "and":
                self.clauses.extend((-out, s) for s in ins)
                self.clauses.append((out,) + tuple(-s for s in ins))
            else:
                self.clauses.extend((-s, out) for s in ins)
                self.clauses.append((-out,) + ins)
        return out

    def concept(self, c: Concept, x: str) -> int:
        if isinstance(c, Atomic):
            return self.var(("C", c.name, x))
        if isinstance(c, Top):
            return self.true
        if isinstance(c, Bottom):
            return -self.true
        if isinstance(c, Nominal):
            # individuals denote themselves and are pairwise distinct
            return self.true if c.name == x else -self.true
        if isinstance(c, NotC):
            return -self.concept(c.arg, x)
        if isinstance(c, AndC):
            return self.gate("and", (self.concept(c.lhs, x), self.concept(c.rhs, x)))
        if isinstance(c, OrC):
            return self.gate("or", (self.concept(c.lhs, x), self.concept(c.rhs, x)))
        if isinstance(c, ExistsRole):
            return self.gate("or", [self.gate("and", e) for e in self._edges(c, x)])
        if isinstance(c, ForallRole):
            return self.gate(
                "and", [self.gate("or", (-r, a)) for r, a in self._edges(c, x)]
            )
        if isinstance(c, ExistsData):
            return self.var(("T", c.role, x, c.value))
        if isinstance(c, ForallData):
            return self.gate(
                "and",
                [-self.var(("T", c.role, x, v)) for v in self.values if v != c.value],
            )
        raise TypeError(f"not a concept: {c!r}")

    def _edges(self, c: ExistsRole | ForallRole, x: str):
        """(r(x, y), C(y)) for every element y, where c is over r and C."""
        for y in self.universe:
            yield self.var(("R", c.role, x, y)), self.concept(c.arg, y)

    def formula(self, delta: DomainFormula) -> int:
        if isinstance(delta, Subsumption):
            # C <= D holds when !C | D holds at every element
            c = OrC(NotC(delta.lhs), delta.rhs)
            return self.gate("and", [self.concept(c, x) for x in self.universe])
        if isinstance(delta, ConceptAssertion):
            return self.concept(delta.concept, delta.individual)
        if isinstance(delta, RoleAssertion):
            return self.var(("R", delta.role, delta.subject, delta.obj))
        if isinstance(delta, DataAssertion):
            return self.var(("T", delta.role, delta.subject, delta.value))
        raise TypeError(f"not a domain formula: {delta!r}")

    def assert_formula(self, delta: DomainFormula, holds: bool = True) -> None:
        """Adds the clause that delta holds, or with holds=False that it
        does not."""
        lit = self.formula(delta)
        self.clauses.append((lit if holds else -lit,))

    def decode(self, sig: DomainSignature) -> DomainInterpretation:
        assign, var_ids = self.assign, self.var_ids
        concept_ext: dict[str, frozenset[str]] = {}
        abs_ext: dict[str, frozenset[tuple[str, str]]] = {}
        conc_ext: dict[str, frozenset[tuple[str, int]]] = {}
        for name in sig.atomic_concepts:
            concept_ext[name] = frozenset(
                x
                for x in self.universe
                if assign[var_ids.get(("C", name, x), 0)]
            )
        for role in sig.abstract_roles:
            abs_ext[role] = frozenset(
                (x, y)
                for x in self.universe
                for y in self.universe
                if assign[var_ids.get(("R", role, x, y), 0)]
            )
        for role in sig.concrete_roles:
            conc_ext[role] = frozenset(
                (x, v)
                for x in self.universe
                for v in self.values
                if assign[var_ids.get(("T", role, x, v), 0)]
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

    def settle(self) -> bool:
        """Index the clauses added since the last call and run unit
        propagation to its fixpoint; False on a conflict.  The state must
        be a level-0 fixpoint, and the new fixpoint does not depend on the
        order in which clauses arrive, so it equals that of propagating
        every clause at once."""
        clauses, occ, nfalse, nsat = self.clauses, self.occ, self.nfalse, self.nsat
        assign = self.assign
        assign.extend([None] * (len(self.var_ids) + 1 - len(assign)))
        pending: list[int] = []
        for ci in range(len(nfalse), len(clauses)):
            c = clauses[ci]
            nf = ns = 0
            free = 0
            for lit in c:
                occ.setdefault(lit, []).append(ci)
                val = assign[abs(lit)]
                if val is None:
                    free = lit
                elif val == (lit > 0):
                    ns += 1
                else:
                    nf += 1
            nfalse.append(nf)
            nsat.append(ns)
            if ns == 0:
                if nf == len(c):
                    return False
                if nf == len(c) - 1:
                    pending.append(free)
        return self.propagate(pending)

    def propagate(self, pending: list[int]) -> bool:
        """Assign the pending literals and every literal they imply; False
        on a conflict.  Every assigned literal's counters are updated in
        full, so that `unset_to` can undo them."""
        clauses, occ, nfalse, nsat = self.clauses, self.occ, self.nfalse, self.nsat
        assign, trail = self.assign, self.trail
        while pending:
            lit = pending.pop()
            v = abs(lit)
            cur = assign[v]
            if cur is not None:
                if cur != (lit > 0):
                    return False
                continue
            assign[v] = lit > 0
            trail.append(lit)
            for ci in occ.get(lit, ()):
                nsat[ci] += 1
            conflict = False
            for ci in occ.get(-lit, ()):
                nfalse[ci] += 1
                if nsat[ci] == 0:
                    c = clauses[ci]
                    if nfalse[ci] == len(c):
                        conflict = True
                    elif nfalse[ci] == len(c) - 1:
                        for l2 in c:
                            if assign[abs(l2)] is None:
                                pending.append(l2)
                                break
            if conflict:
                return False
        return True

    def unset_to(self, mark: int) -> None:
        """Unassign the trail's literals beyond its first `mark`."""
        occ, nfalse, nsat = self.occ, self.nfalse, self.nsat
        assign, trail = self.assign, self.trail
        while len(trail) > mark:
            lit = trail.pop()
            assign[abs(lit)] = None
            for ci in occ.get(lit, ()):
                nsat[ci] -= 1
            for ci in occ.get(-lit, ()):
                nfalse[ci] -= 1

    def mark(self) -> tuple:
        """What `restore` needs to bring back this state, which must be a
        settled level-0 fixpoint: the lengths of the variable table and the
        trail, the value pool, and a copy of the per-clause counts, which
        have one entry per clause."""
        counts = (self.nfalse.copy(), self.nsat.copy())
        return (len(self.var_ids), len(self.trail), self.values) + counts

    def restore(self, mark: tuple) -> None:
        """Take back every variable, clause and assignment made since the
        mark.  The saved counts are put back whole: undoing them literal by
        literal through `unset_to` costs more."""
        nvars, ntrail, values, nfalse, nsat = mark
        nclauses = len(nfalse)
        occ, assign, trail = self.occ, self.assign, self.trail
        # the indexed clauses beyond the mark are the last entries of
        # their literals' occurrence lists
        for ci in range(nclauses, len(self.nfalse)):
            for lit in self.clauses[ci]:
                occ[lit].pop()
        del self.clauses[nclauses:]
        while len(trail) > ntrail:
            assign[abs(trail.pop())] = None
        del assign[nvars + 1 :]
        for _ in range(len(self.var_ids) - nvars):
            self.var_ids.popitem()
        self.values, self.nfalse, self.nsat = values, nfalse, nsat


_ANON_PREFIX = "_anon"


# ---------------------------------------------------------------------------
# DPLL


def _solve(g: _Grounder, budget: int = DEFAULT_DECISION_BUDGET) -> bool:
    """Iterative DPLL with counter-based unit propagation over g's
    clauses, in place from g's level-0 state once settled; True when a
    model exists, which g's assignment then holds.  The search's literals
    stay on g's trail for `_Grounder.restore` to take back.

    No clause may repeat a literal.  A clause with complementary literals
    is true under every assignment of their variable, so it never becomes
    unit or conflicting."""
    if not g.settle():
        return False
    assign, trail = g.assign, g.trail
    nvars = len(assign) - 1
    decision_marks: list[tuple[int, int]] = []  # (trail length, decided lit)
    decisions = 0
    pending: list[int] = []
    next_var = 1
    while True:
        while next_var <= nvars and assign[next_var] is not None:
            next_var += 1
        if next_var > nvars:
            return True
        decisions += 1
        if decisions > budget:
            raise BudgetExceeded(
                f"model search decision budget of {budget} exhausted"
            )
        decision_marks.append((len(trail), -next_var))
        pending.clear()
        pending.append(-next_var)
        while not g.propagate(pending):
            # backtrack to the most recent decision still having an
            # untried polarity
            pending.clear()
            while decision_marks:
                mark, lit = decision_marks.pop()
                g.unset_to(mark)
                if lit < 0:  # tried False first; try True now
                    decision_marks.append((mark, -lit))
                    pending.append(-lit)
                    # every variable below the flipped one is still set
                    next_var = -lit
                    break
            else:
                return False


# ---------------------------------------------------------------------------
# Query interface


class Reasoner:
    """What the reasoner keeps about one kb, shared by every query over
    it (`KnowledgeBase.reasoner`).

    - `reads_values`: whether a background axiom holds a ∀-data
      restriction (`all t . n`), the only construct whose grounding
      reads the value pool.
    - The slot (`_grounded_background`): `key`, the context of the last
      search, and `grounder`, the background axioms grounded over it.
    - `refutations`: (premises, conclusion formula, anonymous elements)
      -> a countermodel, or None when there is none.
    - `trims`: (kept premises, violated formula, number of detached
      individuals) -> whether a restricted countermodel survives that
      many anonymous elements dropped (`_trims`).
    - `types`: (premise subsumptions, a detached individual's premises
      renamed) -> whether a one-element type satisfies them
      (`_has_type`)."""

    def __init__(self, background: Iterable[DomainFormula]):
        self.reads_values = any(isinstance(n, ForallData) for n in nodes_of(background))
        self.key: Optional[tuple] = None
        self.grounder: Optional[_Grounder] = None
        self.refutations: dict[tuple, Optional[DomainInterpretation]] = {}
        self.trims: dict[tuple, bool] = {}
        self.types: dict[tuple, bool] = {}


def _query_symbols(
    kb: KnowledgeBase, query: Iterable[DomainFormula]
) -> tuple[DomainSignature, frozenset[int]]:
    """The signature and the value pool, before its fresh value, of a
    query over kb's background axioms and the query's formulas.  The
    query axioms add no symbol or constant beyond the query's own."""
    query = tuple(query)
    sig, ints = kb.background_symbols
    return (
        sig.union(signature_of(query)),
        ints | constants_of_formulas(query) | {0},
    )


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


def _grounded_background(
    kb: KnowledgeBase, universe: tuple[str, ...], values: tuple[int, ...]
) -> Optional[_Grounder]:
    """kb's background axioms grounded over the universe and value pool
    and settled at level 0 (None if they conflict), from kb's slot; on a
    miss the slot is refilled for this context.  A background without a
    ∀-data restriction grounds to the same clauses over every pool, so
    its context is (universe, None) and its grounder's pool is that of
    the search that filled the slot; otherwise it is (universe, pool)."""
    r = kb.reasoner
    key = (universe, values if r.reads_values else None)
    if key != r.key:
        # K's last grounding goes first, so that two never coexist
        r.key = r.grounder = None
        g = _Grounder(universe, values)
        for f in kb.background:
            g.assert_formula(f)
        r.key, r.grounder = key, g if g.settle() else None
    return r.grounder


def find_model(
    formulas: Iterable[DomainFormula],
    kb: KnowledgeBase,
    *,
    fresh_witnesses: int = DEFAULT_FRESH_WITNESSES,
    negated: Iterable[DomainFormula] = (),
) -> Optional[DomainInterpretation]:
    """A bounded model of kb's background axioms, the query axioms of the
    given formulas and the formulas, with every formula in `negated`
    false; None if none exists.

    The background axioms come grounded and settled in kb's slot.  Only
    the query's part is grounded here, onto the slot's grounder over the
    query's own value pool and numbered after them as a grounding of the
    whole would number it; restoring the mark afterwards leaves the slot
    as it was, also on a budget hit.  The formulas are grounded in the
    order of their printed forms, so the variable order, and with it the
    model, does not depend on the order they come in."""
    asserted = tuple(sorted(formulas, key=str))
    negated = tuple(negated)
    sig, ints = _query_symbols(kb, asserted + negated)
    universe, values = _query_bounds(sig.nominals, ints, fresh_witnesses)
    g = _grounded_background(kb, universe, values)
    if g is None:
        return None
    mark = g.mark()
    try:
        g.values = values
        for f in kb.query_axioms(asserted):
            g.assert_formula(f)
        for f in asserted:
            g.assert_formula(f)
        for f in negated:
            g.assert_formula(f, holds=False)
        return g.decode(sig) if _solve(g) else None
    finally:
        g.restore(mark)


def entails(
    premises: Iterable[DomainFormula],
    conclusion: Iterable[DomainFormula],
    kb: KnowledgeBase,
    *,
    fresh_witnesses: int = DEFAULT_FRESH_WITNESSES,
) -> EntailmentVerdict:
    """Does every bounded model of kb and the premises satisfy every
    conclusion formula?  Each search's answer is kept in kb's memo; a
    search that runs out of its decision budget is not, and makes the
    verdict Unknown."""
    prem = frozenset(premises)
    concl = tuple(dict.fromkeys(conclusion))
    memo = kb.reasoner.refutations
    needed_search = False
    for d in concl:
        if d in prem:
            continue
        needed_search = True
        key = (prem, d, fresh_witnesses)
        try:
            model = memo[key]
        except KeyError:
            try:
                model = find_model(
                    prem, kb, fresh_witnesses=fresh_witnesses, negated=(d,)
                )
            except BudgetExceeded as exc:
                return Unknown(bound=str(exc))
            memo[key] = model
        if model is not None:
            return NotEntailed(countermodel=model, violated=d)
    if not needed_search:
        return Entailed(certificate="premise inclusion")
    bound = f"universe = individuals + {fresh_witnesses} anonymous"
    if kb.acyclic:
        return Entailed(certificate=f"no countermodel at bound ({bound})")
    return Unknown(bound=bound)


def entailed(
    premises: Iterable[DomainFormula],
    conclusion: Sequence[DomainFormula],
    kb: KnowledgeBase,
) -> bool:
    """`entails(premises, conclusion, kb).is_entailed`, asked first without
    the premises about individuals that nothing else names.

    Let D be the individuals of the premises that kb's background
    symbols and the conclusion do not name and that every premise naming
    them is about alone: a data triple t(d, n) or an atomic concept
    assertion A(d) (a syntactic locality module; Cuenca Grau, Horrocks,
    Kazakov & Sattler, *Modular Reuse of Ontologies*, JAIR 2008).  The
    restricted query keeps the other premises and adds |D| anonymous
    elements, so its universe has the size of the full query's.

    - `Entailed` is exact.  Rename each member of D in a countermodel of
      the full query to a fresh anonymous element, and map every value
      outside the restricted pool to its fresh value: no formula of the
      restricted query names either, and concepts only compare values
      with constants, so the result is a countermodel of the restricted
      query.  No restricted countermodel means no full one (up to a
      decision-budget hit on the full query, which would be Unknown).
    - `NotEntailed` is trusted with a certificate.  Drop |D| anonymous
      elements that no other element points to from the restricted
      countermodel; the others keep their successors and so their
      concepts.  What remains is checked, once per restricted query,
      against K, the kept premises, their query axioms and the negated
      conclusion.  Each member of D is then added as a detached element
      (no edges to other elements) of a type that satisfies K's
      subsumptions, the premise subsumptions, its own premises and their
      query axioms, found once per (kb, its premises up to renaming) by
      a one-element search.  With the restricted fresh value mapped to
      the full one, that interpretation is a countermodel over exactly
      the full query's universe and pool, which the full search would
      also find.
    - Otherwise the full query is asked, as `entails` would."""
    prem = frozenset(premises)
    named = kb.background_symbols[0].nominals | signature_of(conclusion).nominals
    own: dict[str, list[DomainFormula]] = {}
    for p in prem:
        about = _about_one(p)
        if about is None:
            named = named | signature_of((p,)).nominals
        else:
            own.setdefault(about, []).append(p)
    detached = [ps for d, ps in own.items() if d not in named]
    if not detached:
        return entails(prem, conclusion, kb).is_entailed
    kept = prem.difference(*detached)
    fresh = DEFAULT_FRESH_WITNESSES + len(detached)
    verdict = entails(kept, conclusion, kb, fresh_witnesses=fresh)
    if verdict.is_entailed:
        return True
    if isinstance(verdict, NotEntailed) and _detaches(verdict, kept, detached, kb):
        return False
    return entails(prem, conclusion, kb).is_entailed


def _about_one(p: DomainFormula) -> Optional[str]:
    """The individual p is about alone, for a data triple or an atomic
    concept assertion; None for any other formula."""
    if isinstance(p, DataAssertion):
        return p.subject
    if isinstance(p, ConceptAssertion) and isinstance(p.concept, Atomic):
        return p.individual
    return None


def _detaches(
    verdict: NotEntailed,
    kept: frozenset[DomainFormula],
    detached: list[list[DomainFormula]],
    kb: KnowledgeBase,
) -> bool:
    """Whether the restricted countermodel, with len(detached) anonymous
    elements traded for detached ones, is a countermodel of the full
    query (see `entailed`)."""
    trims, types = kb.reasoner.trims, kb.reasoner.types
    key = (kept, verdict.violated, len(detached))
    if key not in trims:
        trims[key] = _trims(verdict, kept, len(detached), kb)
    if not trims[key]:
        return False
    spread = tuple(sorted((p for p in kept if isinstance(p, Subsumption)), key=str))
    for ps in detached:
        key = (spread, frozenset(_renamed(p, _TYPE_ELEMENT) for p in ps))
        if key not in types:
            types[key] = _has_type(spread + tuple(key[1]), kb)
        if not types[key]:
            return False
    return True


def _trims(
    verdict: NotEntailed, kept: frozenset[DomainFormula], n: int, kb: KnowledgeBase
) -> bool:
    """Whether the countermodel still satisfies K, the kept premises and
    their query axioms, and falsifies the violated formula, once n
    anonymous elements that no other element points to are dropped."""
    m = verdict.countermodel
    pointed = {y for ext in m.abs_role_ext.values() for x, y in ext if x != y}
    free = [
        x for x in sorted(m.universe) if x.startswith(_ANON_PREFIX) and x not in pointed
    ]
    if len(free) < n:
        return False
    keep = m.universe.difference(free[len(free) - n :])
    trimmed = DomainInterpretation(
        universe=keep,
        concept_ext={k: ext & keep for k, ext in m.concept_ext.items()},
        abs_role_ext={
            k: frozenset(e for e in ext if e[0] in keep and e[1] in keep)
            for k, ext in m.abs_role_ext.items()
        },
        conc_role_ext={
            k: frozenset(e for e in ext if e[0] in keep)
            for k, ext in m.conc_role_ext.items()
        },
        nominal_map=m.nominal_map,
    )
    holding = kb.background + tuple(kept) + kb.query_axioms(kept)
    return all(satisfies(trimmed, f) for f in holding) and not satisfies(
        trimmed, verdict.violated
    )


# the one element of a detached individual's type search
_TYPE_ELEMENT = f"{_ANON_PREFIX}0"


def _renamed(p: DomainFormula, individual: str) -> DomainFormula:
    """A formula about one individual (`_about_one`), about another."""
    if isinstance(p, DataAssertion):
        return DataAssertion(p.role, individual, p.value)
    return ConceptAssertion(p.concept, individual)


def _has_type(formulas: tuple[DomainFormula, ...], kb: KnowledgeBase) -> bool:
    """Whether one element with edges to itself alone can satisfy K's
    subsumptions, the formulas about it and their query axioms."""
    formulas = tuple(f for f in kb.background if isinstance(f, Subsumption)) + formulas
    _, values = _query_bounds((), constants_of_formulas(formulas) | {0}, 0)
    g = _Grounder((_TYPE_ELEMENT,), values)
    for f in formulas + kb.query_axioms(formulas):
        g.assert_formula(f)
    try:
        return _solve(g)
    except BudgetExceeded:
        return False


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
    sig, ints = _query_symbols(kb, prem)
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
        elif isinstance(verdict, NotEntailed):
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
