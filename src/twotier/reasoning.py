"""Entailment under background knowledge by bounded countermodel search.

Queries are decided by refutation: to show premises entail a formula d
under K, search for a finite interpretation of K, the premises, and the
negation of d.  Interpretations range over a universe of the occurring
individuals plus a bounded number of anonymous elements (individuals
are kept pairwise distinct), and data values over the integers occurring
in the query plus zero and one fresh value.  Every query counts
DEFAULT_FRESH_WITNESSES anonymous elements, restricted ones excepted
(below).  The search grounds the query into propositional logic and
runs a small DPLL solver.  Each knowledge base's `Reasoner`
keeps the memos of answers and one grounding of K, which serves every
query whose universe is no longer than its own.  Universes list K's
individuals first, and K names no other element, so the query's
elements stand for the grounding's by position: the query switches
the elements beyond its own off by unit clauses at level 0 (Eén &
Sörensson, *An Extensible SAT-solver*, SAT 2003), grounds its own
formulas onto that unit-propagated state through the renaming, solves
in place, reads the model back under its own names and restores the
state.

Absence of a countermodel at the bound certifies entailment only for
acyclic terminologies; cyclic inputs yield Unknown verdicts, and so does a
search that runs out of its decision budget.

`restricted` decides a query first without the premises about
individuals that nothing else names, over one more anonymous element
for each (a syntactic locality module; Cuenca Grau, Horrocks, Kazakov &
Sattler, *Modular Reuse of Ontologies*, JAIR 2008).  Its `Entailed` is
exact, its `NotEntailed` holds when the countermodel extends to one over
the full query's universe (`has_type`), and anything else asks the full
query.  `assertions._Split`, whose premises are lifted atoms about one
stub each, splits an assertion's premises once for all states over its
variables and asks the restricted query once per projection of a state
onto the variables whose stubs stay.
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
    literal's occurrence list, per-clause counts of false literals, the
    assignment (indexed by variable) and the trail of assigned literals
    in assignment order."""

    def __init__(self, universe: Sequence[str], values: Sequence[int]):
        self.universe = tuple(universe)
        self.values = tuple(values)
        self.var_ids: dict[tuple, int] = {}
        self.off: frozenset[str] = frozenset()
        # a query's individual -> the element that stands for it here
        self.names: dict[str, str] = {}
        # the literal of Top, which holds in every model
        self.true = self.var(("true",))
        # E(x): whether the element x exists, which `switch` decides
        for x in self.universe:
            self.var(("E", x))
        self.clauses: list[tuple[int, ...]] = [(self.true,)]
        self.occ: dict[int, list[int]] = {}
        self.nfalse: list[int] = []
        self.assign: list[Optional[bool]] = [None]
        self.trail: list[int] = []

    def var(self, key: tuple) -> int:
        vid = self.var_ids.get(key)
        if vid is None:
            vid = len(self.var_ids) + 1
            self.var_ids[key] = vid
            # C, R and T atoms hold their elements at key[2:4]
            if self.off and not self.off.isdisjoint(key[2:4]):
                self.clauses.append((-vid,))
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

    def element(self, individual: str) -> str:
        """The element that stands for a query's individual."""
        return self.names.get(individual, individual)

    def concept(self, c: Concept, x: str) -> int:
        if isinstance(c, Atomic):
            return self.var(("C", c.name, x))
        if isinstance(c, Top):
            return self.true
        if isinstance(c, Bottom):
            return -self.true
        if isinstance(c, Nominal):
            # individuals denote their elements and are pairwise distinct
            return self.true if self.element(c.name) == x else -self.true
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
            conjuncts = [self.gate("or", c) for c in self._conjuncts(delta)]
            return self.gate("and", conjuncts)
        if isinstance(delta, ConceptAssertion):
            return self.concept(delta.concept, self.element(delta.individual))
        if isinstance(delta, RoleAssertion):
            subject, obj = self.element(delta.subject), self.element(delta.obj)
            return self.var(("R", delta.role, subject, obj))
        if isinstance(delta, DataAssertion):
            return self.var(("T", delta.role, self.element(delta.subject), delta.value))
        raise TypeError(f"not a domain formula: {delta!r}")

    def _conjuncts(self, delta: Subsumption):
        """C <= D holds when !C | D holds at every element that exists:
        (!E(x), (!C | D)(x)) for every element x."""
        c = OrC(NotC(delta.lhs), delta.rhs)
        for x in self.universe:
            yield -self.var(("E", x)), self.concept(c, x)

    def assert_formula(self, delta: DomainFormula, holds: bool = True) -> None:
        """Adds the clauses that delta holds, or with holds=False that it
        does not.  A subsumption that holds adds its conjuncts as clauses,
        without the gates that `formula` makes of them."""
        if holds and isinstance(delta, Subsumption):
            for conjunct in self._conjuncts(delta):
                self.clauses.append(conjunct)
            return
        lit = self.formula(delta)
        self.clauses.append((lit if holds else -lit,))

    def switch(self, on: Iterable[str]) -> None:
        """Adds the unit clauses that the elements in `on` exist and the
        others do not, and that no atom names an element switched off, also
        an atom grounded later.  Such an element satisfies every
        subsumption and touches no edge of the others, so the models are
        those of a grounding over the elements on alone."""
        self.off = frozenset(self.universe).difference(on)
        for x in self.universe:
            e = self.var(("E", x))
            self.clauses.append((-e if x in self.off else e,))
        for key, vid in self.var_ids.items() if self.off else ():
            if not self.off.isdisjoint(key[2:4]):
                self.clauses.append((-vid,))

    def decode(self, sig: DomainSignature) -> DomainInterpretation:
        """The model over the elements on, each under the query's name for
        it."""
        assign, var_ids = self.assign, self.var_ids
        back = {x: q for q, x in self.names.items()}
        on = [(x, back.get(x, x)) for x in self.universe if x not in self.off]
        concept_ext: dict[str, frozenset[str]] = {}
        abs_ext: dict[str, frozenset[tuple[str, str]]] = {}
        conc_ext: dict[str, frozenset[tuple[str, int]]] = {}
        for name in sig.atomic_concepts:
            concept_ext[name] = frozenset(
                q for x, q in on if assign[var_ids.get(("C", name, x), 0)]
            )
        for role in sig.abstract_roles:
            abs_ext[role] = frozenset(
                (p, q)
                for x, p in on
                for y, q in on
                if assign[var_ids.get(("R", role, x, y), 0)]
            )
        for role in sig.concrete_roles:
            conc_ext[role] = frozenset(
                (q, v)
                for x, q in on
                for v in self.values
                if assign[var_ids.get(("T", role, x, v), 0)]
            )
        return DomainInterpretation(
            universe=frozenset(q for _, q in on),
            concept_ext=concept_ext,
            abs_role_ext=abs_ext,
            conc_role_ext=conc_ext,
            nominal_map={q: q for _, q in on if not q.startswith(_ANON_PREFIX)},
        )

    def settle(self) -> bool:
        """Index the clauses added since the last call and run unit
        propagation to its fixpoint; False on a conflict.  The state must
        be a level-0 fixpoint, and the new fixpoint does not depend on the
        order in which clauses arrive, so it equals that of propagating
        every clause at once."""
        clauses, occ, nfalse = self.clauses, self.occ, self.nfalse
        assign = self.assign
        assign.extend([None] * (len(self.var_ids) + 1 - len(assign)))
        pending: list[int] = []
        for ci in range(len(nfalse), len(clauses)):
            c = clauses[ci]
            nf = 0
            free = 0
            for lit in c:
                occ.setdefault(lit, []).append(ci)
                val = assign[abs(lit)]
                if val is None:
                    free = lit
                elif val != (lit > 0):
                    nf += 1
            nfalse.append(nf)
            if nf == len(c):
                return False
            # one literal is not false: a unit when it is unassigned
            if nf == len(c) - 1 and free:
                pending.append(free)
        return self.propagate(pending)

    def propagate(self, pending: list[int]) -> bool:
        """Assign the pending literals and every literal they imply; False
        on a conflict.  Every assigned literal's counters are updated in
        full, so that `unset_to` can undo them.  A clause left with one
        literal that is not false is a unit when that literal is
        unassigned, and satisfied when it is true."""
        clauses, occ, nfalse = self.clauses, self.occ, self.nfalse
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
            conflict = False
            for ci in occ.get(-lit, ()):
                nfalse[ci] += 1
                c = clauses[ci]
                left = len(c) - nfalse[ci]
                if left == 0:
                    conflict = True
                elif left == 1:
                    for l2 in c:
                        val = assign[abs(l2)]
                        if val is None:
                            pending.append(l2)
                            break
                        if val == (l2 > 0):
                            break
            if conflict:
                return False
        return True

    def unset_to(self, mark: int) -> None:
        """Unassign the trail's literals beyond its first `mark`."""
        occ, nfalse = self.occ, self.nfalse
        assign, trail = self.assign, self.trail
        while len(trail) > mark:
            lit = trail.pop()
            assign[abs(lit)] = None
            for ci in occ.get(-lit, ()):
                nfalse[ci] -= 1

    def mark(self) -> tuple:
        """What `restore` needs to bring back this state, which must be a
        settled level-0 fixpoint: the lengths of the variable table and the
        trail, the value pool, and a copy of the per-clause false counts,
        which have one entry per clause."""
        return len(self.var_ids), len(self.trail), self.values, self.nfalse.copy()

    def restore(self, mark: tuple) -> None:
        """Take back every variable, clause and assignment made since the
        mark, which stays valid.  The saved counts are copied back whole:
        undoing them literal by literal through `unset_to` costs more."""
        nvars, ntrail, values, nfalse = mark
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
        self.values, self.nfalse = values, nfalse.copy()


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
    - The slot (`_grounded_background`): `key`, the universe and pool of
      K's one grounding, which serves every universe no longer than that
      one; `grounder`, the background axioms grounded over them (None if
      they conflict), with the last query's renaming of its elements to
      the grounding's (`_Grounder.names`); `base`, its mark with K
      settled and no element switched; `switched`, the number of
      elements switched on, a prefix of the universe, and the mark of
      that state settled (None if it conflicts).
    - `refutations`: (premises, conclusion formula, anonymous elements)
      -> a countermodel, or None when there is none.
    - `liftings`: variables -> `lifting.SpecLifting.direct`'s lifting
      of them.
    - `pools`: (lifting, constants) -> `kernel.candidate_pool`'s atom
      tuple.  A lifting is kept per variables, so it keys by identity.
    - `kernels`: (delta as a set, pool) -> `kernel.informative_kernel`'s
      answer.
    - `types`: a detached individual's premises, renamed -> whether a
      one-element type satisfies them (`has_type`).
    - `splits`: (assertion, lifting, variables) -> the split of that
      assertion's premises over states of those variables, with its
      answers (`assertions._Split`)."""

    def __init__(self, background: Iterable[DomainFormula]):
        self.reads_values = any(isinstance(n, ForallData) for n in nodes_of(background))
        self.key: Optional[tuple] = None
        self.grounder: Optional[_Grounder] = None
        self.base: Optional[tuple] = None
        self.switched: Optional[tuple] = None
        self.refutations: dict[tuple, Optional[DomainInterpretation]] = {}
        self.liftings: dict[tuple, object] = {}
        self.pools: dict[tuple, tuple[DomainFormula, ...]] = {}
        self.kernels: dict[tuple, tuple[DomainFormula, ...]] = {}
        self.types: dict[tuple, bool] = {}
        self.splits: dict[tuple, object] = {}


def _query_symbols(
    kb: KnowledgeBase, query: Iterable[DomainFormula]
) -> tuple[DomainSignature, frozenset[int]]:
    """The signature and the value pool, before its fresh value, of a
    query over kb's background axioms and the query's formulas.  The
    query axioms add no symbol or constant beyond the query's own."""
    query = tuple(query)
    sig, ints = kb.symbols, kb.constants
    return (
        sig.union(signature_of(query)),
        ints | constants_of_formulas(query) | {0},
    )


def _query_bounds(
    kb: KnowledgeBase, nominals: frozenset[str], ints: frozenset[int], anonymous: int
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The universe (K's individuals, the other named individuals, each
    sorted, then the anonymous ones) and the value pool (the query's
    values plus one fresh value)."""
    own = kb.symbols.nominals
    anon = tuple(f"{_ANON_PREFIX}{i}" for i in range(anonymous))
    universe = tuple(sorted(own & nominals)) + tuple(sorted(nominals - own)) + anon
    fresh = max(abs(v) for v in ints) + 1
    return universe, tuple(sorted(ints | {fresh}))


def _grounded_background(
    kb: KnowledgeBase, universe: tuple[str, ...], values: tuple[int, ...]
) -> Optional[tuple[_Grounder, tuple]]:
    """kb's background axioms grounded, with as many elements switched on
    as the universe has and settled at level 0, and the mark of that
    state, from kb's slot; None if they conflict.

    The slot's grounding serves every universe no longer than its own:
    the query's elements stand for the slot's elements at their
    positions, and the elements beyond them are off.  Universes list K's
    individuals first, so these stand for themselves, and K names none
    of the others: the background grounds to the same clauses, up to
    that renaming, over the slot's first elements as over the universe
    alone.  The walk over the slot's elements numbers the atoms about
    those on in the order a grounding over them alone would: an atom
    below a quantifier does not depend on the element it is reached
    from, and the first element, which is on, reaches it first.  The
    search decides the lowest variable first and never an atom about an
    element switched off, so it finds that grounding's model.  On a miss
    K is grounded again over the universe.  A background without a
    ∀-data restriction grounds to the same clauses over every pool, so
    the slot's pool is then None."""
    r = kb.reasoner
    pool = values if r.reads_values else None
    if r.key is None or r.key[1] != pool or len(universe) > len(r.key[0]):
        # K's last grounding goes first, so that two never coexist
        r.key = r.grounder = r.base = r.switched = None
        g = _Grounder(universe, values)
        for f in kb.background:
            g.assert_formula(f)
        r.key = (universe, pool)
        if g.settle():
            r.grounder, r.base = g, g.mark()
    g = r.grounder
    if g is None:
        return None
    if r.switched is None or r.switched[0] != len(universe):
        g.restore(r.base)
        g.switch(g.universe[: len(universe)])
        r.switched = (len(universe), g.mark() if g.settle() else None)
    mark = r.switched[1]
    return None if mark is None else (g, mark)


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

    The background axioms come grounded and settled in kb's slot, with
    as many elements switched on as the query's universe has.  Only the
    query's part is grounded here, onto the slot's grounder over the
    query's own value pool, with each element of the universe renamed to
    the slot's element at its position (`_Grounder.names`), and numbered
    after them as a grounding of the whole would number it; the model is
    decoded under the query's names.  Restoring the slot's mark
    afterwards leaves the slot as it was, also on a budget hit.  The
    formulas are grounded in the order of their printed forms, so the
    model does not depend on the order they come in."""
    asserted = tuple(sorted(formulas, key=str))
    negated = tuple(negated)
    sig, ints = _query_symbols(kb, asserted + negated)
    universe, values = _query_bounds(kb, sig.nominals, ints, fresh_witnesses)
    slot = _grounded_background(kb, universe, values)
    if slot is None:
        return None
    g, mark = slot
    try:
        g.values = values
        g.names = dict(zip(universe, g.universe))
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


def restricted(
    kept: frozenset[DomainFormula],
    conclusion: Sequence[DomainFormula],
    detached: int,
    kb: KnowledgeBase,
) -> Optional[bool]:
    """What the restricted query tells of the full one: True when the full
    query is entailed; False when it is refuted unless a detached
    individual has no type (`has_type`); None when only the full query
    can tell.

    The full query's premises are `kept` and, for each of `detached`
    individuals D that neither K nor the conclusion names, premises
    about it alone: data triples t(d, n) and atomic concept assertions
    A(d).  Each kept premise is about one individual too (`_about_one`),
    so none of them constrains a member of D.  The restricted query asks
    `kept` over |D| more anonymous elements, so its universe has the
    size of the full query's.

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
      concepts.  What remains is checked against K, the kept premises,
      their query axioms and the negated conclusion (`_trims`).  Each
      member of D is then added as a detached element (no edges to
      other elements) of a type that satisfies K's subsumptions, its own
      premises and their query axioms (`has_type`).  With the restricted
      fresh value mapped to the full one, that interpretation is a
      countermodel over exactly the full query's universe and pool,
      which the full search would also find.
    - Otherwise the full query must be asked.

    With nothing detached the restricted query is the full one, and
    False is its answer."""
    fresh = DEFAULT_FRESH_WITNESSES + detached
    verdict = entails(kept, conclusion, kb, fresh_witnesses=fresh)
    if verdict.is_entailed or not detached:
        return verdict.is_entailed
    if isinstance(verdict, NotEntailed) and _trims(verdict, kept, detached, kb):
        return False
    return None


def _about_one(p: DomainFormula) -> Optional[str]:
    """The individual p is about alone, for a data triple or an atomic
    concept assertion; None for any other formula."""
    if isinstance(p, DataAssertion):
        return p.subject
    if isinstance(p, ConceptAssertion) and isinstance(p.concept, Atomic):
        return p.individual
    return None


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


def has_type(own: Iterable[DomainFormula], kb: KnowledgeBase) -> bool:
    """Whether a detached individual with premises `own` has a type: one
    element that, with edges to itself alone, satisfies K's subsumptions,
    `own` and their query axioms.  Kept per `own` up to renaming on kb's
    reasoner."""
    key = frozenset(_renamed(p, _TYPE_ELEMENT) for p in own)
    types = kb.reasoner.types
    if key not in types:
        types[key] = _has_type(tuple(key), kb)
    return types[key]


def _has_type(formulas: tuple[DomainFormula, ...], kb: KnowledgeBase) -> bool:
    """Whether one element with edges to itself alone can satisfy K's
    subsumptions, the formulas about it and their query axioms."""
    formulas = tuple(f for f in kb.background if isinstance(f, Subsumption)) + formulas
    _, values = _query_bounds(kb, frozenset(), constants_of_formulas(formulas) | {0}, 0)
    g = _Grounder((_TYPE_ELEMENT,), values)
    for f in formulas + kb.query_axioms(formulas):
        g.assert_formula(f)
    g.switch(g.universe)
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

    An atom about one individual b (`_about_one`) that neither K nor the
    premises name is asked about `_LONE` instead.  b occurs in no other
    formula of the query, and the query axioms read only the premises,
    so swapping b and `_LONE` maps the models of one query onto those of
    the other, at any bound.  The verdict is the same, a itself is what
    is returned and no countermodel leaves this function; atoms about
    different such individuals (the stubs of parameters, on kernels)
    share one memo entry.  K's grounding needs no such renaming: it
    serves every universe of one length (`_grounded_background`).

    A query for a is decided over the premises' universe and value pool,
    extended by a's individual and value.  A countermodel found for one
    atom is a model of kb and the premises over that query context, so
    it refutes every later atom over the same context that it falsifies
    (the backbone method of Janota, Lynce and Marques-Silva, AI Comm.
    2015).  Only the remaining atoms are searched.  An atom about one
    individual keys its context by its own fields: the individual, None
    when it is named, and the value, None when the pool holds it."""
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
        asked, context = _asked(a, kb, sig.nominals, ints)
        model = countermodels.get(context)
        if model is not None and _falsifies(model, asked):
            continue
        verdict = entails(prem, (asked,), kb)
        if verdict.is_entailed:
            out.append(a)
        elif isinstance(verdict, NotEntailed):
            countermodels[context] = verdict.countermodel
    return tuple(out)


# the individual that an atom about an individual nothing else names is
# asked about: no parsed identifier starts with "_", and `_trims` takes
# names with _ANON_PREFIX for anonymous elements
_LONE = "_lone"


def _asked(
    a: DomainFormula, kb: KnowledgeBase, nominals: frozenset[str], ints: frozenset[int]
) -> tuple[DomainFormula, tuple]:
    """The atom `entailed_atoms` asks for a, and a key of that query's
    context, given the nominals and values of K and the premises."""
    b = _about_one(a)
    if b is None:
        return a, _query_bounds(
            kb,
            nominals | signature_of((a,)).nominals,
            ints | constants_of_formulas((a,)),
            DEFAULT_FRESH_WITNESSES,
        )
    if b in nominals:
        b = None
    else:
        a, b = _renamed(a, _LONE), _LONE
    value = a.value if isinstance(a, DataAssertion) else None
    return a, (b, None if value in ints else value)


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
