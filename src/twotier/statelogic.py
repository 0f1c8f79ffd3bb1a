"""Quantifier-free state logic over program variables: the equality
fragment.

Terms are program variables and integer literals.  Formulas are
equalities between terms under negation and conjunction; disjunction,
disequality and the constants true and false are parse-time
abbreviations.  Evaluation follows the standard recursive semantics.
Implication in this fragment is decided exactly over a small domain
(the small-model property: Pnueli, Rodeh, Shtrichman and Siegel, Inf. &
Comp. 2002) by a depth-first search for a state that satisfies the
premise but not the conclusion.  The search cuts every partial state
under which that is already false, and tries only one of the values
that neither formula mentions.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import EmptyState, UnboundVariable


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Lit:
    value: int

    def __str__(self) -> str:
        return str(self.value)


Term = Var | Lit


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class Eq:
    lhs: Term
    rhs: Term

    def __str__(self) -> str:
        if self.lhs == Lit(0) and self.rhs == Lit(0):
            return "true"
        return f"{self.lhs} == {self.rhs}"


@dataclass(frozen=True)
class Not:
    arg: "StateFormula"

    def __str__(self) -> str:
        inner = self.arg
        # v != n renders with the dedicated operator
        if isinstance(inner, Eq):
            return f"{inner.lhs} != {inner.rhs}"
        return f"!({inner})"


@dataclass(frozen=True)
class And:
    lhs: "StateFormula"
    rhs: "StateFormula"

    def __str__(self) -> str:
        # no side needs parentheses: a negation renders as != or !(...)
        return f"{self.lhs} && {self.rhs}"


StateFormula = Eq | Not | And

TRUE: StateFormula = Eq(Lit(0), Lit(0))


def neq(lhs: Term, rhs: Term) -> StateFormula:
    return Not(Eq(lhs, rhs))


def disj(lhs: StateFormula, rhs: StateFormula) -> StateFormula:
    return Not(And(Not(lhs), Not(rhs)))


def conj(parts: Iterable[StateFormula]) -> StateFormula:
    """Left-associated conjunction; the empty conjunction is true."""
    out: Optional[StateFormula] = None
    for p in parts:
        out = p if out is None else And(out, p)
    return TRUE if out is None else out


def conjuncts(phi: StateFormula) -> Iterator[StateFormula]:
    """Top-level conjuncts in left-to-right order."""
    if isinstance(phi, And):
        yield from conjuncts(phi.lhs)
        yield from conjuncts(phi.rhs)
    else:
        yield phi


def strip_true(phi: StateFormula) -> StateFormula:
    """Drop trivially-true conjuncts (the literal 0 == 0) and associate
    every conjunction to the left, under negations too, as the parser
    does.  Used by rule-shape checks so that bookkeeping conjuncts
    introduced by inverting empty tiers do not block axiom rules, and so
    that a tree read from a proof file replays: the checker rebuilds
    `And(state, delift(...))` right-nested, while a stored premise is
    parsed left-associated."""
    if isinstance(phi, Not):
        return Not(strip_true(phi.arg))
    if isinstance(phi, And):
        return conj(strip_true(c) for c in conjuncts(phi) if c != TRUE)
    return phi


def same_state(a: StateFormula, b: StateFormula) -> bool:
    """Equality up to trivially-true conjuncts and the nesting of
    conjunctions."""
    return a == b or strip_true(a) == strip_true(b)


def _nodes(x: StateFormula | Term, acc: list) -> list:
    """x and every formula and term nested in it, appended to acc."""
    acc.append(x)
    if isinstance(x, (Eq, And)):
        _nodes(x.lhs, acc)
        _nodes(x.rhs, acc)
    elif isinstance(x, Not):
        _nodes(x.arg, acc)
    return acc


def variables_of(phi: StateFormula | Term) -> frozenset[str]:
    return frozenset(n.name for n in _nodes(phi, []) if isinstance(n, Var))


def constants_of(phi: StateFormula | Term) -> frozenset[int]:
    return frozenset(n.value for n in _nodes(phi, []) if isinstance(n, Lit))


# ---------------------------------------------------------------------------
# Program states


class State(Mapping[str, int]):
    """Immutable, hashable finite map from variable names to integers."""

    __slots__ = ("_items", "_dict", "_hash")

    def __init__(self, bindings: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        d = dict(bindings)
        self._dict = d
        self._items = tuple(sorted(d.items()))
        self._hash = hash(self._items)

    def __getitem__(self, key: str) -> int:
        return self._dict[key]

    def __iter__(self):
        return iter(self._dict)

    def __len__(self) -> int:
        return len(self._dict)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if isinstance(other, State):
            return self._items == other._items
        if isinstance(other, Mapping):
            return self._dict == dict(other)
        return NotImplemented

    def set(self, var: str, value: int) -> "State":
        d = dict(self._dict)
        d[var] = value
        return State(d)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self._items)
        return f"State({inner})"


ProgramState = Mapping[str, int]


# ---------------------------------------------------------------------------
# Semantics


def eval_term(t: Term, sigma: ProgramState) -> int:
    if isinstance(t, Lit):
        return t.value
    if isinstance(t, Var):
        try:
            return sigma[t.name]
        except KeyError:
            raise UnboundVariable(t.name) from None
    raise TypeError(f"not a term: {t!r}")


def holds(phi: StateFormula, sigma: ProgramState) -> bool:
    if isinstance(phi, Eq):
        return eval_term(phi.lhs, sigma) == eval_term(phi.rhs, sigma)
    if isinstance(phi, Not):
        return not holds(phi.arg, sigma)
    if isinstance(phi, And):
        return holds(phi.lhs, sigma) and holds(phi.rhs, sigma)
    raise TypeError(f"not a state formula: {phi!r}")


def compile_term(t: Term, names: Sequence[str]) -> Callable[[tuple], int]:
    """eval_term over tuples of values in `names` order, as a closure."""
    if isinstance(t, Lit):
        return lambda values, value=t.value: value
    if t.name not in names:
        raise UnboundVariable(t.name)
    return itemgetter(names.index(t.name))


def compile_formula(phi: StateFormula, names: Sequence[str]) -> Callable[[tuple], bool]:
    """holds(phi, ·) over tuples of values in `names` order, phi walked once
    into closures (Feeley & Lapalme, Computer Languages 1987)."""
    if isinstance(phi, Eq):
        lhs, rhs = compile_term(phi.lhs, names), compile_term(phi.rhs, names)
        return lambda values: lhs(values) == rhs(values)
    if isinstance(phi, Not):
        arg = compile_formula(phi.arg, names)
        return lambda values: not arg(values)
    if isinstance(phi, And):
        lhs, rhs = compile_formula(phi.lhs, names), compile_formula(phi.rhs, names)
        return lambda values: lhs(values) and rhs(values)
    raise TypeError(f"not a state formula: {phi!r}")


def substitute(phi: StateFormula, v: str, e: Term) -> StateFormula:
    def sub_term(t: Term) -> Term:
        return e if isinstance(t, Var) and t.name == v else t

    if isinstance(phi, Eq):
        return Eq(sub_term(phi.lhs), sub_term(phi.rhs))
    if isinstance(phi, Not):
        return Not(substitute(phi.arg, v, e))
    if isinstance(phi, And):
        return And(substitute(phi.lhs, v, e), substitute(phi.rhs, v, e))
    raise TypeError(f"not a state formula: {phi!r}")


def characteristic_formula(sigma: ProgramState) -> StateFormula:
    """Conjunction of v == sigma(v) in lexicographic variable order."""
    if not sigma:
        raise EmptyState("characteristic formula of the empty state")
    return conj(Eq(Var(v), Lit(sigma[v])) for v in sorted(sigma))


def check_domain(
    phi1: StateFormula, phi2: StateFormula
) -> tuple[tuple[str, ...], frozenset[int]]:
    """Variables and the small-model value domain for implication checks:
    constants of either formula, 0, and one fresh value per distinct
    variable."""
    nodes = _nodes(phi1, _nodes(phi2, []))
    variables = tuple(sorted({n.name for n in nodes if isinstance(n, Var)}))
    values = {n.value for n in nodes if isinstance(n, Lit)}
    values.add(0)
    fresh = max((abs(v) for v in values), default=0) + 1
    for _ in range(max(1, len(variables))):
        values.add(fresh)
        fresh += 1
    return variables, frozenset(values)


def state_implies(phi1: StateFormula, phi2: StateFormula) -> bool:
    """Implication over the small-model domain of the equality fragment,
    decided by the pruned search of `state_implies_counterexample`."""
    return state_implies_counterexample(phi1, phi2) is None


def _partial_holds(phi: StateFormula, partial: dict[str, int]) -> Optional[bool]:
    """phi under a partial state: True or False when every completion
    agrees, None when it depends on an unassigned variable."""
    kind = type(phi)
    if kind is Eq:
        lhs, rhs = phi.lhs, phi.rhs
        left = lhs.value if type(lhs) is Lit else partial.get(lhs.name)
        right = rhs.value if type(rhs) is Lit else partial.get(rhs.name)
        if left is None or right is None:
            return True if lhs == rhs else None
        return left == right
    if kind is Not:
        arg = _partial_holds(phi.arg, partial)
        return None if arg is None else not arg
    if kind is And:
        left = _partial_holds(phi.lhs, partial)
        if left is False:
            return False
        right = _partial_holds(phi.rhs, partial)
        if right is False:
            return False
        return True if left and right else None
    raise TypeError(f"not a state formula: {phi!r}")


def state_implies_counterexample(
    phi1: StateFormula, phi2: StateFormula
) -> Optional[State]:
    """The first state, in itertools.product order over the check
    domain's sorted values, that satisfies phi1 but not phi2; None if
    there is none.

    The search assigns the variables in sorted order, each value in
    ascending order, and cuts a branch as soon as phi1 && !phi2 is false
    under the partial state.  Values that occur in neither formula are
    interchangeable: swapping two of them maps counter-states to
    counter-states.  So a variable tries only the smallest of them that
    no earlier variable holds; the first counter-state that gives it a
    larger unused one would have a smaller swapped twin."""
    variables, values = check_domain(phi1, phi2)
    ordered = sorted(values)
    goal = And(phi1, Not(phi2))
    interchangeable = values - constants_of(goal)
    partial: dict[str, int] = {}

    def search(i: int) -> bool:
        # goal is not false under partial; with every variable assigned,
        # it is true
        if i == len(variables):
            return True
        name = variables[i]
        held = set(partial.values())
        fresh_tried = False
        for value in ordered:
            if value in interchangeable and value not in held:
                if fresh_tried:
                    continue
                fresh_tried = True
            partial[name] = value
            if _partial_holds(goal, partial) is not False and search(i + 1):
                return True
        del partial[name]
        return False

    if _partial_holds(goal, partial) is False or not search(0):
        return None
    return State(partial)
