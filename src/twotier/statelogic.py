"""Quantifier-free state logic over program variables: the equality
fragment.

Terms are program variables and integer literals.  Formulas are
equalities between terms under negation and conjunction; disjunction,
disequality and the constants true and false are parse-time
abbreviations.  A formula is evaluated by compiling it once into
closures over tuples of values (`compile_formula`).
Implication in this fragment is decided exactly over a small domain
(the small-model property: Pnueli, Rodeh, Shtrichman and Siegel, Inf. &
Comp. 2002) by a depth-first search for a state that satisfies the
premise but not the conclusion.  The search checks each top-level
conjunct of that goal, compiled once, as soon as its last variable is
assigned (backtracking with constraint checks: Dechter, Constraint
Processing, 2003, ch. 5), and tries only one of the values that neither
formula mentions.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import UnboundVariable


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


def same_state(a: StateFormula, b: StateFormula) -> bool:
    """Equality up to trivially-true conjuncts (the literal 0 == 0) and the
    nesting of conjunctions, under negations too.  Used by rule-shape
    checks so that bookkeeping conjuncts introduced by inverting empty
    tiers do not block axiom rules, and so that a tree read from a proof
    file replays: the checker rebuilds `And(state, delift(...))`
    right-nested, while a stored premise is parsed left-associated.  The
    two formulas' non-true top-level conjuncts are compared pair by pair,
    in place."""
    if a == b:
        return True
    left = [c for c in conjuncts(a) if c != TRUE]
    right = [c for c in conjuncts(b) if c != TRUE]
    return len(left) == len(right) and all(
        same_state(x.arg, y.arg) if type(x) is Not and type(y) is Not else x == y
        for x, y in zip(left, right)
    )


def _scan(x: StateFormula | Term, names: set[str], ints: set[int]) -> set[str]:
    """Add the variables of x to names and its integer literals to ints;
    return names."""
    kind = type(x)
    if kind is Var:
        names.add(x.name)
    elif kind is Lit:
        ints.add(x.value)
    elif kind is Not:
        _scan(x.arg, names, ints)
    else:
        _scan(x.lhs, names, ints)
        _scan(x.rhs, names, ints)
    return names


def constants_of(phi: StateFormula | Term) -> frozenset[int]:
    ints: set[int] = set()
    _scan(phi, set(), ints)
    return frozenset(ints)


# ---------------------------------------------------------------------------
# Semantics

ProgramState = Mapping[str, int]


def holds(phi: StateFormula, sigma: ProgramState) -> bool:
    """Whether sigma satisfies phi: `compile_formula` over sigma's
    variables, applied to sigma's values."""
    return compile_formula(phi, tuple(sigma))(tuple(sigma.values()))


def compile_term(t: Term, names: Sequence[str]) -> Callable[[tuple], int]:
    """The value of t over tuples of values in `names` order, as a closure;
    a variable outside `names` raises UnboundVariable."""
    if isinstance(t, Lit):
        return lambda values, value=t.value: value
    if t.name not in names:
        raise UnboundVariable(t.name)
    return itemgetter(names.index(t.name))


def compile_formula(phi: StateFormula, names: Sequence[str]) -> Callable[[tuple], bool]:
    """Whether phi holds, over tuples of values in `names` order, phi
    walked once into closures (Feeley & Lapalme, Computer Languages
    1987); a variable outside `names` raises UnboundVariable."""
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


def state_implies(phi1: StateFormula, phi2: StateFormula) -> bool:
    """Implication over the small-model domain of the equality fragment,
    decided by the pruned search of `state_implies_counterexample`."""
    return state_implies_counterexample(phi1, phi2) is None


def state_implies_counterexample(
    phi1: StateFormula, phi2: StateFormula
) -> Optional[dict[str, int]]:
    """The first state, in itertools.product order over the small-model
    domain's sorted values, that satisfies phi1 but not phi2; None if
    there is none.

    Each top-level conjunct of phi1 && !phi2 is compiled once and filed
    under the last of its variables in sorted order; a conjunct that
    names no variable is decided before the search.  The search assigns
    the variables in sorted order, each value in ascending order, and
    cuts a branch as soon as a conjunct filed under the variable just
    assigned is false.  Values that occur in neither formula are
    interchangeable: swapping two of them maps counter-states to
    counter-states.  So a variable tries only the smallest of them that
    no earlier variable holds; the first counter-state that gives it a
    larger unused one would have a smaller swapped twin."""
    ints: set[int] = set()
    goal = [*conjuncts(phi1), Not(phi2)]
    scanned = [_scan(c, set(), ints) for c in goal]
    variables = sorted(set().union(*scanned))
    # the small-model domain: the constants of either formula, 0 and one
    # fresh value per variable
    fresh = max(map(abs, ints | {0})) + 1
    ordered = sorted(ints | {0, *range(fresh, fresh + len(variables))})
    interchangeable = set(ordered) - ints
    # checks[i]: the conjuncts decided once the first i variables are set
    checks: list[list] = [[] for _ in range(len(variables) + 1)]
    for c, names in zip(goal, scanned):
        level = variables.index(max(names)) + 1 if names else 0
        checks[level].append(compile_formula(c, variables))
    assigned: list[int] = []

    def search(i: int) -> bool:
        # the conjuncts filed under the first i variables hold; with every
        # variable assigned, the goal holds
        if i == len(variables):
            return True
        tests = checks[i + 1]
        fresh_tried = False
        for value in ordered:
            if value in interchangeable and value not in assigned:
                if fresh_tried:
                    continue
                fresh_tried = True
            assigned.append(value)
            if all(t(assigned) for t in tests) and search(i + 1):
                return True
            assigned.pop()
        return False

    if not all(t(assigned) for t in checks[0]) or not search(0):
        return None
    return dict(zip(variables, assigned))
