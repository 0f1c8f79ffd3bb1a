"""AST, contracts, and relational interpreter for the imperative
language: integer globals, single-parameter procedures with two-tier
contracts, assignment, sequencing, branching, loops, and calls.

The interpreter is relational.  Calls are interpreted purely through the
callee's contract: from a state satisfying the precondition the call may
reach any state over the bounded variable domain satisfying the
postcondition; from a state violating the precondition the relation is
empty (flagged for diagnostics).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .errors import UnknownProcedure
from .statelogic import (
    Lit,
    ProgramState,
    State,
    Term,
    constants_of,
    eval_term,
    substitute,
)
from .domainlogic import KnowledgeBase
from .lifting import SpecLifting
from .assertions import TwoTierAssertion, assertion, assertion_holds

Expr = Term  # expr ::= n | v  (literals and variables; no operators)


# ---------------------------------------------------------------------------
# Statements


@dataclass(frozen=True)
class Assign:
    var: str
    expr: Expr


@dataclass(frozen=True)
class Seq:
    first: "Statement"
    second: "Statement"


@dataclass(frozen=True)
class If:
    cond: Expr
    then: "Statement"
    orelse: "Statement"


@dataclass(frozen=True)
class While:
    cond: Expr
    body: "Statement"


@dataclass(frozen=True)
class Call:
    proc: str
    arg: Expr


@dataclass(frozen=True)
class Skip:
    pass


Statement = Assign | Seq | If | While | Call | Skip


def statements_of(s: Statement) -> list[Statement]:
    """Flatten a left-associated sequence into its statement list."""
    if isinstance(s, Seq):
        return statements_of(s.first) + statements_of(s.second)
    return [s]


def substatements(s: Statement) -> Iterator[Statement]:
    """Every statement nested in s, sequences flattened, in pre-order."""
    for st in statements_of(s):
        yield st
        if isinstance(st, If):
            yield from substatements(st.then)
            yield from substatements(st.orelse)
        elif isinstance(st, While):
            yield from substatements(st.body)


def sequence(stmts: Iterable[Statement]) -> Statement:
    out: Optional[Statement] = None
    for s in stmts:
        out = s if out is None else Seq(out, s)
    return Skip() if out is None else out


# ---------------------------------------------------------------------------
# Procedures and programs


@dataclass(frozen=True)
class Contract:
    pre: TwoTierAssertion
    post: TwoTierAssertion


@dataclass(frozen=True)
class Procedure:
    name: str
    parameter: str
    contract: Contract
    body: Statement


@dataclass(frozen=True)
class Program:
    globals: tuple[tuple[str, Expr], ...]
    procedures: tuple[Procedure, ...]

    def procedure(self, name: str) -> Procedure:
        for p in self.procedures:
            if p.name == name:
                return p
        raise UnknownProcedure(name)

    @property
    def variables(self) -> tuple[str, ...]:
        """All declared variables: globals then procedure parameters."""
        names = [v for v, _ in self.globals]
        for p in self.procedures:
            if p.parameter not in names:
                names.append(p.parameter)
        return tuple(names)

    def constants(self) -> frozenset[int]:
        exprs = [e for _, e in self.globals]
        acc: set[int] = set()
        for p in self.procedures:
            for s in substatements(p.body):
                if isinstance(s, Assign):
                    exprs.append(s.expr)
                elif isinstance(s, (If, While)):
                    exprs.append(s.cond)
                elif isinstance(s, Call):
                    exprs.append(s.arg)
            acc |= constants_of(p.contract.pre.state)
            acc |= constants_of(p.contract.post.state)
        return frozenset(acc | {e.value for e in exprs if isinstance(e, Lit)})


# ---------------------------------------------------------------------------
# Contract instantiation


def contract_pre(program: Program, proc: str, arg: Expr) -> TwoTierAssertion:
    p = program.procedure(proc)
    return assertion(
        p.contract.pre.domain, substitute(p.contract.pre.state, p.parameter, arg)
    )


def contract_post(program: Program, proc: str, arg: Expr) -> TwoTierAssertion:
    p = program.procedure(proc)
    return assertion(
        p.contract.post.domain, substitute(p.contract.post.state, p.parameter, arg)
    )


# ---------------------------------------------------------------------------
# Interpreter


@dataclass
class RunContext:
    program: Program
    kb: KnowledgeBase
    lifting: SpecLifting
    var_domain: tuple[int, ...]
    fuel: int = 1000
    _havoc_cache: dict = field(default_factory=dict)
    _states: Optional[tuple[State, ...]] = None
    _image_cache: dict = field(default_factory=dict)

    def all_states(self) -> tuple[State, ...]:
        """Every state over the program's variables and the run's domain,
        built on first use."""
        if self._states is None:
            names = self.program.variables
            self._states = tuple(
                State(zip(names, combo))
                for combo in itertools.product(
                    sorted(self.var_domain), repeat=len(names)
                )
            )
        return self._states

    def post_states(self, proc: str, arg_value: int) -> frozenset[State]:
        key = (proc, arg_value)
        cached = self._havoc_cache.get(key)
        if cached is None:
            post = contract_post(self.program, proc, Lit(arg_value))
            cached = frozenset(
                s
                for s in self.all_states()
                if assertion_holds(s, post, self.kb, self.lifting)
            )
            self._havoc_cache[key] = cached
        return cached

    def image(self, s: Statement, states: frozenset[State]) -> InterpOutcome:
        """The outcomes of s from every state of a set of more than one,
        computed once per (s, states): such a set is a call's havoc, or
        an image of one, and recurs for every state the call is run from."""
        key = (s, states)
        cached = self._image_cache.get(key)
        if cached is None:
            out: set[State] = set()
            pre_v = fuel_x = False
            for sigma in states:
                o = interpret(s, sigma, self)
                out |= o.states
                pre_v = pre_v or o.pre_violated
                fuel_x = fuel_x or o.fuel_exhausted
            cached = InterpOutcome(frozenset(out), pre_v, fuel_x)
            self._image_cache[key] = cached
        return cached


@dataclass(frozen=True)
class InterpOutcome:
    states: frozenset[State]
    pre_violated: bool = False
    fuel_exhausted: bool = False


def interpret(s: Statement, sigma: ProgramState, ctx: RunContext) -> InterpOutcome:
    """The outcomes of s from sigma.  Only a call gives one state more
    than one outcome, and from every state that meets its pre it gives
    the same set (`RunContext.post_states`).  So a sequence runs its rest
    once per distinct intermediate set of more than one state
    (`RunContext.image`) and reuses that image whenever the set recurs.
    The outcomes depend on nothing but the statement, the state and the
    run context, so the reuse is exact.  A sequence whose first part
    has one outcome is not memoized."""
    sigma = sigma if isinstance(sigma, State) else State(sigma)
    if isinstance(s, Skip):
        return InterpOutcome(frozenset({sigma}))
    if isinstance(s, Assign):
        return InterpOutcome(frozenset({sigma.set(s.var, eval_term(s.expr, sigma))}))
    if isinstance(s, Seq):
        first = interpret(s.first, sigma, ctx)
        if not first.states:
            return first
        if len(first.states) == 1:
            (mid,) = first.states
            rest = interpret(s.second, mid, ctx)
        else:
            rest = ctx.image(s.second, first.states)
        if not (first.pre_violated or first.fuel_exhausted):
            return rest
        return InterpOutcome(
            rest.states,
            first.pre_violated or rest.pre_violated,
            first.fuel_exhausted or rest.fuel_exhausted,
        )
    if isinstance(s, If):
        branch = s.then if eval_term(s.cond, sigma) != 0 else s.orelse
        return interpret(branch, sigma, ctx)
    if isinstance(s, While):
        results: set[State] = set()
        visited: set[State] = {sigma}
        frontier: set[State] = {sigma}
        pre_v = False
        steps = 0
        while frontier:
            steps += 1
            if steps > ctx.fuel:
                return InterpOutcome(frozenset(results), pre_v, True)
            nxt: set[State] = set()
            for st in frontier:
                if eval_term(s.cond, st) == 0:
                    results.add(st)
                    continue
                out = interpret(s.body, st, ctx)
                pre_v = pre_v or out.pre_violated
                if out.fuel_exhausted:
                    return InterpOutcome(frozenset(results), pre_v, True)
                for st2 in out.states:
                    if st2 not in visited:
                        visited.add(st2)
                        nxt.add(st2)
            frontier = nxt
        return InterpOutcome(frozenset(results), pre_v, False)
    if isinstance(s, Call):
        n = eval_term(s.arg, sigma)
        pre = contract_pre(ctx.program, s.proc, Lit(n))
        if not assertion_holds(sigma, pre, ctx.kb, ctx.lifting):
            return InterpOutcome(frozenset(), pre_violated=True)
        return InterpOutcome(ctx.post_states(s.proc, n))
    raise TypeError(f"not a statement: {s!r}")
