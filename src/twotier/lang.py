"""AST, contracts, and relational interpreter for the imperative
language: integer globals, single-parameter procedures with two-tier
contracts, assignment, sequencing, branching, loops, and calls.

The interpreter is relational.  Calls are interpreted purely through the
callee's contract: from a state satisfying the precondition the call may
reach any state over the bounded variable domain satisfying the
postcondition; from a state violating the precondition the relation is
empty (flagged for diagnostics).  `interpret` runs a statement compiled
once per run into closures over tuples of values, in the program's
declaration order, not walked per state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import UnboundVariable, UnknownProcedure
from .statelogic import (
    Lit,
    Term,
    compile_term,
    constants_of,
    substitute,
)
from .domainlogic import KnowledgeBase
from .lifting import SpecLifting
from .assertions import TwoTierAssertion, assertion, compile_assertion

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

# breadth-first rounds a loop may take before its run is cut off as
# fuel-exhausted; read each time a loop runs
FUEL = 1000

Values = tuple[int, ...]  # a state's values in a fixed variable order
# what a compiled statement maps a state to: (states, pre violated, fuel exhausted)
Outcome = tuple[frozenset[Values], bool, bool]


@dataclass
class RunContext:
    program: Program
    kb: KnowledgeBase
    lifting: SpecLifting
    var_domain: tuple[int, ...]
    names: tuple[str, ...] = field(init=False)  # the variables, in declaration order
    _havoc_cache: dict = field(default_factory=dict)
    _compiled: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.names = self.program.variables

    def all_states(self) -> Iterator[Values]:
        """Every state over the program's variables and the run's domain,
        in `itertools.product` order, streamed rather than stored."""
        return itertools.product(sorted(self.var_domain), repeat=len(self.names))

    def post_states(self, proc: str, arg_value: int) -> frozenset[Values]:
        key = (proc, arg_value)
        cached = self._havoc_cache.get(key)
        if cached is None:
            post = contract_post(self.program, proc, Lit(arg_value))
            holds = compile_assertion(post, self.names, self.kb, self.lifting)
            cached = self._havoc_cache[key] = frozenset(filter(holds, self.all_states()))
        return cached


class InterpOutcome(NamedTuple):
    states: frozenset
    pre_violated: bool = False
    fuel_exhausted: bool = False


def interpret(s: Statement, sigma: Values, ctx: RunContext) -> InterpOutcome:
    """The outcomes of s from sigma, a tuple of values in `ctx.names` order.
    Per run, s is compiled once, keyed by identity, as a frozen statement
    hashes its whole tree."""
    entry = ctx._compiled.get(id(s))
    if entry is None:
        entry = ctx._compiled[id(s)] = (s, _compile(s, ctx))
    return InterpOutcome._make(entry[1](sigma))


def _end(st: Values) -> Outcome:
    return frozenset((st,)), False, False


def _compile(s: Statement, ctx: RunContext, then=_end):
    """s and then `then`, the compiled rest of the run, as one closure over
    states in `ctx.names` order (Feeley & Lapalme, Computer Languages 1987)."""
    names = ctx.names
    if isinstance(s, Skip):
        return then
    if isinstance(s, Assign):
        if s.var not in names:
            raise UnboundVariable(s.var)
        i, value = names.index(s.var), compile_term(s.expr, names)
        return lambda st: then(st[:i] + (value(st),) + st[i + 1 :])
    if isinstance(s, If):
        cond = compile_term(s.cond, names)
        yes, no = _compile(s.then, ctx, then), _compile(s.orelse, ctx, then)
        return lambda st: yes(st) if cond(st) != 0 else no(st)
    if isinstance(s, Seq):
        return _compile(s.first, ctx, _compile(s.second, ctx, then))
    rest = _from_each(then)
    if isinstance(s, While):
        cond, body = compile_term(s.cond, names), _compile(s.body, ctx)

        # breadth-first rounds from st: a state seen before ends its path,
        # and a run still going after FUEL rounds is cut off
        def loop(st: Values) -> Outcome:
            exits, visited, frontier = set(), {st}, {st}
            pre_v = fuel_x = False
            for _ in range(FUEL):
                nxt: set[Values] = set()
                for st in frontier:
                    if cond(st) == 0:
                        exits.add(st)
                        continue
                    out, p, fuel_x = body(st)
                    pre_v = pre_v or p
                    if fuel_x:
                        break
                    nxt |= out - visited
                visited |= nxt
                frontier = nxt
                if fuel_x or not frontier:
                    break
            else:
                fuel_x = True
            ends, p, f = rest(frozenset(exits))
            return ends, pre_v or p, fuel_x or f

        return loop
    if isinstance(s, Call):
        arg, pres = compile_term(s.arg, names), {}

        # the rest of the run from each state of the callee's post
        def call(st: Values) -> Outcome:
            n = arg(st)
            if n not in pres:
                pre = contract_pre(ctx.program, s.proc, Lit(n))
                pres[n] = compile_assertion(pre, names, ctx.kb, ctx.lifting)
            if not pres[n](st):
                return frozenset(), True, False
            return rest(ctx.post_states(s.proc, n))

        return call
    raise TypeError(f"not a statement: {s!r}")


def _from_each(then):
    """`then` from each state of a set: a call ends in the same set from
    every state that meets its pre, so a set's outcomes are kept per set."""
    images: dict[frozenset[Values], Outcome] = {}

    def run(states: frozenset[Values]) -> Outcome:
        if len(states) == 1:
            (st,) = states
            return then(st)
        if states not in images:
            # the empty set's outcome leads, so an empty set has one too
            ends, pre_v, fuel_x = zip((frozenset(), False, False), *map(then, states))
            images[states] = frozenset().union(*ends), any(pre_v), any(fuel_x)
        return images[states]

    return run
