import pytest

from twotier import lang
from twotier.errors import UnknownProcedure
from twotier.lang import (
    Assign,
    Call,
    If,
    Program,
    RunContext,
    Seq,
    Skip,
    While,
    contract_post,
    contract_pre,
    interpret,
    sequence,
    statements_of,
)
from twotier.lifting import SpecLifting
from twotier.statelogic import Eq, Lit, Var, holds


def run_ctx(corpus, domain=(0, 2, 4)):
    program, kb = corpus
    lift = SpecLifting.direct(kb, program.variables)
    return RunContext(program, kb, lift, tuple(domain))


def test_sequence_and_flattening():
    a, b, c = Assign("x", Lit(1)), Assign("y", Lit(2)), Skip()
    s = sequence((a, b, c))
    assert s == Seq(Seq(a, b), c)
    assert statements_of(s) == [a, b, c]
    assert sequence(()) == Skip()


def test_program_shape(corrected):
    program = corrected[0]
    assert program.variables == ("bodyId", "wheels", "doors", "nrDoors", "nrWheels", "id")
    assert {0, 2, 4} <= program.constants()
    initial = dict(program.globals)
    assert initial["nrDoors"] == Lit(2) and initial["wheels"] == Lit(0)
    # a parameter is declared by its procedure, with no initial value
    assert "id" not in initial and program.procedure("assembly").parameter == "id"
    with pytest.raises(UnknownProcedure):
        program.procedure("nope")


def test_contract_instantiation(corrected):
    program = corrected[0]
    pre = contract_pre(program, "addWheels", Lit(4))
    assert str(pre.state) == "nrDoors == 2 && bodyId != 0 && 4 == 4"
    post = contract_post(program, "addWheels", Lit(4))
    assert str(post.domain[0]) == "HasFourWheels(c)"
    # the parameter does not occur in the postcondition state tier
    assert contract_post(program, "addWheels", Lit(2)) == post


def values(ctx, **sigma):
    """sigma as a tuple of values in `ctx.names` order, 0 for each
    variable it leaves out."""
    return tuple(sigma.get(v, 0) for v in ctx.names)


def globals_ctx(corpus, *variables):
    """A run of a program that declares only the given globals."""
    program = Program(tuple((v, Lit(0)) for v in variables), ())
    return run_ctx((program, corpus[1]))


def test_interpret_assign_seq(corrected):
    ctx = run_ctx(corrected)
    out = interpret(
        Seq(Assign("wheels", Lit(4)), Assign("doors", Var("nrDoors"))),
        values(ctx, nrDoors=2),
        ctx,
    )
    assert out.states == {values(ctx, wheels=4, doors=2, nrDoors=2)}
    assert not out.pre_violated and not out.fuel_exhausted


def test_interpret_if(corrected):
    ctx = globals_ctx(corrected, "b", "x")
    s = If(Var("b"), Assign("x", Lit(1)), Assign("x", Lit(2)))
    assert interpret(s, values(ctx, b=1), ctx).states == {values(ctx, b=1, x=1)}
    assert interpret(s, values(ctx, b=0), ctx).states == {values(ctx, b=0, x=2)}


def test_interpret_while_terminates(corrected):
    ctx = globals_ctx(corrected, "x")
    # while (x) x := 0  -- one iteration then exit
    s = While(Var("x"), Assign("x", Lit(0)))
    out = interpret(s, (4,), ctx)
    assert out.states == {(0,)}
    assert not out.fuel_exhausted


def test_interpret_while_fuel(corrected, monkeypatch):
    ctx = globals_ctx(corrected, "x")
    # while (x) x := 0  -- from x = 1 it takes a second round to see the
    # loop exit, which one round of fuel does not allow
    monkeypatch.setattr(lang, "FUEL", 1)
    s = While(Var("x"), Assign("x", Lit(0)))
    out = interpret(s, (1,), ctx)
    assert out.fuel_exhausted
    assert out.states == frozenset()


def test_interpret_call_havoc(corrected):
    ctx = run_ctx(corrected)
    sigma = values(ctx, bodyId=2, nrDoors=2)
    out = interpret(Call("addWheels", Lit(4)), sigma, ctx)
    assert out.states and not out.pre_violated
    # every post state satisfies the instantiated postcondition state tier
    post = contract_post(ctx.program, "addWheels", Lit(4))
    taus = [dict(zip(ctx.names, tau)) for tau in out.states]
    for tau in taus:
        assert holds(post.state, tau)
    # the domain tier HasFourWheels(c) pins wheels through the lifting
    assert {tau["wheels"] for tau in taus} == {4}
    # havoc: unconstrained variables may take any value in the domain
    assert len({tau["id"] for tau in taus}) > 1


def test_interpret_call_pre_violation(corrected):
    ctx = run_ctx(corrected)
    sigma = values(ctx, nrDoors=2)  # violates bodyId != 0
    out = interpret(Call("addWheels", Lit(4)), sigma, ctx)
    assert out.pre_violated
    assert out.states == frozenset()


def test_interpret_skip(corrected):
    ctx = globals_ctx(corrected, "x")
    assert interpret(Skip(), (3,), ctx).states == {(3,)}
