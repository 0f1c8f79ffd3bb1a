import pytest

from twotier.errors import UnknownProcedure
from twotier.lang import (
    Assign,
    Call,
    If,
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
from twotier.statelogic import Eq, Lit, State, Var, holds


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


def test_interpret_assign_seq(corrected):
    ctx = run_ctx(corrected)
    out = interpret(
        Seq(Assign("wheels", Lit(4)), Assign("doors", Var("nrDoors"))),
        State({"wheels": 0, "doors": 0, "nrDoors": 2}),
        ctx,
    )
    assert out.states == {State({"wheels": 4, "doors": 2, "nrDoors": 2})}
    assert not out.pre_violated and not out.fuel_exhausted


def test_interpret_if(corrected):
    ctx = run_ctx(corrected)
    s = If(Var("b"), Assign("x", Lit(1)), Assign("x", Lit(2)))
    assert interpret(s, State({"b": 1, "x": 0}), ctx).states == {
        State({"b": 1, "x": 1})
    }
    assert interpret(s, State({"b": 0, "x": 0}), ctx).states == {
        State({"b": 0, "x": 2})
    }


def test_interpret_while_terminates(corrected):
    ctx = run_ctx(corrected)
    # while (x) x := 0  -- one iteration then exit
    s = While(Var("x"), Assign("x", Lit(0)))
    out = interpret(s, State({"x": 4}), ctx)
    assert out.states == {State({"x": 0})}
    assert not out.fuel_exhausted


def test_interpret_while_fuel(corrected):
    ctx = run_ctx(corrected)
    ctx.fuel = 5
    # while (1) x := x  -- never exits; state space is finite so the
    # visited-set check stops it, but a self-loop burns fuel first
    s = While(Lit(1), Assign("x", Var("x")))
    out = interpret(s, State({"x": 0}), ctx)
    assert out.states == frozenset()


def test_interpret_call_havoc(corrected):
    ctx = run_ctx(corrected)
    sigma = State(
        {
            "bodyId": 2,
            "wheels": 0,
            "doors": 0,
            "nrDoors": 2,
            "nrWheels": 0,
            "id": 0,
        }
    )
    out = interpret(Call("addWheels", Lit(4)), sigma, ctx)
    assert out.states and not out.pre_violated
    # every post state satisfies the instantiated postcondition state tier
    post = contract_post(ctx.program, "addWheels", Lit(4))
    for tau in out.states:
        assert holds(post.state, tau)
    # the domain tier HasFourWheels(c) pins wheels through the lifting
    assert {tau["wheels"] for tau in out.states} == {4}
    # havoc: unconstrained variables may take any value in the domain
    assert len({tau["id"] for tau in out.states}) > 1


def test_interpret_call_pre_violation(corrected):
    ctx = run_ctx(corrected)
    sigma = State(
        {
            "bodyId": 0,  # violates bodyId != 0
            "wheels": 0,
            "doors": 0,
            "nrDoors": 2,
            "nrWheels": 0,
            "id": 0,
        }
    )
    out = interpret(Call("addWheels", Lit(4)), sigma, ctx)
    assert out.pre_violated
    assert out.states == frozenset()


def test_interpret_skip(corrected):
    ctx = run_ctx(corrected)
    sigma = State({"x": 3})
    assert interpret(Skip(), sigma, ctx).states == {sigma}
