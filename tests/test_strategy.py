import hashlib
import sys
from pathlib import Path

import pytest

from twotier import calculus, serialize
from twotier.assertions import assertion
from twotier.calculus import OPEN_RULE, Judgement, VerifCtx, check_proof
from twotier.domainlogic import Atomic, ConceptAssertion, Subsumption
from twotier.lang import Assign, If, Seq, Skip, While
from twotier.parsing import parse_kb, parse_program, parse_statement
from twotier.statelogic import And, Eq, Lit, TRUE, Var
from twotier.strategy import derive, verify_procedure, verify_program

from tests.conftest import corpus_text, load_corpus
from tests.oracles import neq, rules_used

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen_programs  # noqa: E402


def test_addwheels_closes_with_expected_spine(addwheels_ctx):
    trees = verify_program(addwheels_ctx)
    tree = trees["addWheels"]
    assert tree.closed
    assert tree.spine() == ("post-core", "post-inv", "var")


def test_corrected_assembly_closes(corrected_ctx):
    trees = verify_program(corrected_ctx)
    assert all(t.closed for t in trees.values())
    used = rules_used(trees["assembly"])
    assert {"seq", "contract", "cons", "var", "post-core", "post-inv"} <= used
    # every emitted tree replays through the checker
    for tree in trees.values():
        assert check_proof(corrected_ctx, tree).closed


def test_verbatim_assembly_stays_open_with_provenance(verbatim_ctx):
    trees = verify_program(verbatim_ctx)
    tree = trees["assembly"]
    assert not tree.closed
    notes = "\n".join(
        o.note
        for _, node in tree.walk()
        for o in node.obligations
        if o.status.value != "Proved"
    )
    # the diagnostic names the domain concept and the stub behind the
    # unmet door-count requirement
    assert "HasTwoDoors" in notes
    assert "doorsVar" in notes


def test_weakened_kb_leaves_addwheels_open():
    text = corpus_text("addwheels.kb")
    # drop the direction that lets a concrete wheel count witness the concept
    text = text.replace(
        "some wheels . some hasValue . 4 == HasFourWheels;",
        "HasFourWheels <= some wheels . some hasValue . 4;",
    )
    kb = parse_kb(text)
    program = parse_program(corpus_text("addwheels.prog"), kb)
    ctx = VerifCtx.build(program, kb)
    tree = verify_program(ctx)["addWheels"]
    assert not tree.closed


def test_branch_judgement_closes(corrected_ctx):
    stmt = If(
        Var("nrWheels"),
        Assign("wheels", Lit(4)),
        Assign("wheels", Lit(4)),
    )
    j = Judgement(
        assertion((), TRUE),
        stmt,
        assertion((), Eq(Var("wheels"), Lit(4))),
    )
    tree = derive(corrected_ctx, j)
    assert tree.closed
    assert tree.rule == "branch"
    assert check_proof(corrected_ctx, tree).closed


def test_skip_judgement_closes(corrected_ctx):
    a = assertion((), Eq(Var("wheels"), Lit(4)))
    tree = derive(corrected_ctx, Judgement(a, Skip(), a))
    assert tree.closed


def test_skip_with_domain_post_closes_by_abduction(corrected_ctx):
    HFW = ConceptAssertion(Atomic("HasFourWheels"), "c")
    j = Judgement(
        assertion((), Eq(Var("wheels"), Lit(4))),
        Skip(),
        assertion((HFW,), TRUE),
    )
    tree = derive(corrected_ctx, j)
    assert tree.closed
    assert check_proof(corrected_ctx, tree).closed


def test_seq_of_assignments_closes(corrected_ctx):
    stmt = Seq(Assign("wheels", Lit(4)), Assign("doors", Lit(2)))
    j = Judgement(
        assertion((), TRUE),
        stmt,
        assertion((), And(Eq(Var("wheels"), Lit(4)), Eq(Var("doors"), Lit(2)))),
    )
    tree = derive(corrected_ctx, j)
    assert tree.closed
    assert check_proof(corrected_ctx, tree).closed


def test_while_stays_open(corrected_ctx):
    stmt = While(Var("wheels"), Assign("wheels", Lit(0)))
    j = Judgement(
        assertion((), TRUE), stmt, assertion((), Eq(Var("wheels"), Lit(0)))
    )
    tree = derive(corrected_ctx, j)
    assert not tree.closed
    assert tree.rule == "open"
    assert tree.conclusion == j
    (ob,) = tree.obligations
    assert ob.note == "the calculus has no invariant rule, so loops are left Open"


def test_loop_after_an_assignment_leaves_only_the_loop_open(corrected_ctx):
    stmt = parse_statement(
        "wheels := 4; while (doors) do doors := 0; od", corrected_ctx.kb
    )
    j = Judgement(
        assertion((), TRUE), stmt, assertion((), Eq(Var("wheels"), Lit(4)))
    )
    tree = derive(corrected_ctx, j)
    assert tree.rule == "seq"
    left, right = tree.premises
    assert left.closed
    assert right.rule == "open"
    assert right.conclusion.stmt == stmt.second


def test_false_judgement_stays_open_with_counter_state(corrected_ctx):
    j = Judgement(
        assertion((), Eq(Var("nrWheels"), Lit(2))),
        Assign("wheels", Var("nrWheels")),
        assertion(
            (ConceptAssertion(Atomic("HasFourWheels"), "c"),),
            TRUE,
        ),
    )
    tree = derive(corrected_ctx, j)
    assert not tree.closed


def test_in_memory_tree_with_a_branch_passes_the_checker(corrected):
    # needed_pre nests the branch conjunctions under a negation
    # differently from the left-associated `mid` that a proof file's
    # parse gives; the tree passes both as built and after a round trip
    kb = corrected[1]
    host = corpus_text("assembly_corrected.prog")
    text = host[: host.index("\nproc assembly(")] + (
        "\nproc generated(id)\n"
        "  requires [ - | id != 0 && nrDoors != 0 ]\n"
        "  ensures [ - | doors == 2 && bodyId == 4 ]\n"
        "begin\n"
        "  doors := nrDoors;\n"
        "  bodyId := 4;\n"
        "  if (bodyId) then doors := 0; else doors := 2; fi\n"
        "  doors := 2;\n"
        "end;\n"
    )
    program = parse_program(text, kb)
    ctx = VerifCtx.build(program, kb)
    tree = verify_procedure(ctx, program.procedure("generated"))
    assert tree.closed
    assert check_proof(ctx, tree).closed
    back = serialize.tree_from_dict(serialize.tree_to_dict(tree), kb, program)
    assert check_proof(ctx, back).closed


@pytest.mark.parametrize(
    "post, body, mid",
    [
        (
            "[ HasFourWheels(c) | - ]",
            "wheels := n;\n  skip;",
            "[ - | true && wheels == 4 ]",
        ),
        (
            "[ - | wheels == 4 ]",
            "skip;\n  if (n) then wheels := n; skip; else wheels := 4; fi",
            "[ - | !(!(n != 0 && n == 4) && !(n == 0 && 4 == 4)) ]",
        ),
    ],
    ids=["skip-mid-by-abduction", "branch-ending-in-a-sequence"],
)
def test_needed_pre_gives_the_mid_that_closes_a_sequence(addwheels, post, body, mid):
    # the first case closes only because the skip's `mid` comes from
    # abduction of HasFourWheels(c); the second recurses through the
    # sequence inside the branch
    kb = addwheels[1]
    text = (
        f"var wheels = 0;\n\nproc p(n)\n  requires [ - | n == 4 ]\n"
        f"  ensures {post}\nbegin\n  {body}\nend;\n"
    )
    program = parse_program(text, kb)
    ctx = VerifCtx.build(program, kb)
    tree = verify_procedure(ctx, program.procedure("p"))
    assert tree.closed
    assert tree.spine() == ("seq",)
    assert str(dict(tree.args)["mid"]) == mid
    assert check_proof(ctx, tree).closed


def test_derive_matches_verify_procedure(corrected_ctx):
    proc = corrected_ctx.program.procedure("addWheels")
    direct = derive(
        corrected_ctx,
        Judgement(proc.contract.pre, proc.body, proc.contract.post),
    )
    via = verify_procedure(corrected_ctx, proc)
    assert direct.rule == via.rule
    assert direct.closed == via.closed


def test_the_strategy_applies_each_rule_once_per_node(monkeypatch):
    # premises come from the calculus alone: every node that is not an
    # open leaf is made by exactly one apply_rule, and none is re-applied
    calls = []
    apply_rule = calculus.apply_rule

    def counting(ctx, rule, target, **args):
        calls.append(rule)
        return apply_rule(ctx, rule, target, **args)

    # wherever a module binds it, as a `from ... import` does
    for module in list(sys.modules.values()):
        if getattr(module, "apply_rule", None) is apply_rule:
            monkeypatch.setattr(module, "apply_rule", counting)
    stems = ("addwheels", "assembly_corrected", "assembly_verbatim")
    inputs = [load_corpus(stem) for stem in stems]
    kb = parse_kb(corpus_text(f"{gen_programs.HOST_STEM}.kb"))
    inputs += [(parse_program(t, kb), kb) for t in gen_programs.programs(42, 60)]
    nodes = []
    for program, kb in inputs:
        for tree in verify_program(VerifCtx.build(program, kb)).values():
            nodes += [n.rule for _, n in tree.walk() if n.rule != OPEN_RULE]
    assert "branch" in nodes and "cons" in nodes
    assert sorted(calls) == sorted(nodes)


@pytest.mark.hashseed
def test_generated_trees_are_pinned():
    """The proof trees of 500 generated programs, byte for byte: a sha256
    over the proof file of each program, in order."""
    kb = parse_kb(corpus_text(f"{gen_programs.HOST_STEM}.kb"))
    digest = hashlib.sha256()
    closed = 0
    for text in gen_programs.programs(42, 500):
        program = parse_program(text, kb)
        trees = verify_program(VerifCtx.build(program, kb))
        digest.update(serialize.dumps_procedures(trees.items()).encode())
        closed += sum(tree.closed for tree in trees.values())
    assert closed == 578  # 78 generated procedures and 500 addWheels
    assert digest.hexdigest() == (
        "21d4c5751e2c25b0d4fdcde39f7c47b361a535580addb61bbe972ac976529384"
    )
