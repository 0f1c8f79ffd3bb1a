import json
from importlib import resources
from pathlib import Path

import pytest

from twotier.cli import main


def corpus_path(name: str) -> str:
    return str(resources.files("twotier") / "corpus" / name)


ADD_PROG = corpus_path("addwheels.prog")
ADD_KB = corpus_path("addwheels.kb")
COR_PROG = corpus_path("assembly_corrected.prog")
COR_KB = corpus_path("assembly_corrected.kb")
VER_PROG = corpus_path("assembly_verbatim.prog")
VER_KB = corpus_path("assembly_verbatim.kb")


def run(capfd, *argv):
    code = main(list(argv))
    captured = capfd.readouterr()
    return code, captured.out, captured.err


def test_verify_addwheels_closed(capfd):
    code, out, _ = run(capfd, "verify", ADD_PROG, ADD_KB)
    assert code == 0
    assert "procedure addWheels: Closed" in out
    assert "spine: [post-core, post-inv, var]" in out


def test_verify_corrected_closed(capfd):
    code, out, _ = run(capfd, "verify", COR_PROG, COR_KB)
    assert code == 0
    assert out.count("Closed") == 2


def test_verify_verbatim_open_with_diagnostic(capfd):
    code, out, _ = run(capfd, "verify", VER_PROG, VER_KB)
    assert code == 1
    assert "procedure assembly: Open" in out
    assert "assertion-implication Failed" in out
    assert "HasTwoDoors" in out


def test_verify_closure_off_opens_addwheels(capfd):
    code, out, _ = run(capfd, "verify", ADD_PROG, ADD_KB, "--closure", "off")
    assert code == 1
    assert "Open" in out


def test_verify_structured_output_is_deterministic(capfd):
    code, out1, _ = run(capfd, "verify", COR_PROG, COR_KB, "--format", "structured")
    assert code == 0
    code, out2, _ = run(capfd, "verify", COR_PROG, COR_KB, "--format", "structured")
    assert out1 == out2
    records = [json.loads(line) for line in out1.splitlines()]
    assert [r["procedure"] for r in records] == ["addWheels", "assembly"]
    assert all(r["verdict"] == "Closed" for r in records)


def test_verify_parse_error_exit_code(capfd, tmp_path):
    bad = tmp_path / "bad.prog"
    bad.write_text("proc broken(", encoding="utf-8")
    code, _, err = run(capfd, "verify", str(bad), COR_KB)
    assert code == 2
    assert "error" in err


UNINTERPRETED_PROG = """var w = 0;

proc p(n)
  requires [ - | f(w) == 1 ]
  ensures [ - | f(w) == 1 ]
begin
  skip;
end;
"""


@pytest.mark.parametrize("command", ["verify", "fuzz", "check", "parse"])
def test_function_symbol_in_a_contract_is_a_parse_error(capfd, tmp_path, command):
    prog = tmp_path / "uninterpreted.prog"
    prog.write_text(UNINTERPRETED_PROG, encoding="utf-8")
    argv = {
        "verify": ["verify", str(prog), ADD_KB],
        "fuzz": ["fuzz", str(prog), ADD_KB],
        "check": ["check", str(tmp_path / "proofs.json"), str(prog), ADD_KB],
        "parse": ["parse", str(prog), "--kb", ADD_KB],
    }[command]
    code, out, err = run(capfd, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: 4:19: expected '==' or '!=' after term\n"


DUPLICATE_PROG = """var wheels = 0;

proc addWheels(n)
  requires [ - | - ]
  ensures [ - | wheels == 1 ]
begin
  wheels := n;
end;

proc addWheels(n)
  requires [ - | - ]
  ensures [ - | - ]
begin
  skip;
end;
"""


def test_duplicate_procedure_is_a_parse_error(capfd, tmp_path):
    # keyed by name, the Closed second verdict would hide the Open first
    prog = tmp_path / "duplicate.prog"
    prog.write_text(DUPLICATE_PROG, encoding="utf-8")
    code, out, err = run(capfd, "verify", str(prog), ADD_KB)
    assert code == 2
    assert out == ""
    assert err == "error: 10:6: duplicate procedure 'addWheels'\n"


CYCLIC_KB = (
    "concept A;\nrole wheels;\ndata-role hasValue;\n"
    "individual c;\nindividual wheelsVar;\n"
    "A <= some wheels . A;\nsome wheels . some hasValue . 4 <= A;\n"
    "wheels(c, wheelsVar);\nstub wheels(c, wheelsVar) for var wheels;\n"
)


def test_undecided_abduction_leaves_the_procedure_open(capfd, tmp_path):
    # under a cyclic kb the abduction behind a skip's heuristic
    # precondition cannot decide consistency; the strategy falls back
    # instead of aborting the run
    kb = tmp_path / "cyclic.kb"
    kb.write_text(CYCLIC_KB, encoding="utf-8")
    prog = tmp_path / "cyclic.prog"
    prog.write_text(
        "var wheels = 0;\n"
        "proc p(n) requires [ - | - ] ensures [ A(c) | - ]\n"
        "begin wheels := 4; skip; end;\n",
        encoding="utf-8",
    )
    code, out, _ = run(capfd, "verify", str(prog), str(kb))
    assert code == 1
    assert "procedure p: Open" in out
    assert "assertion-implication Failed" in out


def test_missing_file_exit_code(capfd):
    code, _, err = run(capfd, "verify", "/nonexistent.prog", COR_KB)
    assert code == 2


def test_explain_deduced_and_abduced(capfd):
    code, out, _ = run(capfd, "explain", COR_KB, "--goal", "HasFourWheels(c)")
    assert code == 0
    assert "deduced kernel: {hasValue(wheelsVar, 4)}" in out
    code, out, _ = run(capfd, "explain", VER_KB, "--goal", "HasBody(c)")
    assert code == 0
    assert "abduced {NonZero(bodyVar)} [atoms entail goal: Proved" in out


def test_explain_smallcar_verbatim(capfd):
    code, out, _ = run(capfd, "explain", VER_KB, "--goal", "SmallCar(c)")
    assert code == 0
    first = next(l for l in out.splitlines() if l.startswith("abduced"))
    assert "hasValue(doorsVar, 2)" in first
    assert "hasValue(wheelsVar, 4)" in first


def test_explain_reports_an_undecided_abduction(capfd, tmp_path):
    kb = tmp_path / "cyclic.kb"
    kb.write_text(CYCLIC_KB, encoding="utf-8")
    code, out, err = run(capfd, "explain", str(kb), "--goal", "A(c)")
    assert code == 0
    assert err == ""
    assert out.splitlines() == [
        "deduced kernel: {}",
        "abduction: undecided (no model at the enumeration bound and the "
        "terminology is cyclic; consistency undecided)",
    ]


def test_a_decision_budget_hit_is_an_unknown_obligation(capfd, monkeypatch):
    from twotier import reasoning
    from twotier.errors import BudgetExceeded

    def exhausted(g, budget=reasoning.DEFAULT_DECISION_BUDGET):
        raise BudgetExceeded(f"model search decision budget of {budget} exhausted")

    monkeypatch.setattr(reasoning, "_solve", exhausted)
    code, out, _ = run(capfd, "verify", ADD_PROG, ADD_KB)
    assert code == 1
    assert "procedure addWheels: Open" in out
    assert "dl-entailment Unknown" in out
    assert (
        "undecided at bound: model search decision budget of 500000 exhausted" in out
    )


def test_explain_bad_goal_exit_code(capfd):
    code, _, err = run(capfd, "explain", COR_KB, "--goal", "Mystery(c)")
    assert code == 2


def test_fuzz_prints_seed_and_finds_nothing_wrong(capfd):
    code, out, _ = run(capfd, "fuzz", COR_PROG, COR_KB, "--seed", "7")
    assert code == 0
    assert out.splitlines()[0].startswith("seed: 7; domain: [0, 2, 4]")
    assert "0 counterexamples" in out


def test_fuzz_with_nothing_closed(capfd, tmp_path):
    # weaken the kb so the only procedure stays open
    text = Path(ADD_KB).read_text(encoding="utf-8").replace(
        "some wheels . some hasValue . 4 == HasFourWheels;",
        "HasFourWheels <= some wheels . some hasValue . 4;",
    )
    weak = tmp_path / "weak.kb"
    weak.write_text(text, encoding="utf-8")
    code, out, _ = run(capfd, "fuzz", ADD_PROG, str(weak))
    assert code == 0
    assert "nothing Closed to test" in out


def test_proof_out_then_check_round_trip(capfd, tmp_path):
    proof = tmp_path / "proofs.json"
    code, _, _ = run(
        capfd, "verify", COR_PROG, COR_KB, "--proof-out", str(proof)
    )
    assert code == 0
    code, out, _ = run(capfd, "check", str(proof), COR_PROG, COR_KB)
    assert code == 0
    assert "addWheels: Closed" in out
    assert "assembly: Closed" in out


def test_check_rejects_mutated_proof(capfd, tmp_path):
    proof = tmp_path / "proofs.json"
    run(capfd, "verify", ADD_PROG, ADD_KB, "--proof-out", str(proof))
    doc = json.loads(proof.read_text(encoding="utf-8"))
    node = doc["procedures"]["addWheels"]
    while node["premises"]:
        node = node["premises"][0]
    node["rule"] = "skip"
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capfd, "check", str(mutated), ADD_PROG, ADD_KB)
    assert code == 1
    assert "at root.0.0" in out
    assert "skip rule requires" in out


def test_check_rejects_unknown_format(capfd, tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"format": "nope"}', encoding="utf-8")
    code, _, err = run(capfd, "check", str(bogus), ADD_PROG, ADD_KB)
    assert code == 2
    assert "unrecognized proof format: 'nope'" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"format": "two-tier-proof", "procedures": {',
        '{"format": "two-tier-proof", "tree": {"rule": "skip"}}',
        '["two-tier-proof"]',
    ],
    ids=["invalid-json", "no-conclusion", "json-list"],
)
def test_check_rejects_malformed_proof(capfd, tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run(capfd, "check", str(bad), ADD_PROG, ADD_KB)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_parse_kb_round_trip(capfd):
    code, out, _ = run(capfd, "parse", ADD_KB)
    assert code == 0
    assert out == Path(ADD_KB).read_text(encoding="utf-8")


def test_parse_program_round_trip(capfd):
    code, out, _ = run(capfd, "parse", COR_PROG, "--kb", COR_KB)
    assert code == 0
    assert out == Path(COR_PROG).read_text(encoding="utf-8")


def test_parse_program_finds_sibling_kb(capfd):
    code, out, _ = run(capfd, "parse", ADD_PROG)
    assert code == 0


def test_usage_error_exit_code(capfd):
    assert main(["verify"]) == 2
    capfd.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", ADD_KB, "--jobs", "2"],
        ["explain", COR_KB, "--goal", "HasFourWheels(c)", "--seed", "1"],
        ["verify", ADD_PROG, ADD_KB, "--fuel", "5"],
        ["fuzz", ADD_PROG, ADD_KB, "--format", "structured"],
        ["check", "proofs.json", ADD_PROG, ADD_KB, "--unroll", "3"],
        ["verify", ADD_PROG, ADD_KB, "--unroll", "3"],
        ["fuzz", ADD_PROG, ADD_KB, "--fuel", "5"],
        ["verify", ADD_PROG, ADD_KB, "--domain", "0,2"],
        ["check", "proofs.json", ADD_PROG, ADD_KB, "--domain", "0,2"],
        ["verify", ADD_PROG, ADD_KB, "--fresh", "3"],
        ["fuzz", ADD_PROG, ADD_KB, "--fresh", "3"],
        ["check", "proofs.json", ADD_PROG, ADD_KB, "--fresh", "3"],
    ],
)
def test_flag_the_subcommand_does_not_read_is_a_usage_error(capfd, argv):
    code, _, err = run(capfd, *argv)
    assert code == 2
    assert "unrecognized arguments" in err


def test_malformed_domain_is_a_usage_error(capfd):
    code, _, err = run(capfd, "fuzz", ADD_PROG, ADD_KB, "--domain", "0,x")
    assert code == 2
    assert "--domain" in err
