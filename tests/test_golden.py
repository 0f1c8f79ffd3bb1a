"""The corpus output, byte for byte: structured and text `verify`, the
proof file `--proof-out` writes, text `verify` with closure off, whose
open obligations print countermodels, text `fuzz` over the default
domain and wider ones, `check` of each proof file, and `explain` of
three goals.
To regenerate an expected file after a deliberate change of output, from
the repository root:

    PYTHONPATH=src python3 -m twotier.cli verify PROG KB --format structured \
        > tests/golden/STEM.structured.jsonl
    PYTHONPATH=src python3 -m twotier.cli verify PROG KB \
        --proof-out tests/golden/STEM.proof.json > tests/golden/STEM.txt
    PYTHONPATH=src python3 -m twotier.cli verify PROG KB --closure off \
        > tests/golden/STEM.closure-off.txt
    PYTHONPATH=src python3 -m twotier.cli fuzz PROG KB > tests/golden/STEM.fuzz.txt
    PYTHONPATH=src python3 -m twotier.cli fuzz PROG KB --domain 0,1,2,4 \
        > tests/golden/STEM.fuzz-0124.txt
    PYTHONPATH=src python3 -m twotier.cli fuzz PROG KB --domain 0,1,2,3,4,5,6 \
        > tests/golden/assembly_corrected.fuzz-0to6.txt
    PYTHONPATH=src python3 -m twotier.cli check tests/golden/STEM.proof.json \
        PROG KB > tests/golden/STEM.check.txt
    PYTHONPATH=src python3 -m twotier.cli explain KB --goal "GOAL(c)" \
        > tests/golden/assembly_corrected.explain-GOAL.txt

where PROG and KB are src/twotier/corpus/STEM.prog and STEM.kb, PROG and
KB of the wide-domain fuzz are those of assembly_corrected, and KB for
`explain` is the one of assembly_corrected.
"""

from importlib import resources
from pathlib import Path

import pytest

from twotier.cli import main

# every golden output must be the same under any PYTHONHASHSEED
pytestmark = pytest.mark.hashseed

GOLDEN = Path(__file__).resolve().parent / "golden"
# corpus stem -> the exit code of verify and of check of its proof file
STEMS = {"addwheels": 0, "assembly_corrected": 0, "assembly_verbatim": 1}
# golden suffix -> fuzz's domain flags
FUZZ_DOMAINS = {"fuzz": [], "fuzz-0124": ["--domain", "0,1,2,4"]}
EXPLAIN_GOALS = ("SmallCar", "HasFourWheels", "HasBody")


def corpus_args(stem: str) -> list[str]:
    corpus = resources.files("twotier") / "corpus"
    return [str(corpus / f"{stem}.prog"), str(corpus / f"{stem}.kb")]


def expected(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("stem", STEMS)
def test_structured_verify(capfd, stem):
    code = main(["verify", *corpus_args(stem), "--format", "structured"])
    assert code == STEMS[stem]
    assert capfd.readouterr().out == expected(f"{stem}.structured.jsonl")


@pytest.mark.parametrize("stem", STEMS)
def test_text_verify_and_proof_file(capfd, tmp_path, stem):
    proof = tmp_path / "proof.json"
    code = main(["verify", *corpus_args(stem), "--proof-out", str(proof)])
    assert code == STEMS[stem]
    assert capfd.readouterr().out == expected(f"{stem}.txt")
    assert proof.read_text(encoding="utf-8") == expected(f"{stem}.proof.json")


@pytest.mark.parametrize("stem", STEMS)
def test_countermodels_with_closure_off(capfd, stem):
    code = main(["verify", *corpus_args(stem), "--closure", "off"])
    assert code == 1
    assert capfd.readouterr().out == expected(f"{stem}.closure-off.txt")


@pytest.mark.parametrize("suffix", FUZZ_DOMAINS)
@pytest.mark.parametrize("stem", STEMS)
def test_text_fuzz(capfd, stem, suffix):
    code = main(["fuzz", *corpus_args(stem), *FUZZ_DOMAINS[suffix]])
    assert code == 0
    assert capfd.readouterr().out == expected(f"{stem}.{suffix}.txt")


def test_text_fuzz_over_values_outside_the_constants(capfd):
    """Seven values, 117,649 states: the havoc of addWheels(4) filters
    every one of them, and the fuzzer samples 10,000."""
    domain = ["--domain", "0,1,2,3,4,5,6"]
    assert main(["fuzz", *corpus_args("assembly_corrected"), *domain]) == 0
    assert capfd.readouterr().out == expected("assembly_corrected.fuzz-0to6.txt")


@pytest.mark.parametrize("stem", STEMS)
def test_check_of_the_proof_file(capfd, stem):
    code = main(["check", str(GOLDEN / f"{stem}.proof.json"), *corpus_args(stem)])
    assert code == STEMS[stem]
    assert capfd.readouterr().out == expected(f"{stem}.check.txt")


@pytest.mark.parametrize("goal", EXPLAIN_GOALS)
def test_explain(capfd, goal):
    kb = corpus_args("assembly_corrected")[1]
    assert main(["explain", kb, "--goal", f"{goal}(c)"]) == 0
    assert capfd.readouterr().out == expected(f"assembly_corrected.explain-{goal}.txt")
