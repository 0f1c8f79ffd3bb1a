"""The corpus output, byte for byte: structured and text `verify`, the
proof file `--proof-out` writes, and text `verify` with closure off, whose
open obligations print countermodels.  To regenerate an expected file
after a deliberate change of output, from the repository root:

    PYTHONPATH=src python3 -m twotier.cli verify PROG KB --format structured \
        > tests/golden/STEM.structured.jsonl
    PYTHONPATH=src python3 -m twotier.cli verify PROG KB \
        --proof-out tests/golden/STEM.proof.json > tests/golden/STEM.txt
    PYTHONPATH=src python3 -m twotier.cli verify PROG KB --closure off \
        > tests/golden/STEM.closure-off.txt
"""

from importlib import resources
from pathlib import Path

import pytest

from twotier.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
# corpus stem -> verify's exit code
STEMS = {"addwheels": 0, "assembly_corrected": 0, "assembly_verbatim": 1}


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
