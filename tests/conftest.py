from importlib import resources

import pytest

from twotier import parsing, reasoning
from twotier.calculus import VerifCtx

# one line per acceptance criterion, filled in by the acceptance suite
# and echoed after the run regardless of output capture
CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    lines = dict()
    for rep in terminalreporter.stats.get("failed", ()):
        name = getattr(rep, "nodeid", "")
        if "test_acceptance.py::test_criterion_" in name:
            number = name.split("test_criterion_")[1].split("_")[0]
            lines[int(number)] = f"criterion {number}: FAIL ({name})"
    for line in CRITERION_LINES:
        lines[int(line.split()[1].rstrip(":"))] = line
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(lines.items()):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def criterion_log():
    return CRITERION_LINES


def corpus_text(name: str) -> str:
    return (resources.files("twotier") / "corpus" / name).read_text(encoding="utf-8")


def load_corpus(stem: str):
    kb = parsing.parse_kb(corpus_text(f"{stem}.kb"))
    program = parsing.parse_program(corpus_text(f"{stem}.prog"), kb)
    return program, kb


def count_groundings(monkeypatch) -> list[tuple[tuple, tuple]]:
    """The (universe, value pool) of every grounder made from now on, in
    order."""
    groundings = []
    init = reasoning._Grounder.__init__

    def counting_init(self, universe, values):
        groundings.append((tuple(universe), tuple(values)))
        init(self, universe, values)

    monkeypatch.setattr(reasoning._Grounder, "__init__", counting_init)
    return groundings


def record_bounds(monkeypatch) -> list[tuple[tuple, tuple]]:
    """The (universe, value pool) that `reasoning._query_bounds` gives,
    once per search and per context key of `entailed_atoms`, from now on
    in order."""
    bounds = []
    query_bounds = reasoning._query_bounds

    def recording(*args):
        out = query_bounds(*args)
        bounds.append(out)
        return out

    monkeypatch.setattr(reasoning, "_query_bounds", recording)
    return bounds


@pytest.fixture(scope="session")
def addwheels():
    return load_corpus("addwheels")


@pytest.fixture(scope="session")
def corrected():
    return load_corpus("assembly_corrected")


@pytest.fixture(scope="session")
def verbatim():
    return load_corpus("assembly_verbatim")


@pytest.fixture(scope="session")
def addwheels_ctx(addwheels):
    return VerifCtx.build(*addwheels)


@pytest.fixture(scope="session")
def corrected_ctx(corrected):
    return VerifCtx.build(*corrected)


@pytest.fixture(scope="session")
def verbatim_ctx(verbatim):
    return VerifCtx.build(*verbatim)
