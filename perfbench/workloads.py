"""One pass of a benchmark workload, in the interpreter that runs this file.

A pass sets the workload up several times (generating or reading the
inputs, parsing them and building every VerifCtx), then runs the last
set-up through the public functions the CLI calls: it verifies every
procedure, serializes each Closed proof, re-parses it and checks it, and
fuzzes the judgements.  It checks every verdict against answers fixed in
this file, which follow from how the inputs are built or from the
paper's examples, and prints one JSON object with its timings, which
`meter.Meter` corrects for the machine's speed.

`reasoning._REFUTE_CACHE` is process-global and never cleared, so a
second pass in the same interpreter would answer from the cache: run
each pass in a fresh interpreter (`run.py` does).

    PYTHONPATH=src python3 perfbench/workloads.py --workload W --seed N [--trace]
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import gen_programs  # noqa: E402
import gen_scaled  # noqa: E402
from meter import Meter  # noqa: E402

SCALED_N = 5
SCALED_FUZZ_SAMPLES = 64
GENERATED_SEED = 42
GENERATED_COUNT = 500
GENERATED_MIN_CLOSED_SHARE = 0.1
CORPUS = ("addwheels", "assembly_corrected", "assembly_verbatim")
# repeat set-up until this much time is spent, and at least SETUP_MIN_REPS times
SETUP_BUDGET_S = 0.3
SETUP_MIN_REPS = 3


@dataclass
class Unit:
    """One verification context and the procedures verified in it."""

    label: str
    program: object
    kb: object
    ctx: object
    procedures: tuple[str, ...]


@dataclass
class Pass:
    meter: Meter
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)  # failed checks
    failures: list[str] = field(default_factory=list)  # failed operations
    proc_ops: dict[str, int] = field(default_factory=dict)  # procedure -> op id
    fuzz_ops: list[int] = field(default_factory=list)
    closed: int = 0
    fuzz_states: int = 0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def op(self, fn, *args, **kwargs):
        """Run one timed operation: (result or None, op id).  An error
        raised by twotier counts the operation as failed."""
        from twotier.errors import VerifierError

        self.attempted += 1
        op = self.meter.count
        try:
            return self.meter.run(fn, *args, **kwargs)
        except VerifierError as exc:
            self.failed += 1
            self.failures.append(f"{fn.__name__}: {type(exc).__name__}: {exc}")
            return None, op


# ---------------------------------------------------------------------------
# Inputs: each returns [(label, kb text, program text, procedures to verify)]


def scaled_inputs(seed: int, size: int):
    kb_text, prog_text = gen_scaled.scaled(size, seed)
    return [(f"s{size}", kb_text, prog_text, None)]


def generated_inputs(seed: int, size: int):
    kb_text = (gen_programs.CORPUS / f"{gen_programs.HOST_STEM}.kb").read_text(
        encoding="utf-8"
    )
    texts = gen_programs.programs(GENERATED_SEED, size)
    order = list(range(size))
    random.Random(seed).shuffle(order)
    return [(f"gen{i:03d}", kb_text, texts[i], ("generated",)) for i in order]


def corpus_inputs(seed: int, size: int):
    stems = list(CORPUS)
    random.Random(seed).shuffle(stems)
    return [
        (
            stem,
            (gen_programs.CORPUS / f"{stem}.kb").read_text(encoding="utf-8"),
            (gen_programs.CORPUS / f"{stem}.prog").read_text(encoding="utf-8"),
            None,
        )
        for stem in stems
    ]


INPUTS = {"scaled": scaled_inputs, "generated": generated_inputs, "corpus": corpus_inputs}
DEFAULT_SIZE = {"scaled": SCALED_N, "generated": GENERATED_COUNT, "corpus": 0}


def setup(workload: str, seed: int, size: int) -> list[Unit]:
    from twotier import parsing
    from twotier.calculus import VerifCtx

    units = []
    kbs: dict[str, object] = {}
    for label, kb_text, prog_text, procs in INPUTS[workload](seed, size):
        kb = kbs.get(kb_text)
        if kb is None:
            kb = kbs[kb_text] = parsing.parse_kb(kb_text)
        program = parsing.parse_program(prog_text, kb)
        names = procs or tuple(p.name for p in program.procedures)
        units.append(Unit(label, program, kb, VerifCtx.build(program, kb), names))
    return units


# ---------------------------------------------------------------------------
# The measured pass


def verify_all(units: list[Unit], p: Pass) -> dict[str, object]:
    from twotier.strategy import verify_procedure

    trees = {}
    for u in units:
        for name in u.procedures:
            tree, p.proc_ops[f"{u.label}/{name}"] = p.op(
                verify_procedure, u.ctx, u.program.procedure(name)
            )
            if tree is not None:
                trees[(u.label, name)] = tree
                p.closed += tree.closed
    return trees


def round_trip(tree, u: Unit):
    """The proof as `--proof-out` writes it, read back as `check` does."""
    from twotier import serialize

    text = json.dumps(serialize.tree_to_dict(tree), indent=2, sort_keys=True)
    return serialize.tree_from_dict(json.loads(text), u.kb, u.program)


def check_round_trip(units: list[Unit], trees: dict, p: Pass) -> None:
    """Serialize every Closed proof, re-parse it and check it."""
    from twotier.calculus import check_proof

    by_label = {u.label: u for u in units}
    for (label, name), tree in trees.items():
        if not tree.closed:
            continue
        u = by_label[label]
        again, _ = p.op(round_trip, tree, u)
        report = p.op(check_proof, u.ctx, again)[0] if again is not None else None
        p.check(
            report is not None and report.closed,
            f"{label}/{name}: Closed proof rejected after a serialize round trip: "
            + (report.describe() if report is not None else "error"),
        )


def fuzz(u: Unit, tree, domain, p: Pass, *, samples: int = 10_000, seed: int = 0):
    from twotier.calculus import validate_judgement_empirically

    return p.op(
        validate_judgement_empirically,
        u.ctx,
        tree.conclusion,
        domain,
        samples=samples,
        seed=seed,
    )


def fuzz_closed(units, trees, domain_of, p: Pass, **kwargs) -> None:
    """Fuzz every Closed judgement; none may have a counterexample."""
    by_label = {u.label: u for u in units}
    for (label, name), tree in trees.items():
        if not tree.closed:
            continue
        report, op = fuzz(by_label[label], tree, domain_of(name), p, **kwargs)
        if report is None:
            continue
        p.fuzz_states += report.tested
        p.fuzz_ops.append(op)
        p.check(
            report.ok,
            f"{label}/{name}: Closed judgement has "
            f"{len(report.counterexamples)} counterexamples",
        )


def run_scaled(units, seed: int, p: Pass) -> None:
    trees = verify_all(units, p)
    (u,) = units
    p.check(
        len(trees) == len(u.procedures) and all(t.closed for t in trees.values()),
        "scaled: every set_i must be Closed",
    )
    check_round_trip(units, trees, p)
    # a sample of the states of the 2N variables over a two-value domain:
    # the validator builds the whole product first, so a wider domain
    # cannot run, and every state is a distinct reasoner query
    fuzz_closed(
        units,
        trees,
        lambda name: (0, int(name.split("_")[1]) + 1),
        p,
        samples=SCALED_FUZZ_SAMPLES,
        seed=seed,
    )


def run_generated(units, seed: int, p: Pass) -> None:
    trees = verify_all(units, p)
    p.check(
        p.closed >= GENERATED_MIN_CLOSED_SHARE * len(units),
        f"generated: only {p.closed} of {len(units)} procedures closed",
    )
    check_round_trip(units, trees, p)
    fuzz_closed(units, trees, lambda name: (0, 2, 4), p)


def run_corpus(units, seed: int, p: Pass) -> None:
    from twotier.status import ObligationStatus

    trees = verify_all(units, p)
    verdict = {k: t.closed for k, t in trees.items()}
    aw = trees.get(("addwheels", "addWheels"))
    p.check(
        aw is not None
        and aw.closed
        and aw.spine() == ("post-core", "post-inv", "var"),
        "corpus: addWheels must be Closed with spine [post-core, post-inv, var]",
    )
    p.check(
        verdict.get(("assembly_corrected", "addWheels")) is True
        and verdict.get(("assembly_corrected", "assembly")) is True,
        "corpus: both corrected procedures must be Closed",
    )
    bad = trees.get(("assembly_verbatim", "assembly"))
    unmet = (
        [
            o.note + " " + o.payload
            for _, node in bad.walk()
            for o in node.obligations
            if o.status != ObligationStatus.PROVED
        ]
        if bad is not None
        else []
    )
    p.check(
        bad is not None
        and not bad.closed
        and any("hasValue(doorsVar, 2)" in line for line in unmet),
        "corpus: verbatim assembly must be Open and name hasValue(doorsVar, 2)",
    )
    check_round_trip(units, trees, p)
    fuzz_closed(units, trees, lambda name: (0, 1, 2, 4), p)
    if bad is not None:
        verbatim = next(u for u in units if u.label == "assembly_verbatim")
        report, _ = fuzz(verbatim, bad, (0, 2, 4), p)
        p.check(
            report is not None and len(report.counterexamples) == 2916,
            "corpus: the fuzzer must find 2916 counterexamples to verbatim "
            "assembly over {0, 2, 4}, found "
            + (str(len(report.counterexamples)) if report is not None else "error"),
        )


RUN = {"scaled": run_scaled, "generated": run_generated, "corpus": run_corpus}


def warm_up() -> None:
    """Run every step once on s1, untimed, so that the first calls of each
    code path in a fresh interpreter are not charged to whichever
    procedure the seed puts first.  s1's kb shares no reasoner query with
    any workload."""
    run_scaled(setup("scaled", 0, 1), 0, Pass(Meter()))


def one_pass(workload: str, seed: int, size: int, tracer=None) -> dict:
    setup_ops: list[int] = []
    with Meter() as meter:
        while (
            len(setup_ops) < SETUP_MIN_REPS
            or sum(meter.wall(op) for op in setup_ops) < SETUP_BUDGET_S
        ):
            units, op = meter.run(setup, workload, seed, size)
            setup_ops.append(op)
        p = Pass(meter)
        RUN[workload](units, seed, p)
    # wall time counts one set-up, the last one, whose units are used, and
    # every operation after it
    wall_ops = range(setup_ops[-1], meter.count)
    wall_s = sum(meter.seconds(op) for op in wall_ops)
    raw_wall_s = sum(meter.wall(op) for op in wall_ops)
    out = {
        "ok": not p.errors,
        "errors": p.errors[:20],
        "failures": p.failures[:20],
        "attempted": p.attempted,
        "failed": p.failed,
        "setup_s": statistics.median(meter.seconds(op) for op in setup_ops),
        "setup_reps": len(setup_ops),
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "probe_ms": [t * 1e3 for t in meter.readings],
        "proc_ms": {k: meter.seconds(op) * 1e3 for k, op in p.proc_ops.items()},
        "closed": p.closed,
        "fuzz_states": p.fuzz_states,
        "fuzz_s": sum(meter.seconds(op) for op in p.fuzz_ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        # the tracer reads the wall clock: correct its times like the pass's
        out["layers"] = {
            k: v * wall_s / raw_wall_s if k.endswith("_s") else v
            for k, v in tracer.layer_metrics().items()
        }
        out["trace"] = tracer.table()
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(RUN))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", type=int, help="sN's N, or the number of programs")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import twotier

    if Path(twotier.__file__).resolve().parent != SRC / "twotier":
        print(f"twotier is not the package under {SRC}", file=sys.stderr)
        return 2
    warm_up()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    size = args.size if args.size is not None else DEFAULT_SIZE[args.workload]
    print(json.dumps(one_pass(args.workload, args.seed, size, tracer)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
