"""Command-line front end.

Subcommands: verify, explain, fuzz, check, parse.  Exit codes are the
machine contract: 0 success, 1 verification failure or open proof,
2 parse/usage error, 3 internal or budget error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .errors import BudgetExceeded, NoExplanation, ParseError, VerifierError
from .domainlogic import KnowledgeBase, constants_of_formulas
from .lifting import SpecLifting
from .kernel import CandidatePool, alpha_abduce, informative_kernel
from .status import ObligationStatus
from .calculus import (
    ProofTree,
    VerifCtx,
    check_proof,
    validate_judgement_empirically,
)
from .strategy import verify_program
from . import parsing, serialize

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3


def on_off(text: str) -> bool:
    if text not in ("on", "off"):
        raise argparse.ArgumentTypeError(f"expected on or off, got {text!r}")
    return text == "on"


def int_list(text: str) -> tuple[int, ...]:
    return tuple(sorted({int(x) for x in text.split(",") if x.strip()}))


# every flag a subcommand may take; each subcommand adds the ones it reads
FLAGS = {
    "--closure": dict(type=on_off, metavar="{on,off}"),
    # fuzz only: state implication is exact without a value domain
    "--domain": dict(
        type=int_list, default=(), metavar="LIST", help='integer list, e.g. "0,2,4"'
    ),
    "--seed": dict(type=int, default=0, metavar="N"),
    "--format": dict(choices=["text", "structured"], default="text"),
    "--proof-out": dict(metavar="FILE"),
}


def load_kb(path: str, closure: Optional[bool]) -> KnowledgeBase:
    kb = parsing.parse_kb(Path(path).read_text(encoding="utf-8"))
    if closure is not None:
        kb = kb.with_closure(closure)
    return kb


def load_ctx(args: argparse.Namespace) -> VerifCtx:
    """The verification context of the program and kb files `args` names."""
    kb = load_kb(args.kb, args.closure)
    program = parsing.parse_program(Path(args.program).read_text(encoding="utf-8"), kb)
    return VerifCtx.build(program, kb)


def default_domain(program, kb: KnowledgeBase) -> tuple[int, ...]:
    values = set(program.constants()) | set(constants_of_formulas(kb.axioms)) | {0}
    return tuple(sorted(values))


def print_tree_verdicts(name: str, tree: ProofTree, out) -> None:
    verdict = "Closed" if tree.closed else "Open"
    print(f"procedure {name}: {verdict}", file=out)
    print(f"  spine: [{', '.join(tree.spine())}]", file=out)
    if not tree.closed:
        for path, node in tree.walk():
            for ob in node.obligations:
                if ob.status != ObligationStatus.PROVED:
                    print(
                        f"  at {path} ({node.rule}) {ob.kind} {ob.status.value}: "
                        f"{ob.payload}",
                        file=out,
                    )
                    if ob.note:
                        for line in ob.note.splitlines():
                            print(f"    {line}", file=out)


def structured_record(name: str, tree: ProofTree) -> str:
    record = {
        "procedure": name,
        "verdict": "Closed" if tree.closed else "Open",
        "tree": serialize.tree_to_dict(tree),
    }
    return json.dumps(record, sort_keys=True)


def cmd_verify(args: argparse.Namespace, out=None) -> int:
    out = out if out is not None else sys.stdout
    ctx = load_ctx(args)
    results = verify_program(ctx)
    for name, tree in results.items():
        if args.format == "structured":
            print(structured_record(name, tree), file=out)
        else:
            print_tree_verdicts(name, tree, out)
    if args.proof_out:
        Path(args.proof_out).write_text(
            serialize.dumps_procedures(results.items()), encoding="utf-8"
        )
    return EXIT_OK if all(t.closed for t in results.values()) else EXIT_FAILED


def cmd_explain(args: argparse.Namespace, out=None) -> int:
    out = out if out is not None else sys.stdout
    kb = load_kb(args.kb, args.closure)
    goal = parsing.parse_domain_formula(args.goal, kb.symbols)
    variables = tuple(s.variable for s in kb.stubs)
    lifting = SpecLifting.direct(kb, variables)
    pool = CandidatePool.build(kb, lifting, variables=variables)
    deduced = informative_kernel((goal,), kb, pool)
    rendered = ", ".join(str(a) for a in deduced)
    print(f"deduced kernel: {{{rendered}}}", file=out)
    try:
        explanations = alpha_abduce((goal,), kb, pool)
    except NoExplanation as exc:
        print(f"abduction: no explanation ({exc})", file=out)
        return EXIT_OK
    except BudgetExceeded as exc:
        # a cyclic kb leaves consistency undecided, as in strategy.needed_pre
        print(f"abduction: undecided ({exc})", file=out)
        return EXIT_OK
    for result in explanations:
        rendered = ", ".join(str(a) for a in result.atoms)
        print(
            f"abduced {{{rendered}}}"
            f" [atoms entail goal: {result.backward_obligation.value};"
            f" goal entails atoms: {result.forward_obligation.value}]",
            file=out,
        )
    return EXIT_OK


def cmd_fuzz(args: argparse.Namespace, out=None) -> int:
    out = out if out is not None else sys.stdout
    ctx = load_ctx(args)
    domain = args.domain or default_domain(ctx.program, ctx.kb)
    print(f"seed: {args.seed}; domain: {list(domain)}", file=out)
    closed = [(name, t) for name, t in verify_program(ctx).items() if t.closed]
    if not closed:
        print("nothing Closed to test", file=out)
        return EXIT_OK
    exit_code = EXIT_OK
    for name, tree in closed:
        report = validate_judgement_empirically(
            ctx, tree.conclusion, domain, seed=args.seed
        )
        print(
            f"procedure {name}: tested {report.tested} states, "
            f"{len(report.counterexamples)} counterexamples, "
            f"{report.fuel_issues} fuel exhaustions",
            file=out,
        )
        for cx in report.counterexamples:
            print(
                f"  sigma={dict(cx.sigma)} sigma'="
                f"{dict(cx.sigma_prime) if cx.sigma_prime is not None else None} "
                f"violates: {cx.detail}",
                file=out,
            )
            exit_code = EXIT_FAILED
    return exit_code


def cmd_check(args: argparse.Namespace, out=None) -> int:
    out = out if out is not None else sys.stdout
    ctx = load_ctx(args)
    text = Path(args.proof).read_text(encoding="utf-8")
    named = serialize.loads_procedures(text, ctx.kb, ctx.program)
    exit_code = EXIT_OK
    for name, tree in named:
        report = check_proof(ctx, tree)
        print(f"{name}: {report.describe()}", file=out)
        if not report.closed:
            exit_code = EXIT_FAILED
    return exit_code


def cmd_parse(args: argparse.Namespace, out=None) -> int:
    out = out if out is not None else sys.stdout
    path = Path(args.file)
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".kb":
        kb = parsing.parse_kb(text)
        pretty = parsing.kb_to_text(kb)
        again = parsing.kb_to_text(parsing.parse_kb(pretty))
    else:
        kb_path = Path(args.kb) if args.kb else path.with_suffix(".kb")
        if not kb_path.exists():
            print(f"no knowledge base found at {kb_path}", file=sys.stderr)
            return EXIT_PARSE
        kb = parsing.parse_kb(kb_path.read_text(encoding="utf-8"))
        program = parsing.parse_program(text, kb)
        pretty = parsing.program_to_text(program)
        again = parsing.program_to_text(parsing.parse_program(pretty, kb))
    if pretty != again:
        print("round-trip mismatch", file=sys.stderr)
        return EXIT_INTERNAL
    print(pretty, end="", file=out)
    return EXIT_OK


def add_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        p.add_argument(flag, **FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twotier",
        description="Two-tier contract verification over an imperative "
        "language with description-logic domain specifications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify every procedure contract")
    p.add_argument("program")
    p.add_argument("kb")
    add_flags(p, "--closure", "--format", "--proof-out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("explain", help="deduce and abduce kernel atoms for a goal")
    p.add_argument("kb")
    p.add_argument("--goal", required=True)
    add_flags(p, "--closure")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("fuzz", help="empirically validate closed judgements")
    p.add_argument("program")
    p.add_argument("kb")
    add_flags(p, "--closure", "--domain", "--seed")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("check", help="replay a serialized proof tree")
    p.add_argument("proof")
    p.add_argument("program")
    p.add_argument("kb")
    add_flags(p, "--closure")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("parse", help="parse and pretty-print a program or kb file")
    p.add_argument("file")
    p.add_argument("--kb")
    p.set_defaults(func=cmd_parse)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except VerifierError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
