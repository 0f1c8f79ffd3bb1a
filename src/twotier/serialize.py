"""Canonical JSON serialization of proof trees.

Trees serialize to a stable, sorted JSON document
`{format, version, tree}` for one tree, or `{format, version,
procedures}` for one tree per procedure; assertions, statements, and
rule arguments are stored in their concrete syntax and re-parsed on
load, so a round trip exercises the full grammar.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Iterable, Iterator

from .domainlogic import DomainFormula, DomainSignature, KnowledgeBase
from .errors import ParseError
from .status import ObligationStatus
from .calculus import Judgement, Obligation, ProofTree
from .lang import Program
from .parsing import parse_assertion, parse_domain_formula, parse_statement, statement_to_line

FORMAT = "two-tier-proof"
VERSION = 1


def _render_arg(value: Any) -> str:
    """A rule argument's text: domain atoms as "a; b", an assertion as
    its tier syntax."""
    if isinstance(value, tuple):
        return "; ".join(str(f) for f in value)
    return str(value)


def _parse_atoms(text: str, sig: DomainSignature) -> tuple[DomainFormula, ...]:
    parts = (p.strip() for p in text.split(";"))
    return tuple(parse_domain_formula(p, sig) for p in parts if p)


# apply_rule's keyword arguments, each with the parser of its stored text
_ARG_PARSERS = {
    "kernel": _parse_atoms,
    "delta_prime": _parse_atoms,
    "mid": parse_assertion,
    "inner_pre": parse_assertion,
    "inner_post": parse_assertion,
}


def tree_to_dict(tree: ProofTree) -> dict[str, Any]:
    return {
        "rule": tree.rule,
        "conclusion": {
            "pre": str(tree.conclusion.pre),
            "stmt": statement_to_line(tree.conclusion.stmt),
            "post": str(tree.conclusion.post),
        },
        "args": {k: _render_arg(v) for k, v in tree.args},
        "obligations": [
            {
                "kind": o.kind,
                "payload": o.payload,
                "status": o.status.value,
                "note": o.note,
            }
            for o in tree.obligations
        ],
        "premises": [tree_to_dict(p) for p in tree.premises],
    }


def _document(**body: Any) -> str:
    doc = {"format": FORMAT, "version": VERSION, **body}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def dumps(tree: ProofTree) -> str:
    return _document(tree=tree_to_dict(tree))


def dumps_procedures(results: Iterable[tuple[str, ProofTree]]) -> str:
    """One tree per procedure, as `verify --proof-out` writes them."""
    return _document(procedures={name: tree_to_dict(t) for name, t in results})


def _load(
    path: str, field: str, parse, text: str, context, parsed: dict[tuple, Any]
) -> Any:
    """`parse(text, context)`, parsed once per load: `parsed` keeps the
    result by (parser, text).  A ParseError names the node and field
    where the text first occurs, since it ends the load."""
    key = (parse, text)
    if key not in parsed:
        try:
            parsed[key] = parse(text, context)
        except ParseError as exc:
            raise ParseError(f"{path} {field}: {exc}") from exc
    return parsed[key]


def tree_from_dict(
    data: dict[str, Any],
    kb: KnowledgeBase,
    program: Program,
    path: str = "root",
    parsed: dict[tuple, Any] | None = None,
) -> ProofTree:
    """The tree that `tree_to_dict` made `data` from.  `parsed` holds the
    texts parsed so far in this load, shared with the premises; a text
    parses to immutable values under one kb, so each is parsed once."""
    if parsed is None:
        parsed = {}
    sig = kb.symbols
    stored = data["conclusion"]
    conclusion = Judgement(
        pre=_load(path, "pre", parse_assertion, stored["pre"], sig, parsed),
        stmt=_load(path, "stmt", parse_statement, stored["stmt"], kb, parsed),
        post=_load(path, "post", parse_assertion, stored["post"], sig, parsed),
    )
    obligations = tuple(
        Obligation(
            kind=o["kind"],
            payload=o["payload"],
            status=ObligationStatus(o["status"]),
            note=o.get("note", ""),
        )
        for o in data.get("obligations", ())
    )
    premises = tuple(
        tree_from_dict(p, kb, program, f"{path}.{i}", parsed)
        for i, p in enumerate(data.get("premises", ()))
    )
    args = []
    for key, text in sorted(data.get("args", {}).items()):
        if key not in _ARG_PARSERS:
            raise ParseError(f"{path} args: unknown rule argument {key!r}")
        args.append((key, _load(path, key, _ARG_PARSERS[key], text, sig, parsed)))
    return ProofTree(
        conclusion=conclusion,
        rule=data["rule"],
        premises=premises,
        obligations=obligations,
        args=tuple(args),
    )


def _read(text: str) -> dict[str, Any]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"proof is not JSON: {exc.msg}", exc.lineno, exc.colno)
    found = doc.get("format") if isinstance(doc, dict) else None
    if found != FORMAT:
        raise ParseError(f"unrecognized proof format: {found!r}")
    return doc


@contextmanager
def _malformed() -> Iterator[None]:
    """Reports a document of the wrong shape as a ParseError."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed proof: {type(exc).__name__}: {exc}") from exc


def loads(
    text: str, kb: KnowledgeBase, program: Program
) -> ProofTree | dict[str, ProofTree]:
    """The one tree of a document that `dumps` wrote, or the trees by
    name of one that `dumps_procedures` wrote, each under the name of a
    procedure of `program`."""
    doc = _read(text)
    with _malformed():
        if "tree" in doc:
            return tree_from_dict(doc["tree"], kb, program)
        declared = {proc.name for proc in program.procedures}
        trees = {}
        parsed: dict[tuple, Any] = {}
        for name, data in sorted(doc.get("procedures", {}).items()):
            if name not in declared:
                raise ParseError(f"proof of undeclared procedure {name!r}")
            trees[name] = tree_from_dict(data, kb, program, f"{name} root", parsed)
        return trees
