"""Canonical JSON serialization of proof trees.

Trees serialize to a stable, sorted JSON document; assertions,
statements, and rule arguments are stored in their concrete syntax and
re-parsed on load, so a round trip exercises the full grammar.
"""

from __future__ import annotations

import json
from typing import Any

from .domainlogic import KnowledgeBase
from .status import ObligationStatus
from .calculus import Judgement, Obligation, ProofTree
from .lang import Program

FORMAT = "two-tier-proof"
VERSION = 1


def tree_to_dict(tree: ProofTree) -> dict[str, Any]:
    from .parsing import statement_to_line

    return {
        "rule": tree.rule,
        "conclusion": {
            "pre": str(tree.conclusion.pre),
            "stmt": statement_to_line(tree.conclusion.stmt),
            "post": str(tree.conclusion.post),
        },
        "args": {k: v for k, v in tree.args},
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


def dumps(tree: ProofTree) -> str:
    doc = {"format": FORMAT, "version": VERSION, "tree": tree_to_dict(tree)}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def tree_from_dict(
    data: dict[str, Any], kb: KnowledgeBase, program: Program
) -> ProofTree:
    from .parsing import parse_assertion, parse_statement

    sig = kb.symbols
    conclusion = Judgement(
        pre=parse_assertion(data["conclusion"]["pre"], sig),
        stmt=parse_statement(data["conclusion"]["stmt"], kb),
        post=parse_assertion(data["conclusion"]["post"], sig),
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
        tree_from_dict(p, kb, program) for p in data.get("premises", ())
    )
    stored = data.get("args", {})
    order = ("kernel", "delta_prime", "mid", "inner_pre", "inner_post")
    args = tuple((k, stored[k]) for k in order if k in stored)
    args += tuple((k, v) for k, v in sorted(stored.items()) if k not in order)
    return ProofTree(
        conclusion=conclusion,
        rule=data["rule"],
        premises=premises,
        obligations=obligations,
        args=args,
    )


def loads(text: str, kb: KnowledgeBase, program: Program) -> ProofTree:
    doc = json.loads(text)
    if doc.get("format") != FORMAT:
        raise ValueError(f"unrecognized proof format: {doc.get('format')!r}")
    return tree_from_dict(doc["tree"], kb, program)
