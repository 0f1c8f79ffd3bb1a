"""Spans around the public functions of each twotier module.

`install()` replaces every traced function with a wrapper that records a
span: its name, its duration and the span that was open when it started
(its parent).  A span's self time is its duration minus the durations of
its child spans.  Wrappers replace the function in every twotier module
that holds it, so names rebound by `from ... import` (for example
`strategy.informative_kernel` or `calculus.interpret`) are traced too.

Spans are folded into per-function and per-(parent, child) totals as
they close, so memory stays flat however many calls a pass makes.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# layer (module) -> traced public names; "Class.method" names a method
TRACED = {
    "parsing": (
        "parse_kb",
        "parse_program",
        "parse_assertion",
        "parse_statement",
        "parse_domain_formula",
    ),
    "serialize": ("tree_to_dict", "tree_from_dict"),
    "calculus": (
        "VerifCtx.build",
        "apply_rule",
        "check_proof",
        "validate_judgement_empirically",
    ),
    "strategy": ("verify_procedure", "derive", "needed_pre"),
    # CandidatePool.build is left to VerifCtx.build: set-up is repeated
    # until a time budget is spent, so its call count would not repeat
    "kernel": ("informative_kernel", "alpha_deduce", "alpha_abduce"),
    "assertions": ("assertion_holds", "assertion_implies"),
    "statelogic": ("state_implies", "state_implies_counterexample"),
    "lang": ("interpret", "RunContext.post_states", "RunContext.all_states"),
    "reasoning": ("entails", "consistent", "find_model"),
}

QUERIES = ("reasoning.entails", "reasoning.consistent")


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        # open spans: [name, start, time covered by child spans]
        self._stack: list[list] = [["<pass>", 0.0, 0.0]]

    def wrap(self, name: str, fn):
        stack = self._stack
        calls, total_s, self_s, edges = self.calls, self.total_s, self.self_s, self.edges
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            calls[name] += 1
            edges[(parent[0], name)] += 1
            span = [name, clock(), 0.0]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - span[1]
                stack.pop()
                total_s[name] += duration
                self_s[name] += duration - span[2]
                parent[2] += duration

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times, named as in BENCHMARK.json."""

        def layer_self(layer: str) -> float:
            return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)

        def queries_from(layer: str) -> int:
            return sum(
                n
                for (parent, child), n in self.edges.items()
                if child in QUERIES and parent.split(".")[0] == layer
            )

        queries = sum(self.calls[q] for q in QUERIES)
        searches = self.calls["reasoning.find_model"]
        return {
            "kernel.calls": sum(
                n for k, n in self.calls.items() if k.startswith("kernel.")
            ),
            "kernel.self_s": layer_self("kernel"),
            "reasoning.searches": searches,
            "reasoning.search_s": self.total_s["reasoning.find_model"],
            "reasoning.queries": queries,
            "reasoning.searches_per_query": searches / queries if queries else 0.0,
            "reasoning.queries.by-kernel": queries_from("kernel"),
            "reasoning.queries.by-assertions": queries_from("assertions"),
            "reasoning.queries.by-calculus": queries_from("calculus"),
            "reasoning.self_s": layer_self("reasoning"),
            "statelogic.implies.calls": self.calls["statelogic.state_implies"]
            + self.calls["statelogic.state_implies_counterexample"],
            "statelogic.self_s": layer_self("statelogic"),
            "lang.interpret.calls": self.calls["lang.interpret"],
            "lang.post_states.calls": self.calls["lang.RunContext.post_states"],
            "lang.self_s": layer_self("lang"),
            "assertions.holds.calls": self.calls["assertions.assertion_holds"],
            "assertions.implies.calls": self.calls["assertions.assertion_implies"],
            "assertions.self_s": layer_self("assertions"),
            "strategy.self_s": layer_self("strategy"),
            "calculus.rules": self.calls["calculus.apply_rule"],
            "calculus.check.self_s": self.self_s["calculus.check_proof"],
            "calculus.validate.self_s": self.self_s[
                "calculus.validate_judgement_empirically"
            ],
            "parsing.self_s": layer_self("parsing"),
            "serialize.self_s": layer_self("serialize"),
        }

    def table(self) -> dict:
        """Per-function and per-edge totals, for the trace file."""
        return {
            "functions": {
                k: {
                    "calls": self.calls[k],
                    "total_s": self.total_s[k],
                    "self_s": self.self_s[k],
                }
                for k in sorted(self.calls)
            },
            "edges": [
                {"parent": p, "child": c, "calls": n}
                for (p, c), n in sorted(self.edges.items())
            ],
        }


def install(tracer: Tracer) -> None:
    """Wrap every function in TRACED, wherever a twotier module binds it."""
    for layer in TRACED:
        importlib.import_module(f"twotier.{layer}")
    modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "twotier"]
    for layer, names in TRACED.items():
        module = sys.modules[f"twotier.{layer}"]
        for dotted in names:
            owner_name, _, attr = dotted.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = tracer.wrap(f"{layer}.{dotted}", fn)
            if owner_name:
                setattr(owner, attr, staticmethod(wrapped) if raw is not fn else wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)
