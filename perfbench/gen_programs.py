"""Seeded random programs over the corrected assembly kb, as concrete syntax.

Each program is the corpus program `assembly_corrected` with its
`assembly` procedure replaced by one generated procedure `generated(id)`
of at most six statements: assignments of 0, 2, 4, `nrDoors` or `id`,
conditionals, `while (v) do v := 0; od` loops and calls `addWheels(4)`.
Its contract has liftable state tiers over equalities and `!= 0`, and one
postcondition in four also asks for the domain goal `HasFourWheels(c)`.
The random choices are drawn in the same order as the generator of
acceptance criterion 6, so a seed gives the same procedures that test
builds from it.

    python3 perfbench/gen_programs.py SEED COUNT OUT_DIR   # OUT_DIR/gen_000.prog, ...
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

CORPUS = Path(__file__).resolve().parent.parent / "src" / "twotier" / "corpus"
HOST_STEM = "assembly_corrected"
ASSIGNABLE = ("wheels", "doors", "bodyId", "nrDoors")
VALUES = (0, 2, 4)


def host_text() -> str:
    """Globals and the library procedure addWheels of the host program."""
    text = (CORPUS / f"{HOST_STEM}.prog").read_text(encoding="utf-8")
    return text[: text.index("\nproc assembly(")]


def _procedure(rng: random.Random) -> str:
    def simple() -> str:
        v = rng.choice(ASSIGNABLE)
        if rng.random() < 0.7:
            return f"{v} := {rng.choice(VALUES)};"
        return f"{v} := {rng.choice(('nrDoors', 'id'))};"

    stmts: list[str] = []
    budget = rng.randint(1, 6)
    while len(stmts) < budget:
        roll = rng.random()
        if roll < 0.55 or budget - len(stmts) < 2:
            stmts.append(simple())
        elif roll < 0.75:
            cond = rng.choice(ASSIGNABLE)
            then = simple()
            stmts.append(f"if ({cond}) then {then} else {simple()} fi")
        elif roll < 0.9:
            v = rng.choice(ASSIGNABLE)
            stmts.append(f"while ({v}) do {v} := 0; od")
        else:
            stmts.append("addWheels(4);")

    def liftable(vs: list[str]) -> list[str]:
        picks = rng.sample(vs, rng.randint(0, min(2, len(vs))))
        return [
            f"{v} == {rng.choice(VALUES)}" if rng.random() < 0.7 else f"{v} != 0"
            for v in picks
        ]

    def tier(domain: str, state: list[str]) -> str:
        return f"[ {domain} | {' && '.join(state) or '-'} ]"

    pre = tier("-", liftable(["nrDoors", "id", "bodyId"]))
    if rng.random() < 0.25:
        post = tier("HasFourWheels(c)", liftable(["doors"]) + ["wheels == 4"])
    else:
        post = tier("-", liftable(["wheels", "doors", "bodyId"]))
    body = "\n".join(f"  {s}" for s in stmts)
    return f"proc generated(id)\n  requires {pre}\n  ensures {post}\nbegin\n{body}\nend;\n"


def programs(seed: int, count: int) -> list[str]:
    """`count` program texts, each the host plus one generated procedure."""
    rng = random.Random(seed)
    host = host_text()
    return [f"{host}\n{_procedure(rng)}" for _ in range(count)]


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__.split("\n\n")[-1].strip())
    out = Path(sys.argv[3])
    out.mkdir(parents=True, exist_ok=True)
    for i, text in enumerate(programs(int(sys.argv[1]), int(sys.argv[2]))):
        (out / f"gen_{i:03d}.prog").write_text(text, encoding="utf-8")
