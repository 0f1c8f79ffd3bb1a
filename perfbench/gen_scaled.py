"""The scaled program family sN, as concrete syntax.

Part i of sN declares `concept Has_i`, role `p_i`, stub individual `v_i`
and variable `x_i`, with `some p_i . some hasValue . (i+1) == Has_i`,
`p_i(c, v_i)` and `stub p_i(c, v_i) for var x_i`.  It has one procedure
`set_i(a_i)` with `requires [ - | a_i == i+1 ] ensures [ Has_i(c) | - ]`
and body `x_i := a_i`.  `Assembled == Has_0 & ... & Has_{N-1} & Car`
ties the parts into one terminology, so the whole program is one
verification context whose kernel pool grows with N.

Every `set_i` is Closed by construction: `x_i := a_i` under `a_i == i+1`
gives `hasValue(v_i, i+1)`, which with `p_i(c, v_i)` entails `Has_i(c)`.

The seed only shuffles the order in which parts are declared, so every
seed gives a program of the same size and make-up.

    python3 perfbench/gen_scaled.py N SEED OUT_STEM   # writes OUT_STEM.kb/.prog
"""

from __future__ import annotations

import random
import sys


def scaled(n: int, seed: int) -> tuple[str, str]:
    """(kb text, program text) of sN with parts declared in seeded order."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    kb = ["concept Assembled;", "concept Car;"]
    kb += [f"concept Has_{i};" for i in order]
    kb += [f"role p_{i};" for i in order]
    kb += ["data-role hasValue;", "individual c;"]
    kb += [f"individual v_{i};" for i in order]
    kb.append("")
    for i in order:
        kb.append(f"some p_{i} . some hasValue . {i + 1} == Has_{i};")
        kb.append(f"p_{i}(c, v_{i});")
    kb.append(
        "Assembled == " + " & ".join([f"Has_{i}" for i in range(n)] + ["Car"]) + ";"
    )
    kb.append("Car(c);")
    kb.append("")
    kb += [f"stub p_{i}(c, v_{i}) for var x_{i};" for i in order]
    kb += ["", "closure on;"]

    prog = [f"var x_{i} = 0;" for i in order]
    for i in order:
        prog += [
            "",
            f"proc set_{i}(a_{i})",
            f"  requires [ - | a_{i} == {i + 1} ]",
            f"  ensures [ Has_{i}(c) | - ]",
            "begin",
            f"  x_{i} := a_{i};",
            "end;",
        ]
    return "\n".join(kb) + "\n", "\n".join(prog) + "\n"


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__.split("\n\n")[-1].strip())
    kb_text, prog_text = scaled(int(sys.argv[1]), int(sys.argv[2]))
    with open(sys.argv[3] + ".kb", "w", encoding="utf-8") as f:
        f.write(kb_text)
    with open(sys.argv[3] + ".prog", "w", encoding="utf-8") as f:
        f.write(prog_text)
