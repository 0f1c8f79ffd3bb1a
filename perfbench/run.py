"""Benchmark of twotier's verify, check and fuzz paths.

    python3 perfbench/run.py --workload {scaled,generated,corpus} --seed N
                             --seconds S --trace {0,1}

Run from the root of a checkout that holds `src/twotier`.  The command
runs passes of the workload, each in a fresh interpreter, one after the
other, until `--seconds` have gone by (at least one pass), and prints as
its last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` it alternates untraced and traced passes and reports the
per-layer ones.  Every pass is also written to `perfbench/out/`.  See
perfbench/README.md for the workloads, the metrics and how they are
aggregated.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("scaled", "generated", "corpus")
PASS_TIMEOUT_S = 170


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, seed: int, trace: bool, size: int | None = None) -> dict:
    """One pass in a fresh interpreter; its JSON record."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload]
    cmd += ["--seed", str(seed)]
    if size is not None:
        cmd += ["--size", str(size)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(seed))
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise PassFailed(proc.stderr.strip()[-2000:] or f"exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(passes: list[dict]) -> dict[str, tuple[float, str]]:
    """Each metric as the median over passes; per-procedure times are first
    taken as each procedure's median over passes."""
    keys = passes[0]["proc_ms"]
    proc_ms = sorted(median([p["proc_ms"][k] for p in passes]) for k in keys)
    return {
        "setup_s": (median([p["setup_s"] for p in passes]), "s"),
        "wall_s": (median([p["wall_s"] for p in passes]), "s"),
        "verify_s": (sum(proc_ms) / 1e3, "s"),
        "proc_p50_ms": (median(proc_ms), "ms"),
        "proc_p98_ms": (statistics.quantiles(proc_ms, n=50, method="inclusive")[-1], "ms"),
        "fuzz_states_per_s": (
            median([p["fuzz_states"] / p["fuzz_s"] for p in passes]),
            "1/s",
        ),
        "peak_rss_mb": (median([p["peak_rss_mb"] for p in passes]), "MB"),
        "closed_procs": (median([p["closed"] for p in passes]), "count"),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    out = {}
    for name in traced[0]["layers"]:
        value = median([p["layers"][name] for p in traced])
        last = name.split(".")[-1]
        if last.endswith("_s"):
            unit = "s"
        elif last == "searches_per_query":
            unit = "1"
        else:
            unit = "count"
        out[name] = (value, unit)
    overhead = median([p["wall_s"] for p in traced]) - median(
        [p["wall_s"] for p in untraced]
    )
    out["trace.overhead_s"] = (overhead, "s")
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, size=None) -> dict:
    """Run passes for `seconds` and return the result object."""
    started = time.perf_counter()
    untraced: list[dict] = []
    traced: list[dict] = []
    while True:
        want_traced = trace and len(traced) < len(untraced)
        record = run_pass(workload, seed, want_traced, size)
        (traced if want_traced else untraced).append(record)
        done = time.perf_counter() - started >= seconds
        if done and (not trace or traced):
            break
    passes = untraced + traced
    if trace:
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(untraced)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if traced:
        tables = [p.pop("trace") for p in traced]
        (OUT / f"trace-{stem}.json").write_text(json.dumps(tables[-1], indent=1) + "\n")
    (OUT / f"result-{stem}.json").write_text(json.dumps(passes, indent=1) + "\n")
    errors = [e for p in passes for e in p["errors"]]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    for f in [f for p in passes for f in p["failures"]][:20]:
        print(f"operation failed: {f}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "twotier" / "__init__.py").is_file():
        print(f"no twotier sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"pass failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
