"""Time to a verdict for the nksl3 command line, on three workloads.

    python3 perfbench/run.py --workload {verify_all,case4_dense_grid,
                                         sampled_sweeps,all}
                             --seed N --seconds S --trace {0,1}

A round is one fresh Python process (perfbench/round.py) that imports
`nksl3.cli` from ./src and calls `cli.main` on the workload's argument
lists.  A run repeats whole rounds, one after another, as many as fit in S
seconds (at least one), checks every report against facts computed apart
from the program (perfbench/facts.py), and prints, as its last line, one
JSON object: the medians over rounds of the end-to-end metrics (--trace 0),
or the per-layer metrics of one extra traced round (--trace 1).  Each check
in a report is one operation; a check reported `fail` is a failed one.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import facts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SAMPLES = 500          # --samples of sampled_sweeps
TOL = 1e-8             # the CLI's default --tol
DENSE_STEP = Fraction(1, 40)
SETUP_PROCESSES = 4    # import-only processes per run, besides the rounds
ROUND_TIMEOUT_S = 150


def dense_grid(seed: int) -> str:
    """A 1/40-step case-4 grid over a ∈ (δa, δa + 3], b ∈ [δb − 3, δb + 3].
    The seed picks the offsets δa, δb ∈ [0, 1/40), which move every cell
    but keep 120 × 241 cells per ε."""
    rng = random.Random(seed)
    da, db = (Fraction(rng.randrange(40), 1600) for _ in range(2))
    return f"{da}:{da + 3}:{DENSE_STEP},{db - 3}:{db + 3}:{DENSE_STEP}"


def workload(name: str, seed: int) -> tuple[list[list[str]], dict]:
    """The argument lists of one round, and what their reports must show."""
    common = ["--seed", str(seed), "--format", "json"]
    if name == "verify_all":
        return [["all", *common]], {"samples": 100, "grid": facts.DEFAULT_GRID,
                                    "controls": True}
    if name == "case4_dense_grid":
        grid = dense_grid(seed)
        return ([["classify", "--grid", grid, *common]],
                {"samples": 100, "grid": grid, "controls": True})
    if name == "sampled_sweeps":
        return ([[suite, "--samples", str(SAMPLES), *common]
                 for suite in ("field", "algebra", "examples")],
                {"samples": SAMPLES, "grid": None, "controls": False})
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify_all", "case4_dense_grid", "sampled_sweeps")


def spawn(arglists, *, setup_only=False, controls=False, trace=None) -> dict:
    command = [sys.executable, str(HERE / "round.py"), str(ROOT),
               json.dumps(arglists)]
    if setup_only:
        command.append("--setup-only")
    if controls:
        command.append("--controls")
    if trace is not None:
        command += ["--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S, cwd=ROOT,
                          env={**os.environ,
                               "PYTHONHASHSEED": "0"})
    if done.returncode != 0:
        raise RuntimeError(f"round failed ({done.returncode}):\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_round(result: dict, arglists, expect: dict, seed: int
                ) -> tuple[int, int, list[str]]:
    """(operations attempted, failed, problems) of one round's reports."""
    attempted = failed = 0
    problems: list[str] = []
    for argv, code, report in zip(arglists, result["codes"], result["reports"]):
        statuses = [check["status"] for check in report["checks"]]
        attempted += len(statuses)
        failed += sum(status != "pass" for status in statuses)
        if code != (0 if all(s == "pass" for s in statuses) else 1):
            problems.append(f"{argv[0]}: exit code {code} for {statuses}")
        if (report["suite"], report["seed"]) != (argv[0], seed):
            problems.append(f"{argv[0]}: report is for suite "
                            f"{report['suite']} seed {report['seed']}")
        names = {check["name"] for check in report["checks"]}
        missing = facts.checks_with_facts(argv[0]) - names
        if missing:
            problems.append(f"{argv[0]}: no {', '.join(sorted(missing))}")
        for check in report["checks"]:
            if check["status"] == "pass":
                problems += facts.witness_problems(
                    check["name"], check["witness"], seed=seed,
                    samples=expect["samples"], tol=TOL,
                    grid=expect["grid"] or facts.DEFAULT_GRID)
    if expect["controls"]:
        got = result["controls"]
        expected = list(facts.CONTROLS.values())
        if got != expected:
            problems.append(f"controls {list(facts.CONTROLS)}: "
                            f"rational_tangency gave {got}, expected {expected}")
    return attempted, failed, problems


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 spec: dict) -> dict:
    arglists, expect = workload(name, seed)
    problems: list[str] = []
    ricci_error, sectional = facts.float_curvature()
    if not (ricci_error <= facts.FLOAT_TOL
            and abs(sectional - 4.0) <= facts.FLOAT_TOL):
        problems.append(f"float recomputation: |Ric - 5g| = {ricci_error:.3e},"
                        f" K(e1, e2) = {sectional!r}")

    spawn([], setup_only=True)   # writes the bytecode caches of a fresh checkout
    rounds = []
    attempted = failed = 0
    start, took = time.perf_counter(), 0.0
    # Start a round only while one as long as the last still fits.
    while not rounds or time.perf_counter() - start + took <= seconds:
        began = time.perf_counter()
        result = spawn(arglists, controls=expect["controls"])
        took = time.perf_counter() - began
        a, f, p = check_round(result, arglists, expect, seed)
        attempted, failed, problems = attempted + a, failed + f, problems + p
        rounds.append(result)
        print(f"{name} round {len(rounds)}: verdict {result['verdict_s']:.3f} s,"
              f" setup {result['setup_s']:.3f} s, {a} checks, {f} failed",
              flush=True)

    def median(key: str) -> float:
        return statistics.median(r[key] for r in rounds)

    if trace:
        OUT.mkdir(exist_ok=True)
        result = spawn(arglists, controls=expect["controls"],
                       trace=OUT / f"trace_{name}_seed{seed}.json.gz")
        a, f, p = check_round(result, arglists, expect, seed)
        attempted, failed, problems = attempted + a, failed + f, problems + p
        values = dict(result["layer"])
        values["trace.verdict_s"] = result["verdict_s"]
        values["trace.overhead_s"] = result["verdict_s"] - median("verdict_s")
        wanted = spec["per_layer"]
    else:
        setups = [r["setup_s"] for r in rounds]
        setups += [spawn([], setup_only=True)["setup_s"]
                   for _ in range(SETUP_PROCESSES)]
        values = {"setup_s": statistics.median(setups),
                  "verdict_s": median("verdict_s"),
                  "cpu_s": median("cpu_s"),
                  "peak_rss_mb": median("peak_rss_mb")}
        wanted = spec["end_to_end"]
    mismatch = {m["name"] for m in wanted} ^ set(values)
    if mismatch:
        raise RuntimeError(f"metrics missing or unknown: {sorted(mismatch)}")
    for problem in problems:
        print(f"{name}: INCORRECT: {problem}", flush=True)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "rounds": len(rounds),
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "nksl3" / "cli.py").is_file():
        print(f"no nksl3 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace), spec)
        r = results[name]
        print(f"{name}: {r['rounds']} rounds, {r['attempted']} operations "
              f"attempted, {r['failed']} failed, correct {r['correct']}")
        for metric, value in r["metrics"].items():
            print(f"{name}: {metric} = {value['value']:.6g} {value['unit']}")

    if len(results) == 1:
        (summary,) = results.values()
        metrics = summary["metrics"]
    else:
        metrics = {f"{name}.{metric}": value for name, r in results.items()
                   for metric, value in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
