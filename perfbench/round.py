"""One round of a workload in a fresh Python process.

    python3 perfbench/round.py ROOT ARGLISTS_JSON [--setup-only]
                               [--controls] [--trace FILE]

Imports `nksl3.cli` from ROOT/src (that is the set-up), calls `cli.main`
on each argument list in turn with its report captured (the verdict), and
prints one JSON object: the timings, the exit codes and the reports.
Nothing is warmed first: every cache the program builds is paid for here.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path


def _mul_ns(pairs, repeats: int = 15) -> float:
    """Median nanoseconds per FieldElem product over a fixed operand set."""
    per_product = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for x, y in pairs:
            x * y
        per_product.append((time.perf_counter_ns() - start) / len(pairs))
    return statistics.median(per_product)


def _operands(field_elem):
    """Fixed operand sets: sparse rationals with the small denominators of
    the curvature route, and dense four-coordinate elements."""
    rng = random.Random(20260118)

    def rational():
        return field_elem(Fraction(rng.choice((-1, 1)) * rng.randint(1, 12),
                                   rng.choice((1, 2, 4))))

    def dense():
        return field_elem(*(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                     rng.randint(1, 9)) for _ in range(4)))

    return ([(rational(), rational()) for _ in range(256)],
            [(dense(), dense()) for _ in range(256)])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("root", type=Path)
    parser.add_argument("arglists")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--controls", action="store_true")
    parser.add_argument("--trace", type=Path, default=None)
    args = parser.parse_args()

    src = (args.root / "src").resolve()
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    import nksl3.cli as cli
    setup_s = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"nksl3 was imported from {cli.__file__}, not {src}")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    layer = {}
    if args.trace:
        import spans
        from nksl3.exactfield import FieldElem
        rational, dense = _operands(FieldElem)
        layer["exactfield.mul_rational.ns"] = _mul_ns(rational)
        layer["exactfield.mul_dense.ns"] = _mul_ns(dense)
        tracer = spans.Tracer()
        spans.install(tracer)

    arglists = json.loads(args.arglists)
    codes, reports = [], []
    start = time.perf_counter()
    for argv in arglists:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes.append(cli.main(argv))
        reports.append(out.getvalue())
    verdict_s = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)

    if tracer is not None:
        spec = json.loads((args.root / "BENCHMARK.json").read_text())
        layer.update(spans.layer_metrics(
            tracer, [m["name"] for m in spec["per_layer"]]))
        tracer.write(args.trace)

    controls = []
    if args.controls:
        import facts
        from nksl3.classify import rational_tangency
        controls = [rational_tangency(x) for x in facts.CONTROLS]

    print(json.dumps({
        "setup_s": setup_s,
        "verdict_s": verdict_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "codes": codes,
        "reports": [json.loads(text) for text in reports],
        "controls": controls,
        "layer": layer,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
