"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ontokit is imported from `src/`.
Workloads: disease-cli, tbox-classify, abox-realize, publish-site (see
README.md). The run sets up, runs one untimed warm-up pass, then times
whole passes until S seconds have gone, checking every pass's outputs.

With --trace 0 it reports wall_s, setup_s and peak_rss_mb; with --trace 1
it wraps ontokit's public functions and reports the per-layer metrics of
spans.METRICS, writing the spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import elref
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Set-up is timed in this many fresh interpreters; the median is reported.
SETUP_REPEATS = 7

# Other load on the shared machine slows every computation on it, by up to
# 1.8 times, in stretches of seconds to minutes (README.md, Steadiness). So
# each timed stretch is followed by a reference computation that never
# changes with ontokit, and every time is reported scaled to a machine on
# which the reference takes REFERENCE_S seconds.
REFERENCE_S = 0.1


class Reference:
    """The reference computation: the benchmark's own EL classifier, six
    times on a fixed 100-class TBox, with the cyclic collector off so that
    the program's live objects cannot slow it."""

    def __init__(self):
        self.axioms = gen.tbox_spec(0, 100).axioms

    def seconds(self) -> float:
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(6):
                elref.classify(self.axioms)
            return time.perf_counter() - start
        finally:
            gc.enable()


def read_inputs(workload: str, seed: int) -> tuple:
    """What a user hands the program: the fixture files, or generated text."""
    if workload == "disease-cli":
        texts = []
        for name in ("disease.ofn", "table1.probes"):
            with open(os.path.join(ROOT, "fixtures", name), encoding="utf-8") as handle:
                texts.append(handle.read())
        return tuple(texts)
    return tuple(spec.text for spec in gen.workload_specs(workload, seed))


def setup_seconds(workload: str, seed: int) -> tuple:
    """Import ontokit (every module, the CLI included) and make the inputs;
    then time the reference computation."""
    reference = Reference()  # benchmark code, loaded before the clock starts

    start = time.perf_counter()
    import ontokit  # noqa: F401
    import ontokit.cli  # noqa: F401
    read_inputs(workload, seed)
    elapsed = time.perf_counter() - start
    return elapsed, reference.seconds()


def _setup_in_child(workload: str, seed: int) -> tuple:
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    setup, reference = done.stdout.split()[-2:]
    return float(setup), float(reference)


def scaled(times: list, references: list) -> float:
    """The median time, scaled as if the reference took REFERENCE_S."""
    return statistics.median(times) * REFERENCE_S / statistics.median(references)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def measure(workload: str, seed: int, seconds: float, trace: bool, scratch: str) -> dict:
    from spans import Tracer
    from workloads import make_workload  # imports ontokit: only once SRC is on the path

    bench = make_workload(workload, ROOT, seed, scratch)
    reference = Reference()
    errors = bench.cross_check()
    counts = {"attempted": 0, "failed": 0}
    failures: list = []

    def one_pass() -> float:
        start = time.perf_counter()
        done = bench.run_pass()
        elapsed = time.perf_counter() - start
        counts["attempted"] += done.attempted
        counts["failed"] += done.failed
        failures.extend(done.errors)
        errors.extend(bench.check(done))
        return elapsed

    one_pass()  # warm-up: caches fill and lazy imports finish
    reference.seconds()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.instrument()
    times: list = []
    references: list = []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        if tracer:
            tracer.begin_pass()
        times.append(one_pass())
        references.append(reference.seconds())
    if tracer:
        tracer.uninstrument()
        tracer.dump(os.path.join(OUT, f"trace-{workload}-{seed}.json"))
    return {"errors": errors, "failures": failures, "times": times,
            "references": references, "tracer": tracer, **counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("disease-cli", "tbox-classify", "abox-realize",
                                 "publish-site"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ontokit", "__init__.py")) \
            or not os.path.isfile(os.path.join(ROOT, "fixtures", "disease.ofn")):
        print(f"run.py: no ontokit source checkout at {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only:
        print(*setup_seconds(args.workload, args.seed))
        return 0

    setup = [_setup_in_child(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    times, references = run["times"], run["references"]
    if args.trace:
        factor = REFERENCE_S / statistics.median(references)
        metrics = run["tracer"].metrics()
        for metric in metrics.values():
            if metric["unit"] in ("s", "ms"):
                metric["value"] *= factor
        metrics["bench.traced_pass_s"] = {"value": scaled(times, references), "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": scaled(times, references), "unit": "s"},
            "setup_s": {"value": statistics.median(s * REFERENCE_S / r for s, r in setup),
                        "unit": "s"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "pass_times": times, "reference_times": references, "setup_times": setup,
              "errors": run["errors"][:50]}
    with open(os.path.join(OUT, f"run-{args.workload}-{args.seed}-{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for failure in sorted(set(run["failures"]))[:20]:
        print(f"run.py: operation failed: {failure}", file=sys.stderr)
    for error in run["errors"][:20]:
        print(f"run.py: check failed: {error}", file=sys.stderr)
    correct = not run["errors"]
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
