"""cantorkit benchmark: one workload run, with its answers checked.

Usage, from the root of a checkout:

    python3 bench/run.py --workload stages|queries|cli --seed N --seconds S --trace 0|1

Each run repeats whole rounds of the workload's fixed operation list until
S seconds have passed (at least MIN_ROUNDS rounds), checks every answer
against the benchmark's own computation, and prints one JSON object as the
last line of stdout: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones (see README.md). With
--trace 1 untraced and traced rounds take turns; the run reports per-layer
figures from spans recorded around cantorkit's public functions, and the
tracing overhead. Results and spans are also written under bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from ops import BENCH_DIR, FAILED, OK, OUT_DIR, ROOT, child_env

WORKLOADS = ("stages", "queries", "cli")
MIN_ROUNDS = 3
SETUP_PROBES = 11
IMPORT_PROBES = 7


def _python(args: list[str]) -> str:
    """stdout of a fresh interpreter; `-S` leaves out the host's site hooks."""
    done = subprocess.run([sys.executable, "-S", *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


def import_ms() -> float:
    """Median `import cantorkit.cli` start minus median bare interpreter start."""
    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        for args, times in ((["-c", "pass"], bare), (["-c", "import cantorkit.cli"], full)):
            start = perf_counter()
            _python(args)
            times.append(perf_counter() - start)
    return 1000 * (statistics.median(full) - statistics.median(bare))


class Rounds:
    """Runs whole rounds of the operations, timing and checking each call."""

    def __init__(self, ops: list, rng: random.Random):
        self.ops = ops
        self.rng = rng
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.sizes: list[int | None] = [None] * len(ops)

    def fresh(self) -> list[float]:
        return [math.inf] * len(self.ops)

    def round(self, best: list[float], tracer=None, ops: list | None = None) -> None:
        """One call of every operation, in a fresh seeded order.

        Only each operation's fastest call is kept, so the benchmark's own
        memory does not grow with the number of rounds. `ops` runs other
        operations in their place, judged by the same checks.
        """
        ops = ops or self.ops
        order = list(range(len(ops)))
        self.rng.shuffle(order)
        for i in order:
            elapsed, out, raised = self._call(ops[i], tracer)
            best[i] = min(best[i], elapsed)
            self._judge(i, out, raised)
            del out  # freed here, not inside the next timed call

    @staticmethod
    def _call(op, tracer) -> tuple[float, object, bool]:
        span = tracer.open(op.name) if tracer else None
        t0 = perf_counter()
        try:
            out, raised = op.run(), False
        except Exception as exc:  # an escaped error counts as a failed operation
            out, raised = exc, True
        elapsed = perf_counter() - t0
        if tracer:
            tracer.close(span)
        return elapsed, out, raised

    def _judge(self, i: int, out, raised: bool) -> None:
        op = self.ops[i]
        status = FAILED if raised else op.check(out)
        self.attempted += 1
        if status == FAILED:
            self.failed += 1
        elif status != OK:
            self.wrong.append(f"{op.name}: {status}")
        elif self.sizes[i] is None:
            self.sizes[i] = op.size(out)


def job_seconds(best: list[float]) -> float:
    """Sum over operations of each one's fastest call."""
    return sum(best)


def request_seconds(ops: list, best: list[float]) -> list[float]:
    """Each request's time: the fastest calls of its operations, summed."""
    sums: dict = {}
    for i, (op, t) in enumerate(zip(ops, best)):
        key = i if op.request is None else ("request", op.request)
        sums[key] = sums.get(key, 0.0) + t
    return list(sums.values())


def end_to_end(workload: str, seed: int, seconds: float, rounds: Rounds,
               peak_kib: int | None) -> tuple[dict, dict]:
    """The end-to-end metrics of one untraced run.

    Calls of a few milliseconds run at full speed only now and then on a
    shared host, so an operation's fastest call is its steady figure: job_s
    sums them, and the request percentiles are taken over the requests'
    sums of them. Set-up is timed SETUP_PROBES times in fresh interpreters,
    spread evenly between the rounds so that one slow phase of the host
    does not hold every probe; setup_s is their median.
    """
    probe = [str(BENCH_DIR / "probe_setup.py"), workload, str(seed)]
    _python(probe)  # warms the file cache; not counted
    best, setups, done = rounds.fresh(), [], 0
    start = perf_counter()
    while done < MIN_ROUNDS or perf_counter() - start < seconds:
        if len(setups) < SETUP_PROBES and \
                perf_counter() - start >= len(setups) * seconds / SETUP_PROBES:
            setups.append(float(_python(probe)))
        rounds.round(best)
        done += 1
    while len(setups) < SETUP_PROBES:
        setups.append(float(_python(probe)))
    latencies = request_seconds(rounds.ops, best)
    if peak_kib is None:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "job_s": (job_seconds(best), "s"),
        "request_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "request_p90_ms": (1000 * statistics.quantiles(latencies, n=10)[-1], "ms"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
        "output_bytes": (sum(s or 0 for s in rounds.sizes), "bytes"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, {"rounds": done,
                     "op_best_s": [[op.name, t] for op, t in zip(rounds.ops, best)]}


def traced(workload: str, seed: int, seconds: float, rounds: Rounds, module) -> tuple[dict, dict]:
    """Untraced and traced rounds taken in turn, so host drift hits both alike."""
    from spans import Tracer
    plain, with_spans = rounds.fresh(), rounds.fresh()
    tracer = Tracer()
    tracer.install()
    try:
        setup = tracer.open("setup")
        module.make_inputs(seed)
        tracer.close(setup)
    finally:
        tracer.uninstall()
    start, done = perf_counter(), 0
    while done < 2 * MIN_ROUNDS or perf_counter() - start < seconds:
        if done % 2:
            tracer.round = done // 2
            tracer.install()
            try:
                rounds.round(with_spans, tracer)
            finally:
                tracer.uninstall()
        else:
            rounds.round(plain)
        done += 1
    tracer.write(OUT_DIR / f"trace-{workload}-seed{seed}.jsonl")
    metrics = tracer.layer_metrics()
    metrics["cli.import_ms"] = (import_ms(), "ms")
    overhead = job_seconds(with_spans) - job_seconds(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, {"spans": len(tracer.spans), "job_s_untraced": job_seconds(plain)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "cantorkit" / "__init__.py").is_file():
        print(f"no cantorkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)

    module = importlib.import_module(f"workload_{args.workload}")
    import cantorkit
    if not cantorkit.__file__.startswith(str(ROOT / "src")):
        print(f"cantorkit imported from {cantorkit.__file__}, not this checkout", file=sys.stderr)
        return 2
    if args.workload == "cli":
        module.write_spec_file()
    inputs = module.make_inputs(args.seed)
    peak_kib = None
    if args.workload == "cli":
        rounds = Rounds(module.make_ops(inputs, module.run_in_process), random.Random(args.seed))
        # One untimed round of real `python -m cantorkit` processes checks
        # the process-level contract and gives the request processes' peak
        # memory; the timed rounds call cantorkit.cli.main in this process.
        spawner = module.SubprocessRunner()
        rounds.round(rounds.fresh(), ops=module.make_ops(inputs, spawner))
        peak_kib = spawner.peak_kib
    else:
        rounds = Rounds(module.make_ops(inputs), random.Random(args.seed))
    # Keep the benchmark's own inputs and expected answers out of the
    # collections the program's allocations trigger.
    gc.collect()
    gc.freeze()

    if args.trace:
        metrics, detail = traced(args.workload, args.seed, args.seconds, rounds, module)
    else:
        metrics, detail = end_to_end(args.workload, args.seed, args.seconds, rounds, peak_kib)

    for reason in rounds.wrong[:20]:
        print(f"wrong answer: {reason}", file=sys.stderr)
    result = {
        "correct": not rounds.wrong,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, **detail)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
