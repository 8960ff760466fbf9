"""Benchmark runner for permtwist: one workload per process, stdlib only.

    python3 bench/run.py --workload intertwine --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

A run repeats whole rounds until `--seconds` have passed.  Each round starts
from a fresh import of permtwist (every module is dropped from sys.modules
first), so module-level and per-system caches start cold, as they do for a
CLI invocation.  A round times its set-up, then each operation; the checks
against the oracles run between operations, untimed.

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics; with `--trace 1` the run alternates untraced and
traced rounds and reports the per-layer metrics instead.  The exit status is
0 when every check passed, 1 when one failed, 2 when the program could not
be found or set up.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("exact", "lattice", "cocycle", "fock", "coeffs", "vertexops",
           "characters", "isomap", "cli")
END_TO_END = (("setup_s", "s"), ("verdict_s", "s"), ("op_p50_ms", "ms"),
              ("op_p95_ms", "ms"), ("peak_rss_mib", "MiB"))


# Measured intervals are rescaled to a reference interpreter speed.  On a
# shared machine the speed of pure-Python code drifts by 20-50% over seconds
# (the same run of operations reads 4.4 s in one run and 5.9 s in the next),
# which no number of rounds averages away.  A fixed reference kernel, timed
# at least every CALIBRATE_EVERY_S between operations, tracks that drift:
# an interval's reported time is its measured time times
# REFERENCE_S / (mean of the kernel times measured just before and after).
REFERENCE_S = 0.002
CALIBRATE_EVERY_S = 0.05


def _reference_kernel():
    """Small-Fraction arithmetic and tuple-keyed dict updates, the mix of
    permtwist's inner loops."""
    table = {}
    for i in range(1, 300):
        value = Fraction(i % 7 - 3, i % 5 + 1) * Fraction(i % 3 + 1, 4)
        key = ((i % 11, i % 3), (i * 7) % 13)
        prev = table.get(key)
        table[key] = value if prev is None else prev + value
    return table


def reference_time() -> float:
    """How long the reference kernel takes right now, collector paused."""
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


class ReferenceClock:
    """Collects measured intervals and rescales them at each calibration."""

    def __init__(self):
        self.last = reference_time()
        self.since = time.perf_counter()
        self.pending: list[tuple[list, int]] = []
        self.raw = self.scaled = 0.0

    def record(self, into: list, seconds: float) -> None:
        """Append an interval to `into`; it is rescaled at the next calibration."""
        into.append(seconds)
        self.pending.append((into, len(into) - 1))
        if time.perf_counter() - self.since >= CALIBRATE_EVERY_S:
            self.calibrate()

    def calibrate(self) -> None:
        if not self.pending:
            return
        now = reference_time()
        factor = 2 * REFERENCE_S / (self.last + now)
        for into, i in self.pending:
            self.raw += into[i]
            into[i] *= factor
            self.scaled += into[i]
        self.pending.clear()
        self.last = now
        self.since = time.perf_counter()

    def factor(self) -> float:
        """The mean rescaling factor of every interval calibrated so far."""
        return self.scaled / self.raw if self.raw else 1.0


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout


def fresh_import() -> SimpleNamespace:
    """Import permtwist as a new interpreter would, dropping earlier copies."""
    for name in [n for n in sys.modules if n == "permtwist" or n.startswith("permtwist.")]:
        del sys.modules[name]
    return SimpleNamespace(**{n: importlib.import_module(f"permtwist.{n}") for n in MODULES})


class Run:
    """The state one run accumulates over its rounds."""

    def __init__(self, ctx: workloads.Context):
        self.ctx = ctx
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.verified: set[str] = set()   # families whose verify has run
        self.witnessed: set[str] = set()  # ... and found a nonzero image
        self.verify_s = 0.0               # time spent in verify, not measured
        self.errors: list[str] = []

    def fail_check(self, message: str) -> None:
        self.correct = False
        if len(self.errors) < 10:
            self.errors.append(message)

    def round(self, tracer: tracing.Tracer | None = None):
        """One round; returns (setup_s, verdict_s, op latencies in seconds),
        all rescaled to the reference speed, and the round's mean rescaling
        factor."""
        gc.collect()
        clock = ReferenceClock()
        setup = []
        start = time.perf_counter()
        mods = fresh_import()
        if tracer is not None:
            tracer.install(mods)
            tracer.active = True
        built = self.ctx.build(mods, self.ctx)
        ops = self.ctx.shuffled(built.ops)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        clock.record(setup, elapsed)
        clock.calibrate()

        comparisons = dict.fromkeys(built.families, 0)
        nonzero = set()
        broken = set()                 # families with a timed-out operation
        latencies = []
        for i, op in enumerate(ops):
            self.attempted += 1
            value, error, timed_out = None, None, False
            if tracer is not None:
                tracer.op = i
                tracer.active = True
            if op.limit_s is not None:
                signal.setitimer(signal.ITIMER_REAL, op.limit_s)
            t0 = time.perf_counter()
            try:
                value = op.run()
            except OpTimeout:
                timed_out = True
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            finally:
                elapsed = time.perf_counter() - t0
                if op.limit_s is not None:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                if tracer is not None:
                    tracer.active = False
            if timed_out:
                # Only an operation with a time limit, the known hang, may
                # fail.  It costs its full limit, so mending it cannot read
                # as a slowdown.
                self.failed += 1
                broken.add(op.family)
                if len(self.errors) < 10:
                    self.errors.append(f"{op.family}: timed out after {op.limit_s} s")
                latencies.append(op.limit_s)
                continue
            clock.record(latencies, elapsed)
            if error is not None:
                # any other failure is a fault of the program
                self.failed += 1
                self.fail_check(f"{op.family}: {error}")
                continue
            ok, image, count = op.check(value)
            if not ok:
                self.fail_check(f"{op.family}: check failed")
            comparisons[op.family] += count
            if image:
                nonzero.add(op.family)
        clock.calibrate()

        for family, spec in built.families.items():
            if family in broken:
                continue
            if comparisons[family] != spec.expected:
                self.fail_check(f"{family}: {comparisons[family]} comparisons, "
                                f"oracle expects {spec.expected}")
            if spec.verify is not None and family not in self.verified:
                self.verified.add(family)
                t0 = time.perf_counter()
                same, image = spec.verify()
                self.verify_s += time.perf_counter() - t0
                if not same:
                    self.fail_check(f"{family}: the benchmark's own comparison "
                                    f"of the images fails")
                if image:
                    self.witnessed.add(family)
            if family not in nonzero and family not in self.witnessed:
                self.fail_check(f"{family}: every compared image was zero")
        return setup[0], sum(latencies), latencies, clock.factor()


def percentile(values, q: int) -> float:
    """The q-th percentile (exclusive method) of at least two values."""
    return statistics.quantiles(values, n=100)[q - 1]


def measure(run: Run, seconds: float) -> dict:
    setups, verdicts, rounds = [], [], []
    start = time.perf_counter()
    while not verdicts or time.perf_counter() - start - run.verify_s < seconds:
        setup_s, verdict_s, lat, _ = run.round()
        setups.append(setup_s)
        verdicts.append(verdict_s)
        rounds.append(lat)
    # every round runs the same operations in the same order; each operation
    # counts once, at its median latency over the rounds
    latencies = [statistics.median(op) for op in zip(*rounds)]
    values = {
        "setup_s": statistics.median(setups),
        "verdict_s": statistics.median(verdicts),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p95_ms": 1e3 * percentile(latencies, 95),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def measure_traced(run: Run, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced rounds; report per-layer lower medians
    (an observed value, so counts stay whole numbers).  Self times are
    rescaled by their round's mean factor, as the end-to-end times are."""
    plain, traced, per_round = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start - run.verify_s < seconds:
        plain.append(run.round()[1])
        tracer = tracing.Tracer()
        _, verdict_s, _, factor = run.round(tracer)
        traced.append(verdict_s)
        per_round.append({name: value * factor if name.endswith("self_s") else value
                          for name, value in tracer.metrics().items()})
    tracer.write_spans(spans_path)
    overhead = statistics.median(traced) - statistics.median(plain)
    out = {}
    for name, unit in tracing.METRICS:
        value = overhead if name == "trace.overhead_s" else \
            statistics.median_low(r[name] for r in per_round)
        out[name] = {"value": value, "unit": unit}
    return out


def load_context(workload: str, seed: int) -> workloads.Context:
    """Parse the lattice files once, validate D4 and the oracles."""
    oracles.self_test()
    cli = fresh_import().cli
    grams = {name: cli.parse_lattice_file(str(ROOT / path)).gram
             for name, path in workloads.LATTICE_FILES.items()}
    oracles.check_d4(grams["D4"])
    return workloads.Context(ROOT, seed, grams, workload)


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, one summary line each."""
    results, status = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: no result (exit status {proc.returncode})")
            continue
        res = results[name] = json.loads(lines[-1])
        metrics = "  ".join(f"{k}={v['value']:.6g} {v['unit']}"
                            for k, v in res["metrics"].items())
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}  {metrics}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    if not (ROOT / "src" / "permtwist" / "__init__.py").is_file():
        print(f"error: no permtwist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        ctx = load_context(args.workload, args.seed)
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    run = Run(ctx)
    if args.trace:
        spans = ROOT / "bench" / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics = measure_traced(run, args.seconds, spans)
    else:
        metrics = measure(run, args.seconds)
    for line in run.errors:
        print(f"check: {line}", file=sys.stderr)
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
