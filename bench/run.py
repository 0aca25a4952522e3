"""Pipeline benchmark: one workload's CLI ops, timed, checked and traced.

Run from the repository root:

    python3 bench/run.py --workload encode --seed 1 --seconds 30 --trace 0

An op is one CLI-mode invocation (``cli.parse_config`` then ``cli.run``)
on the workload's config, in this process, with BLAS/OpenMP pinned to one
thread.  Ops repeat until ``--seconds`` have passed since the measuring
began (the last op is let finish); op j gets the CLI seed
``1000 * seed + j``, so every run draws fresh power-iteration start vectors
(and, for ``reference``, a fresh initial state) from its own seed.  Each
op's output is checked outside the timed region; an op that raises, exits
non-zero or fails its check is a failed op.

``--trace 0`` reports the end-to-end metrics: the median op time, the
median time from a fresh interpreter to a parsed config (sampled between
ops over the whole run, so that both medians cover the same stretch of
time), and the peak RSS of this process when its first op ends.  A CLI
call runs one op per process, and later ops' peaks depend on when the
garbage collector ran, so the first op's peak is both the user's figure
and the steady one.
``--trace 1`` runs each op seed twice, untraced and traced (see
tracing.py), reports the per-layer metrics of the traced ops and the
tracing overhead, and writes the spans to ``.bench_out/``.  The last line
of standard output is always the JSON result.
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
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Read by OpenBLAS/MKL/OpenMP when numpy loads, so set before importing it.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

SETUP_SAMPLES = 7
# The child prints the shared monotonic clock once the config is parsed, so
# the figure ends there and not when the parent notices the exit.
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import vlasov_carleman; "
    "from vlasov_carleman import cli; cli.parse_config(sys.argv[2], sys.argv[3]); "
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))"
)


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


class SetupProbe:
    """Seconds from starting a fresh interpreter to a parsed config (import
    of the package plus ``cli.parse_config``), sampled at a steady pace over
    the run.  A first start, which may compile bytecode, is dropped."""

    def __init__(self, config: Path, mode: str):
        self.cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(config), mode]
        self.times: list[float] = []
        self._start()

    def _start(self) -> float:
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(self.cmd, check=True, timeout=120, capture_output=True, text=True)
        return float(done.stdout.split()[-1]) - t0

    def keep_pace(self, fraction: float) -> None:
        """Sample until a share `fraction` of the samples has been taken."""
        due = 1 + int((SETUP_SAMPLES - 1) * min(fraction, 1.0))
        while len(self.times) < due:
            self.times.append(self._start())


class Runner:
    """Runs, times and checks the ops of one workload."""

    def __init__(self, workload, seed: int, cli):
        self.workload = workload
        self.seed = seed
        self.cli = cli
        self.workdir = OUT / f"{workload.name}-{os.getpid()}"
        self.out_dir = self.workdir / "out"
        self.seeds = 0
        self.attempted = 0
        self.failed = 0
        self.plans: set[tuple] = set()
        self.rss_mb: float | None = None

    def ops(self, start: float, seconds: float, between) -> list[float]:
        """Run ops until `seconds` after `start`, calling `between` with the
        share of the time gone after each op but the last; return the times
        of the ops that passed."""
        timed = []
        while True:
            elapsed = self._checked_op(*self._next_seed())
            if elapsed is not None:
                timed.append(elapsed)
            gone = (time.perf_counter() - start) / seconds
            if gone >= 1.0:
                return timed
            between(gone)

    def paired_ops(self, start: float, seconds: float, tracer) -> list[tuple[int, float, float]]:
        """Run each op seed twice, untraced and traced, in alternating order,
        until `seconds` after `start`; return (op, untraced s, traced s) of
        pairs that passed."""
        pairs = []
        deadline = start + seconds
        while True:
            op, seed = self._next_seed()
            times = {}
            for traced in (False, True) if op % 2 == 0 else (True, False):
                times[traced] = self._checked_op(op, seed, tracer if traced else None)
            if None not in times.values():
                pairs.append((op, times[False], times[True]))
            if time.perf_counter() >= deadline:
                return pairs

    def _next_seed(self) -> tuple[int, int]:
        """(op index, CLI seed) of the next op of this run."""
        op = self.seeds
        self.seeds += 1
        return op, 1000 * self.seed + op

    def _checked_op(self, op: int, seed: int, tracer=None) -> float | None:
        """One op, timed and then checked; its time, or None if it failed."""
        self.attempted += 1
        config = self.workload.write_inputs(self.workdir, seed)
        gc.collect()  # each op starts from a clean heap, as in a fresh CLI process
        try:
            t0 = time.perf_counter()
            if tracer is None:
                cfg, report, code = self._op(config, seed)
            else:
                cfg, report, code = tracer.run(op, self._op, config, seed)
            elapsed = time.perf_counter() - t0
            if self.rss_mb is None:
                self.rss_mb = _peak_rss_mb()
            problems = [f"exit code {code}"] if code != 0 else self.workload.check(
                cfg, report, self.out_dir
            )
        except Exception:  # noqa: BLE001  (one failed op must not end the run)
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            print(f"op with seed {seed} failed: " + "; ".join(problems), file=sys.stderr)
            return None
        block = report["analysis"]
        self.plans.add((block["N_C"], block["k"], block["m"]))
        return elapsed

    def _op(self, config: Path, seed: int):
        cfg = self.cli.parse_config(
            config, self.workload.mode, out_override=str(self.out_dir), seed=seed
        )
        report, code = self.cli.run(cfg)
        return cfg, report, code

    def plan(self) -> tuple:
        """The resolved (N_C, k, m); a workload whose plan moves between
        ops is reported, since the work then changed with the seed."""
        if len(self.plans) != 1:
            print(f"{self.workload.name}: plans differ between ops: {sorted(self.plans, key=str)}",
                  file=sys.stderr)
            return (None, None, None)
        return next(iter(self.plans))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class NoPassingOp(RuntimeError):
    """A phase ended without one op that passed its checks."""


def _median(values) -> float:
    if not values:
        raise NoPassingOp
    return statistics.median(values)


def end_to_end(runner: Runner, start: float, seconds: float) -> dict:
    config = runner.workload.write_inputs(runner.workdir / "setup", 1000 * runner.seed)
    probe = SetupProbe(config, runner.workload.mode)
    probe.keep_pace(0.0)
    timed = runner.ops(start, seconds, probe.keep_pace)
    probe.keep_pace(1.0)
    setup = probe.times
    rss_mb = runner.rss_mb
    metrics = {
        "op_s": {"value": _median(timed), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    print(
        f"{runner.workload.name}: op_s median {metrics['op_s']['value']:.4f} s over {len(timed)} ops "
        f"(quartiles {_quartiles(timed)}; in order {' '.join(f'{t:.3f}' for t in timed)}); "
        f"setup_s median {metrics['setup_s']['value']:.4f} s over {len(setup)} starts; peak_rss_mb {rss_mb:.1f}; plan (N_C, k, m) = {runner.plan()}"
    )
    return metrics


def _quartiles(values) -> str:
    if len(values) < 2:
        return "n/a"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4f}..{q3:.4f} s"


def per_layer(runner: Runner, start: float, seconds: float, tracing) -> dict:
    tracer = tracing.Tracer()
    pairs = runner.paired_ops(start, seconds, tracer)
    overhead = _median([traced / plain for _, plain, traced in pairs]) - 1.0
    records = tracer.per_op()
    rows = [tracing.layer_metrics(records[op], traced, runner.workload.hot_spans)
            for op, _, traced in pairs]
    values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    n_c, k, m = runner.plan()
    values.update({"plan.N_C": n_c or 0, "plan.k": k or 0, "plan.m": m or 0})
    values["trace_overhead_frac"] = overhead
    path = OUT / f"spans-{runner.workload.name}-seed{runner.seed}.json"
    tracer.write(path, {"workload": runner.workload.name, "seed": runner.seed,
                        "traced_ops": [op for op, _, _ in pairs]})
    metrics = {}
    for name, value in values.items():
        unit = tracing.unit(name)
        if unit in ("count", "B"):
            value = int(value)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{runner.workload.name}: {name} = {value:.6g} {unit}")
    print(f"{runner.workload.name}: {len(pairs)} traced ops; spans in {path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "vlasov_carleman" / "__init__.py").is_file():
        print(f"bench: library source not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import vlasov_carleman
    from vlasov_carleman import cli

    if Path(vlasov_carleman.__file__).resolve().parent.parent != SRC:
        print(f"bench: imported {vlasov_carleman.__file__}, not the checkout", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    runner = Runner(workload, args.seed, cli)
    start = time.perf_counter()
    try:
        if args.trace:
            metrics = per_layer(runner, start, args.seconds, tracing)
        else:
            metrics = end_to_end(runner, start, args.seconds)
    except NoPassingOp:
        print(f"bench: every op of {workload.name} failed; nothing to measure", file=sys.stderr)
        return 1
    finally:
        runner.close()
    print(f"{workload.name}: {runner.failed} of {runner.attempted} ops failed")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
