"""rigidform benchmark: run one workload and print one JSON result line.

    python3 bench/run.py --workload certify --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
there.  The workloads (see ``workloads.py``) are closed loops: one client
issues its ops back to back in a single process.

A run repeats the workload's cycle of ops for ``--seconds`` (at least
twice) and times every execution of each op; between ops it moves to
the CPU that is least slowed by other tenants at the moment
(:class:`QuietCPU`).  After each cycle it spends twice as long on focus
passes over the ops that carry the percentiles (:func:`focus`).  The
percentiles are Harrell-Davis estimates over the ops of the cycle, each op
timed by its fastest execution; the rate takes each op at the mean of all
its executions.  With ``--trace 0`` it prints the end-to-end metrics:

* ``setup_s``: import, scenario loading, input generation and warm-up; the
  median over this process and six fresh ones, started between cycles and
  focus passes;
* ``op_s.p50`` and ``op_s.tail``: median op time, and the op time at the
  percentile of the rank with ten ops above it;
* ``ops_per_s``: ops per second of the cycle, each op at the mean time of
  all its executions;
* ``peak_rss_mb``: peak resident memory of this process;
* ``error_rate``: (ops that raised, exited unexpectedly or failed their
  check + 1) / (ops + 1).  The add-one keeps it above zero, so a change can
  be compared with its parent; a single failing op doubles it.

With ``--trace 1`` each op runs untraced and then traced, and the run prints
the per-layer metrics of ``spans.py`` per cycle: counts from the first
cycle, self times as the median over cycles, and the tracing overhead as
traced against untraced ops per second.

The line before the result holds the details (cycles run, the percentile
of the tail, the op at each percentile, failures and the environment).
Exits non-zero without a result when the package cannot be imported.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from here, before NumPy loads

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_CYCLES = 2
FOCUS_SHARE = 2  # focus passes after a cycle, as a multiple of its time
SETUP_RUNS = 7  # this process plus six fresh ones
TAIL_BEYOND = 10
FOCUS_WEIGHT = 0.03  # least percentile weight of an op in a focus pass
WORKLOAD_NAMES = ("builtin-cli", "large-formation", "certify")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def cap_blas_threads() -> int:
    """Run BLAS on one thread unless the environment asks for more, and on
    no more threads than this process has CPUs; NumPy must not be loaded
    yet.  The workloads are one client's calls in sequence; with two
    OpenBLAS threads the same calls ran slower and varied more between
    runs."""
    nproc = len(os.sched_getaffinity(0))
    asked = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "1"
    os.environ["OPENBLAS_NUM_THREADS"] = str(max(1, min(int(asked), nproc)))
    return nproc


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
    }


class QuietCPU:
    """Keeps this process on whichever of its CPUs runs a short probe loop
    fastest at the moment, chosen again at most every ``EVERY`` seconds.

    Other tenants slow each CPU of a shared machine in turns lasting
    seconds; a process that stays on a slowed CPU for a whole run reads up
    to 1.5 times slower than one that moves.  Only this process's affinity
    changes, and never during a timed call.
    """

    EVERY = 0.25

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.chosen_at = -self.EVERY

    @staticmethod
    def _probe() -> float:
        start = time.perf_counter()
        x = 0
        for i in range(20000):
            x += i * i % 7
        return time.perf_counter() - start

    def settle(self) -> None:
        now = time.perf_counter()
        if len(self.cpus) < 2 or now - self.chosen_at < self.EVERY:
            return
        speeds = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speeds.append((self._probe(), cpu))
        os.sched_setaffinity(0, {min(speeds)[1]})
        self.chosen_at = time.perf_counter()


def run_op(op, seed, times, failures, tracer=None, totals=None):
    """Run one op; append its time to ``times`` and any problem to
    ``failures``; with a tracer, fold its spans into ``totals``."""
    op.reset()
    start = time.perf_counter()
    try:
        result = op.run(seed)
    except Exception as exc:  # an op that raises is a failed op; keep going
        result, problem = None, f"raised {type(exc).__name__}: {exc}"
    else:
        problem = None
    times.append(time.perf_counter() - start)
    if tracer is not None:
        tracer.fold(totals)
        for path in op.outputs:
            if path.exists():
                layer = "svg" if path.suffix == ".svg" else "cli"
                totals[f"{layer}.bytes_written"] += path.stat().st_size
    if problem is None:
        try:
            problem = op.check(result)
        except Exception as exc:  # a result the check cannot read is wrong
            problem = f"check raised {type(exc).__name__}: {exc}"
    if tracer is not None:
        tracer.spans.clear()  # calls a check makes are not the op's
    if problem:
        failures.append(problem)


def fresh_setup_seconds(args) -> float:
    """Set-up time of a fresh process; it starts on this process's CPU."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def hd_weights(n: int, p: float):
    """Harrell-Davis weights of the n order statistics for the ``p`` quantile:
    the k-th gets the Beta((n+1)p, (n+1)(1-p)) probability of (k-1)/n..k/n.
    They centre near rank (n+1)p and fall off within a few ranks, so one op's
    noisy time moves the estimate less than it moves a single order
    statistic."""
    import numpy as np
    from scipy.special import betainc

    return np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))


def tail_rank(n: int) -> tuple[int, float]:
    """The rank with ``TAIL_BEYOND`` ops above it, and that rank over n + 1."""
    if n <= TAIL_BEYOND:
        raise ValueError(f"a cycle of {n} ops has no tail")
    at = n - TAIL_BEYOND - 1
    return at, (at + 1) / (n + 1)


def quantiles(best: list[float]):
    """(p50, tail, tail percentile, index of the p50 op, index of the tail op):
    Harrell-Davis estimates over the ops' fastest times, and the ops at the
    two ranks."""
    order = sorted(range(len(best)), key=best.__getitem__)
    x = [best[k] for k in order]
    at, tail_p = tail_rank(len(order))
    return (float(hd_weights(len(x), 0.5) @ x), float(hd_weights(len(x), tail_p) @ x),
            100.0 * tail_p, order[len(order) // 2], order[at])


def ops_rate(times) -> float:
    """Ops per second of one cycle, each op at the mean of its executions."""
    return len(times) / sum(statistics.fmean(t) for t in times)


def focus(best: list[float]) -> list[int]:
    """One focus pass: the ops with a weight of at least ``FOCUS_WEIGHT`` in
    either percentile, ranked by their fastest times so far, each repeated
    so that it takes about as long as the op at the tail rank.

    On a machine whose speed changes from one moment to the next, the
    fastest of a handful of executions still varies from run to run; the
    passes give the ops that carry the percentiles several times more
    executions than a cycle alone would.
    """
    order = sorted(range(len(best)), key=best.__getitem__)
    n = len(order)
    at, tail_p = tail_rank(n)
    weight = [max(a, b) for a, b in zip(hd_weights(n, 0.5), hd_weights(n, tail_p))]
    tail = best[order[at]]
    return [order[r] for r in range(n) if weight[r] >= FOCUS_WEIGHT
            for _ in range(max(1, round(tail / best[order[r]])))]


def measure(ops, args, rank_seeds, own_setup):
    """Time every op execution for ``args.seconds``: cycles of all ops, each
    followed by focus passes for ``FOCUS_SHARE`` times as long as the cycle
    took.  Until there are ``SETUP_RUNS`` set-up samples, time the set-up of
    a fresh process after each cycle and each pass (a cycle's time includes
    it), so that the samples spread over the run instead of sharing one slow
    moment of the machine."""
    times, failures = [[] for _ in ops], [[] for _ in ops]
    setups = [own_setup]
    cpu = QuietCPU()

    def run(indices):
        for k in indices:
            cpu.settle()
            run_op(ops[k], next(rank_seeds), times[k], failures[k])
        if len(setups) < SETUP_RUNS:
            cpu.settle()
            setups.append(fresh_setup_seconds(args))

    cycles, deadline = 0, time.perf_counter() + args.seconds
    while cycles < MIN_CYCLES or time.perf_counter() < deadline or len(setups) < SETUP_RUNS:
        cycle_start = time.perf_counter()
        run(range(len(ops)))
        cycles += 1
        focus_end = time.perf_counter() + FOCUS_SHARE * (time.perf_counter() - cycle_start)
        while time.perf_counter() < min(focus_end, deadline):
            run(focus([min(t) for t in times]))
    return times, failures, cycles, statistics.median(setups)


def measure_traced(ops, seconds, rank_seeds):
    """Each op runs untraced, then traced, so both see the same machine."""
    from spans import Tracer

    tracer, cpu = Tracer(), QuietCPU()
    plain, traced = [[] for _ in ops], [[] for _ in ops]
    failures = [[] for _ in ops]
    per_cycle = []
    start = time.perf_counter()
    while not per_cycle or time.perf_counter() - start < seconds:
        totals = defaultdict(int)
        for k, op in enumerate(ops):
            cpu.settle()
            run_op(op, next(rank_seeds), plain[k], failures[k])
            tracer.install()
            try:
                run_op(op, next(rank_seeds), traced[k], failures[k], tracer, totals)
            finally:
                tracer.uninstall()
        per_cycle.append(totals)
    return plain, traced, failures, per_cycle


def per_layer(ops, plain, traced, per_cycle) -> dict:
    from spans import COUNTERS, per_layer_names

    first = per_cycle[0]
    out = {}
    for name in per_layer_names():
        if name.endswith(".calls"):
            out[name] = (first[name], "count")
        else:
            out[name] = (statistics.median(c[name] for c in per_cycle), "s")
    for name, unit in COUNTERS.items():
        out[name] = (first[name], unit)
    calls, misses = first["rigidity.generic_rank.calls"], first["rigidity.generic_rank.misses"]
    out["rigidity.generic_rank.hit_ratio"] = (1.0 - misses / calls if calls else 0.0, "ratio")
    busy = statistics.median(c["certificates.persistence.seconds"] for c in per_cycle)
    checked = first["certificates.persistence.reductions_checked"]
    out["certificates.persistence.reductions_per_s"] = (checked / busy if busy else 0.0, "1/s")
    evals, samples = first["simulate.rhs_evals"], first["simulate.samples"]
    out["simulate.evals_per_sample"] = (evals / samples if samples else 0.0, "ratio")
    plain_rate, traced_rate = ops_rate(plain), ops_rate(traced)
    out["trace.ops_per_s"] = (traced_rate, "1/s")
    out["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    out["trace.overhead"] = (plain_rate / traced_rate - 1.0, "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import rigidform

    if not Path(rigidform.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"rigidform was imported from {rigidform.__file__}, not from this checkout")
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rank_seeds = itertools.count(args.seed * 1_000_000 + 1)
        ops = workloads.WORKLOADS[args.workload](args.seed, workdir, rank_seeds)
        own_setup = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        if args.trace:
            plain, traced, failures, per_cycle = measure_traced(ops, args.seconds, rank_seeds)
            metrics = per_layer(ops, plain, traced, per_cycle)
            times = [p + t for p, t in zip(plain, traced)]
            details = {"traced_cycles": len(per_cycle)}
        else:
            times, failures, cycles, setup_s = measure(ops, args, rank_seeds, own_setup)
            best = [min(t) for t in times]
            p50, tail, percentile, p50_op, tail_op = quantiles(best)
            failed_ops = sum(1 for f in failures if f)
            metrics = {
                "setup_s": (setup_s, "s"),
                "op_s.p50": (p50, "s"),
                "op_s.tail": (tail, "s"),
                "ops_per_s": (ops_rate(times), "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "error_rate": ((failed_ops + 1) / (len(ops) + 1), "ratio"),
            }
            details = {
                "cycles": cycles,
                "executions": {"p50_op": len(times[p50_op]), "tail_op": len(times[tail_op])},
                "op_s.tail": {"percentile": round(percentile, 2), "ops": len(ops)},
                "p50_op": ops[p50_op].name,
                "tail_op": ops[tail_op].name,
                "op_best_s": {op.name: b for op, b in zip(ops, best)},
            }
        attempted = sum(len(t) for t in times)
        failed = sum(len(f) for f in failures)
        details.update({
            "workload": args.workload,
            "seed": args.seed,
            "ops_per_cycle": len(ops),
            "failures": {op.name: f[0] for op, f in zip(ops, failures) if f},
            "environment": environment(nproc),
        })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
