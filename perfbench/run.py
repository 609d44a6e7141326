#!/usr/bin/env python3
"""The repository benchmark: one closed-loop workload per run, in one process.

    python3 perfbench/run.py --workload paper-example --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from `src/` of
that checkout and nowhere else. A run

1. pins BLAS to one thread, imports `rsriccati`, generates the seeded
   inputs and their reference values (three times; the median counts)
   and runs one warm-up job: together `setup_s`;
2. with `--trace 0`, runs passes over the workload's fixed job list
   until the next pass would overrun `--seconds`, checking every job's
   output after its pass, and prints the end-to-end metrics;
3. with `--trace 1`, runs one untraced pass and one pass with spans
   around every public library function, prints the per-layer metrics
   and writes all spans to `perfbench/out/`.

Every metric is printed as `name value unit`; the last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. The exit
code is 0 when the run completed, whether or not a job failed its check.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"

E2E_UNITS = {"pass_s": "s", "job_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 3


def import_library():
    """Import rsriccati and its layer modules from ./src; exit with an error if that fails."""
    sys.path.insert(0, str(SRC))
    try:
        rs = importlib.import_module("rsriccati")
        for layer in ("cone", "statespace", "riccati", "bounds", "sim", "cli"):
            importlib.import_module(f"rsriccati.{layer}")
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import rsriccati from {SRC}: {exc}")
    if SRC.resolve() not in Path(rs.__file__).resolve().parents:
        sys.exit(f"perfbench: rsriccati was imported from {rs.__file__}, not from {SRC}")
    return rs


def machine_block(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Runner:
    """Runs and checks jobs, counting attempts and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def timed_pass(self, jobs, before_job=None):
        """Run jobs back to back; returns (pass wall time, per-job latencies, outputs)."""
        gc.collect()
        outputs, latencies = [], []
        t_pass = time.perf_counter()
        for index, job in enumerate(jobs):
            if before_job is not None:
                before_job(index)
            t0 = time.perf_counter()
            try:
                out = self.workload.run(job)
            except Exception as exc:  # a job that raises counts as failed
                out = exc
            latencies.append(time.perf_counter() - t0)
            outputs.append(out)
        return time.perf_counter() - t_pass, latencies, outputs

    def checked_pass(self, jobs):
        """Run a timed pass, then check every output; returns (pass wall time, latencies)."""
        pass_s, latencies, outputs = self.timed_pass(jobs)
        self.check_all(jobs, outputs)
        return pass_s, latencies

    def check_all(self, jobs, outputs) -> None:
        for job, out in zip(jobs, outputs):
            self.check(job, out)

    def check(self, job, out) -> None:
        self.attempted += 1
        if isinstance(out, Exception):
            problems = [f"raised {type(out).__name__}: {out}"]
        else:
            try:
                problems = self.workload.check(job, out)
            except Exception as exc:  # malformed output is a failed check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    rs = import_library()
    import_s = time.perf_counter() - t0

    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    machine = machine_block(np)
    print("machine " + json.dumps(machine, sort_keys=True))

    out_root = HERE / "out"
    out_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=out_root))
    try:
        gen_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](rs, args.seed, work_dir)
            gen_times.append(time.perf_counter() - t0)
        for note in getattr(workload, "notes", ()):
            print(f"{args.workload}: {note}")
        runner = Runner(workload)
        warmup_s, _ = runner.checked_pass(workload.jobs[:1])
        setup_s = import_s + statistics.median(gen_times) + warmup_s

        if args.trace:
            metrics = traced_run(rs, runner, args, machine, out_root)
        else:
            metrics = untraced_run(runner, args.seconds, setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in runner.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"failed_frac {runner.failed / runner.attempted!r} ratio "
          f"({runner.failed} of {runner.attempted} jobs)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


def untraced_run(runner, seconds, setup_s) -> dict:
    workload = runner.workload
    pass_times, latencies = [], []
    t_start = time.perf_counter()
    while not pass_times or (time.perf_counter() - t_start
                             + statistics.median(pass_times) <= seconds):
        pass_s, lat = runner.checked_pass(workload.jobs)
        pass_times.append(pass_s)
        latencies.extend(lat)

    values = {
        "pass_s": statistics.median(pass_times),
        "job_s_p50": statistics.median(latencies),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name, value in values.items():
        print(f"{name} {value!r} {E2E_UNITS[name]}")
    print(f"  over {len(pass_times)} passes of {len(workload.jobs)} jobs "
          f"({len(latencies)} job latencies): "
          + " ".join(f"{t:.3f}" for t in pass_times))
    if len(latencies) >= 100:
        p90 = statistics.quantiles(latencies, n=10)[-1]
        print(f"job_s_p90 {p90!r} s")
    if hasattr(workload, "steps_per_pass"):
        print(f"stream_steps_per_s {workload.steps_per_pass() / values['pass_s']!r} steps/s "
              f"(T = {workload.T})")
    return {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in values.items()}


def traced_run(rs, runner, args, machine, out_root) -> dict:
    from spans import Tracer

    jobs = runner.workload.jobs
    untraced_s, _ = runner.checked_pass(jobs)
    tracer = Tracer()
    tracer.install(rs)
    try:
        traced_s, _, outputs = runner.timed_pass(
            jobs, before_job=lambda i: setattr(tracer, "current_job", i))
    finally:
        tracer.uninstall()
    runner.check_all(jobs, outputs)
    values = tracer.layer_metrics()
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s

    metrics = {}
    for name, value in values.items():
        unit = ("s" if name.endswith(("_s", ".s"))
                else "ratio" if name.endswith(("_frac", "_ratio", "_per_iteration"))
                else "count")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} {value!r} {unit}")
    tracer.save(out_root / f"trace-{args.workload}-seed{args.seed}",
                {"machine": machine, "workload": args.workload, "seed": args.seed,
                 "untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
                 "metrics": metrics})
    return metrics


if __name__ == "__main__":
    sys.exit(main())
