"""viewplan benchmark: the real CLI pipeline, timed end to end and per layer.

Run from the root of a checkout (nothing needs to be installed):

    python3 perfbench/run.py --workload scene-precompute --seed 0 --seconds 35 --trace 0

It writes the workload's inputs from the seed (timed as set-up), then calls
``viewplan.cli.main`` once per CLI step, in the order a user would run them,
and repeats that pipeline until ``--seconds`` are used. Every step's outputs
are checked. A step's time is its median over the passes. While an untraced
step runs, a probe (reference.py) samples the host's speed, and
``pipeline_ref_s`` scales each pass's time by the speed measured during it.

With ``--trace 0`` the result holds the end-to-end metrics. With ``--trace 1``
untraced and traced passes alternate, and the result holds the per-layer
metrics; the spans go to ``.perfbench/spans/``. The last line of standard
output is the result; the line before it holds the run record (machine,
versions, load), every end-to-end figure of the workload, and the pinned-value
checks. See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
PINS = HERE / "pinned.json"
BENCHMARK = ROOT / "BENCHMARK.json"  # names and units of the reported metrics

from checks import Checker  # noqa: E402  (HERE is sys.path[0] when run as a script)
from reference import Probe  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PINNED_SEED = 0
SETUP_REPS = 5
MIN_PASSES = 3
TABLE_STEPS = ("precompute", "gen")
PLAN_STEPS = ("baseline", "plan")
PROBE_PERIOD_S = 0.025  # one reference unit (~1 ms) per 25 ms of a step
# Median time of one reference unit on the 2-CPU host where the benchmark was
# defined: pipeline_ref_s is in seconds of that host at that speed.
REF_UNIT_S = 0.0007
# Contention slows viewplan's steps about as much as the reference unit's
# slowdown to the power 1.5, fitted on that host over three batches of runs of
# all three workloads: batch medians then differed by up to 8%, with 1.0 by up
# to 19% (see perfbench/README.md).
REF_EXPONENT = 1.5


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "viewplan").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_record() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
    }


def set_up(workload: str, seed: int, work: Path) -> float:
    """Median wall time of a fresh process that imports viewplan and writes the inputs."""
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, str(HERE / "workloads.py"), "--workload", workload,
                               "--seed", str(seed), "--out", str(work)],
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"input generation failed:\n{done.stderr}")
    return statistics.median(times)


def run_step(main, step) -> tuple[int | None, float, str]:
    """Exit code (None if the CLI raised), wall seconds, and captured output."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        start = time.perf_counter()
        try:
            code = main(list(step.argv))
        except Exception:  # the CLI must not raise; count it as a failed op
            code = None
            traceback.print_exc()
        took = time.perf_counter() - start
    return code, took, captured.getvalue()


class Runner:
    """Runs passes of one workload's pipeline and counts the ops that fail."""

    def __init__(self, cli, steps, checker: Checker):
        self.cli = cli
        self.steps = steps
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.reported: set = set()
        self.probe_samples: list[list[list[float]]] = []  # per untraced pass, per step

    def run_pass(self, tracer: Tracer | None = None) -> list[float]:
        for step in self.steps:
            for path in (step.output, step.curves):
                if path is not None:
                    Path(path).unlink(missing_ok=True)
        self.checker.start_pass()
        times = []
        if tracer is None:
            self.probe_samples.append([])
        for step in self.steps:
            main = self.cli.main
            if tracer is not None:
                tracer.scope += 1
                main = tracer.wrap("cli." + step.kind, main)
                code, took, output = run_step(main, step)
            else:
                with Probe(PROBE_PERIOD_S) as probe:
                    code, took, output = run_step(main, step)
                took -= probe.spent
                self.probe_samples[-1].append(probe.samples)
            times.append(took)
            if code != 0:
                problems = [f"exit code {code}, expected 0"]
            else:
                problems = self.checker.check(step)
            self.attempted += 1
            if problems:
                self.failed += 1
                key = (step.argv, tuple(problems))
                if key not in self.reported:
                    self.reported.add(key)
                    print(f"FAILED: viewplan {' '.join(step.argv)}\n  " + "\n  ".join(problems)
                          + "\n" + output, file=sys.stderr)
        self.checker.end_pass()
        return times


def stage_seconds(steps, step_times: list[list[float]], kinds=None) -> float:
    """Sum over the selected steps of each step's median time across passes."""
    return sum(statistics.median(t[i] for t in step_times)
               for i, step in enumerate(steps) if kinds is None or step.kind in kinds)


def reference_seconds(step_times: list[list[float]], probe_samples) -> float:
    """Pipeline time at the reference speed: each pass's time, scaled by how
    much slower than REF_UNIT_S the reference unit ran during that pass, median
    over the passes."""
    per_pass = []
    for times, samples in zip(step_times, probe_samples):
        unit_s = statistics.fmean(x for step in samples for x in step)
        per_pass.append(sum(times) * (REF_UNIT_S / unit_s) ** REF_EXPONENT)
    return statistics.median(per_pass)


def thread_check(viewplan_io, visibility, step) -> tuple[float, bool]:
    """Sequential over threaded time of a precompute step's coverage, and
    whether the two tables agree. Threads are capped at the usable CPUs."""
    argv = list(step.argv)
    mesh = viewplan_io.load_mesh(argv[argv.index("--mesh") + 1])
    views = viewplan_io.load_cameras(argv[argv.index("--cameras") + 1])
    start = time.perf_counter()
    sequential = visibility.precompute_coverage(mesh, views)
    mid = time.perf_counter()
    threaded = visibility.precompute_coverage(mesh, views,
                                              workers=len(os.sched_getaffinity(0)))
    end = time.perf_counter()
    return (mid - start) / (end - mid), sequential.digest == threaded.digest


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the viewplan CLI pipeline.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "viewplan" / "__init__.py").is_file():
        print(f"run.py: no viewplan sources under {SRC}", file=sys.stderr)
        return 2

    record = run_record()
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(args, record, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, record: dict, work: Path) -> int:
    workload = WORKLOADS[args.workload]
    setup_s = set_up(workload.name, args.seed, work)

    sys.path.insert(0, str(SRC))
    import viewplan.cli
    from viewplan import io as viewplan_io, visibility
    if SRC not in Path(viewplan.cli.__file__).resolve().parents:
        print(f"run.py: imported viewplan from {viewplan.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    # the pipeline is measured single-threaded; thread_check covers the workers knob
    os.environ.pop(viewplan.cli.WORKERS_ENV, None)

    pins = json.loads(PINS.read_text()).get(workload.name)
    checker = Checker(pins, pinned_seed=args.seed == PINNED_SEED)
    steps = workload.steps(args.seed, work)
    runner = Runner(viewplan.cli, steps, checker)

    untraced: list[list[float]] = []
    traced: list[list[float]] = []
    tracer = Tracer() if args.trace else None
    precompute = [s for s in steps if s.kind == "precompute"]
    check_threads = tracer is not None and bool(precompute)
    start = time.perf_counter()
    while True:
        untraced.append(runner.run_pass())
        if tracer is not None:
            tracer.install()
            try:
                traced.append(runner.run_pass(tracer))
            finally:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        rounds = len(untraced)
        # leave room for the thread check, which runs precompute twice
        reserve = 2 * stage_seconds(steps, untraced, ("precompute",)) if check_threads else 0.0
        if (elapsed * (rounds + 1) / rounds + reserve > args.seconds
                and (tracer or rounds >= MIN_PASSES)):
            break

    threads_speedup = 0.0
    if check_threads:
        threads_speedup, agree = thread_check(viewplan_io, visibility, precompute[0])
        runner.attempted += 1
        if not agree:
            runner.failed += 1
            print("FAILED: threaded precompute differs from the sequential table", file=sys.stderr)

    pipeline_s = stage_seconds(steps, untraced)
    train_steps = [s for s in steps if s.kind == "train"]
    train_s = stage_seconds(steps, untraced, ("train",))
    detail = {
        "setup_s": metric(setup_s, "s"),
        "pipeline_s": metric(pipeline_s, "s"),
        "pipeline_ref_s": metric(reference_seconds(untraced, runner.probe_samples), "s"),
        "table_s": metric(stage_seconds(steps, untraced, TABLE_STEPS), "s"),
        "precompute_s": metric(stage_seconds(steps, untraced, ("precompute",)), "s"),
        "gen_s": metric(stage_seconds(steps, untraced, ("gen",)), "s"),
        "train_episodes_per_s": metric(
            sum(s.episodes for s in train_steps) / train_s if train_s else 0.0, "episodes/s"),
        "plan_s": metric(stage_seconds(steps, untraced, PLAN_STEPS), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "plan_views": metric(checker.plan_views, "count"),
        "excess_views": metric(checker.excess_views, "count"),
        "ops_total": metric(runner.attempted, "count"),
        "ops_failed": metric(runner.failed, "count"),
    }
    record["loadavg_1m_end"] = os.getloadavg()[0]
    record["passes"] = len(untraced)
    if tracer is not None:
        overhead = stage_seconds(steps, traced) - pipeline_s
        values = layer_metrics(tracer, len(traced), overhead, threads_speedup)
        spans_dir = WORK_ROOT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{workload.name}-seed{args.seed}.jsonl")
        if tracer.unwrapped:
            print("not traced, so their metrics read 0: " + ", ".join(sorted(tracer.unwrapped)),
                  file=sys.stderr)
    else:
        values = {name: m["value"] for name, m in detail.items()}
    declared = json.loads(BENCHMARK.read_text())["per_layer" if tracer else "end_to_end"]
    metrics = {m["name"]: metric(values[m["name"]], m["unit"]) for m in declared}

    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "record": record, "detail": detail,
              "pinned": {"compared": checker.compared,
                         "model_mismatches": sorted(checker.model_mismatches)}}
    if tracer is not None:
        report["unwrapped"] = sorted(tracer.unwrapped)
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    results_dir = WORK_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**report, "result": result, "steps": [s.kind for s in steps],
                    "untraced_step_s": untraced, "traced_step_s": traced,
                    "probe_s": runner.probe_samples}, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
