#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the priorprop CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Each workload is a closed loop with one client: a fresh worker
process makes one in-process ``priorprop.cli.main(argv)`` call after another
on inputs generated from ``--seed``, for ``--seconds``. Every job's output is
checked after the worker exits; a job fails on a non-zero exit code or a
failed check.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

* ``job_s_p50``: median seconds per job at the reference machine speed: each
  job's wall seconds divided by the mean of the yardstick timed right before
  and right after it, times the yardstick's reference seconds (see
  yardstick.py). This takes the shared host's drifting speed out of the
  figure. There is no warm-up job: a CLI user pays the first call's lazy
  imports every time. Jobs take about a second or less, so a 30-second run has
  the 21 jobs that leave 10 samples beyond the median. The plain wall-clock
  median is printed beside it;
* ``peak_rss_mb``: peak resident memory of the worker process (its own
  ``VmHWM``);
* ``setup_s``: median seconds for a fresh interpreter to import
  ``priorprop.cli`` (numpy, scipy and kernel selection included), sampled
  once per invocation: half before the workloads run and half after, so
  that the samples span the run. Each import is normalized like a job, by
  yardsticks timed in this process right before and after it.

``--trace 1`` reports per-layer metrics from a traced run (see tracer.py):
untraced jobs, the overhead baseline, alternate with jobs under spans, and
one job under tracemalloc gives allocation peaks.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit and sample count, ``fail_ratio``, and the
environment block. Full results and spans go to ``perfbench/_work/``.
"""

from __future__ import annotations

import os

# Pin every BLAS pool to one thread before numpy loads, in this process and,
# through the inherited environment, in every child it starts.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import instances  # noqa: E402
import tracer  # noqa: E402
import yardstick  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = WORK / "results"
DEADLINE_S = 170.0
SETUP_REPEATS = 12
SETUP_CODE = (
    "import time; t = time.perf_counter(); import priorprop.cli; "
    "print(time.perf_counter() - t); print(priorprop.__file__)"
)
DEMO_ACCURACIES = HERE / "demo_accuracies.json"
DEMO_ARGS = ["demo", "--clusters", "2", "--points-per-cluster", "1250",
             "--labeled", "250", "--t", "10"]


@dataclass(frozen=True)
class Workload:
    """``prepare(seed, directory)`` gives one ``(argv, reference)`` per instance;
    ``check(output, stdout, reference)`` gives ``(solver method, failure or None)``."""

    name: str
    prepare: Callable
    check: Callable


def _prepare_graph_instances(spec: instances.InstanceSpec, count: int, command: list[str],
                             roles: list[str], reference: Callable) -> Callable:
    def prepare(seed: int, directory: Path):
        out = []
        for k, child in enumerate(np.random.SeedSequence(seed).spawn(count)):
            inst = instances.generate(spec, child)
            paths = instances.write_files(inst, directory / f"instance{k}")
            argv = command + [a for role in roles for a in (f"--{role}", paths[role].as_posix())]
            out.append((argv + ["--output", "{out}"], reference(inst)))
        return out

    return prepare


def _prepare_demo(count: int) -> Callable:
    def prepare(seed: int, directory: Path):
        recorded = json.loads(DEMO_ACCURACIES.read_text())["accuracies"]
        pool = sorted(recorded, key=int)
        picks = np.random.default_rng(seed).choice(len(pool), size=count, replace=False)
        return [(DEMO_ARGS + ["--seed", pool[p], "--output", "{out}"], recorded[pool[p]])
                for p in picks]

    return prepare


def _check_demo(output: str, stdout: str, ref):
    report = json.loads(Path(output).read_text())
    methods = {r["bound_report"]["solver_method"] for r in report["results"] if r["bound_report"]}
    return ",".join(sorted(methods)), checks.check_demo(report, ref)


def _check_analyze(output: str, stdout: str, ref):
    report = json.loads(Path(output).read_text())
    return report["bound_report"]["solver_method"], checks.check_analyze(report, ref)


def _check_propagate(output: str, stdout: str, ref):
    method = re.search(r"method=(\w+)", stdout)
    return (method and method.group(1)), checks.check_propagate(checks.read_prediction(output), ref)


# Three workloads that stress disjoint layers, so that a change to one layer
# moves one workload and leaves the others as controls; BENCHMARK.json records
# why each was chosen. A run cycles through a few instances so that no single
# instance sets the run's median. Per-instance job times vary by about +-5%
# between demo seeds, and propagate-iter-2k's Gauss-Seidel sweep count varies
# from about 57 to 78 between graphs, so those two take six and eight.
WORKLOADS = {w.name: w for w in (
    Workload("demo-2.5k", _prepare_demo(6), _check_demo),
    Workload("analyze-6k", _prepare_graph_instances(
        instances.InstanceSpec(6_000, 2, 13.0, 120), 2, ["analyze"],
        ["graph", "labels", "truth", "votes"], checks.analyze_reference), _check_analyze),
    Workload("propagate-iter-2k", _prepare_graph_instances(
        instances.InstanceSpec(2_000, 2, 13.0, 40), 8, ["propagate", "--method", "iterative"],
        ["graph", "labels", "votes"], checks.reference_solution), _check_propagate),
)}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = SRC.as_posix()
    return env


def _remaining(start: float) -> float:
    return DEADLINE_S - (time.perf_counter() - start)


def measure_setup(start: float, repeats: int, warm_up: bool,
                  measure: yardstick.Yardstick) -> list[list[float]]:
    """``[seconds, yardstick before, yardstick after]`` for ``repeats`` fresh
    interpreters importing priorprop.cli. A warm-up import first, untimed,
    compiles the bytecode."""
    samples = []
    after = measure()
    for attempt in range(repeats + warm_up):
        before = after
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_child_env(),
            capture_output=True, text=True, timeout=_remaining(start), check=True,
        )
        after = measure()
        seconds, location = proc.stdout.split("\n")[:2]
        if not Path(location).resolve().is_relative_to(SRC):
            raise RuntimeError(f"priorprop imported from {location}, not from {SRC}")
        if attempt or not warm_up:
            samples.append([float(seconds), before, after])
    return samples


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, start: float) -> dict:
    work = WORK / f"{w.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    try:
        prepared = w.prepare(seed, work)
        plan = {
            "argvs": [argv for argv, _ in prepared],
            "out_dir": (work / "out").as_posix(),
            "seconds": seconds,
            "trace": trace,
            "result": (work / "result.json").as_posix(),
            "spans": (RESULTS / f"{work.name}-spans.json").as_posix(),
        }
        (work / "plan.json").write_text(json.dumps(plan))
        subprocess.run(
            [sys.executable, (HERE / "worker.py").as_posix(), (work / "plan.json").as_posix()],
            cwd=ROOT, env=_child_env(), timeout=_remaining(start), check=True,
            stdout=subprocess.DEVNULL,
        )
        result = json.loads((work / "result.json").read_text())
        traced = result.get("traced", {})
        for job in result["jobs"]:
            ref = prepared[job["instance"]][1]
            reason = f"exit code {job['exit_code']}" if job["exit_code"] != 0 else None
            if reason is None:
                try:
                    job["method"], reason = w.check(job["output"], job["stdout"], ref)
                except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                    reason = f"unreadable output: {exc!r}"
            job["failure"] = reason
            iterations = traced.get(str(job["index"]), {}).get("solver.iterations")
            job["iterations"] = None if iterations is None else int(iterations)
            del job["stdout"]
        result["env"].update({"nproc": os.cpu_count(), "blas_env": BLAS_ENV,
                              "seed": seed, "seconds": seconds, "trace": int(trace)})
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(result: dict, setup: list[list[float]]) -> tuple[dict, str]:
    timed = [j for j in result["jobs"] if j["phase"] == "timed"]
    metrics = {
        "job_s_p50": {"value": statistics.median(
            yardstick.normalized(j["seconds"], *j["yardstick_s"]) for j in timed), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(
            yardstick.normalized(*sample) for sample in setup), "unit": "s"},
    }
    wall = statistics.median(j["seconds"] for j in timed)
    yard = statistics.median(y for j in timed for y in j["yardstick_s"])
    return metrics, (f"job_s_p50 over n={len(timed)} timed jobs (wall-clock median {wall:.4g} s, "
                     f"yardstick median {yard:.4g} s, reference {yardstick.REFERENCE_S} s), "
                     f"setup_s over n={len(setup)} fresh interpreters")


def _median_over(jobs: list[dict], key: str) -> float:
    return statistics.median(j.get(key, 0.0) for j in jobs)


PER_LAYER_KEYS = {
    # metric name: (unit, key in the per-job aggregate)
    "graph.build_threshold_graph.s": ("s", "graph.build_threshold_graph.s"),
    "graph.from_edges.s": ("s", "graph.Graph.from_edges.s"),
    "graph.from_edges.calls": ("count", "graph.Graph.from_edges.calls"),
    "graph.from_edges.edges_in": ("count", "graph.from_edges.edges_in"),
    "graph.compute_neighborhoods.s": ("s", "graph.compute_neighborhoods.s"),
    "fileio.load_graph.self_s": ("s", "fileio.load_graph.self_s"),
    "fileio.load_votes.s": ("s", "fileio.load_votes.s"),
    "fileio.load_labels.s": ("s", "fileio.load_labels.s"),
    "fileio.bytes_read": ("B", "fileio.bytes_read"),
    "fileio.bytes_written": ("B", "fileio.bytes_written"),
    "multisource.augment_with_dongles.self_s": ("s", "multisource.augment_with_dongles.self_s"),
    "multisource.alpha_probabilistic.s": ("s", "multisource.alpha_probabilistic.s"),
    "solver.solve_with_prior.calls": ("count", "solver.solve_with_prior.calls"),
    "solver.solve_with_prior.self_s": ("s", "solver.solve_with_prior.self_s"),
    "solver.solve_soft.s": ("s", "solver.solve_soft.s"),
    "solver.iterations": ("count", "solver.iterations"),
    "solver.fixed_point_residual.s": ("s", "solver.fixed_point_residual.s"),
    "solver.fixed_point_residual.calls": ("count", "solver.fixed_point_residual.calls"),
    "kernels.gs_sweep.s": ("s", "kernels.gs_sweep.s"),
    "kernels.gs_sweep.calls": ("count", "kernels.gs_sweep.calls"),
    "bounds.compute_bound.self_s": ("s", "bounds.compute_bound.self_s"),
    "bounds.smoothness.calls": ("count", "bounds.smoothness.calls"),
    "bounds.audit_inequalities.s": ("s", "bounds.audit_inequalities.s"),
    "bounds.audit_inequalities.checks": ("count", "bounds.audit_inequalities.checks"),
    "spectral.second_smallest_eigenvalue.s": ("s", "spectral.second_smallest_eigenvalue.s"),
    "evaluation.pipeline_report.self_s": ("s", "evaluation.pipeline_report.self_s"),
    "cli.main.s": ("s", "cli.main.s"),
}


def per_layer(result: dict) -> tuple[dict, str]:
    jobs = list(result["traced"].values())
    untraced = [j["seconds"] for j in result["jobs"] if j["phase"] == "untraced"]
    metrics = {name: {"value": _median_over(jobs, key), "unit": unit}
               for name, (unit, key) in PER_LAYER_KEYS.items()}
    metrics["fileio.write.s"] = {
        "value": statistics.median(sum(j.get(k + ".s", 0.0) for k in tracer.WRITERS) for j in jobs), "unit": "s"}
    sweep_s = sum(j.get("kernels.gs_sweep.s", 0.0) for j in jobs)
    nnz = sum(j.get("kernels.gs_sweep.nnz", 0.0) for j in jobs)
    metrics["kernels.gs_sweep.nnz_per_s"] = {"value": nnz / sweep_s if sweep_s else 0.0, "unit": "1/s"}
    peaks = result["alloc_peak_bytes"]
    for name in ("graph.build_threshold_graph", "multisource.alpha_probabilistic"):
        metrics[f"{name}.alloc_peak_mb"] = {"value": peaks.get(name, 0) / 2**20, "unit": "MB"}
    traced_main = metrics["cli.main.s"]["value"]
    metrics["trace.overhead_ratio"] = {
        "value": traced_main / statistics.median(untraced) - 1.0, "unit": "ratio"}
    name, self_s = largest_self_time(jobs)
    return metrics, (f"medians over n={len(jobs)} traced jobs, untraced baseline n={len(untraced)}; "
                     f"largest self time: {name} {self_s:.3g} s")


def largest_self_time(jobs: list[dict]) -> tuple[str, float]:
    """The span name with the largest median self time per job."""
    keys = {k for j in jobs for k in j if k.endswith(".self_s")}
    key = max(sorted(keys), key=lambda k: _median_over(jobs, k))
    return key.removesuffix(".self_s"), _median_over(jobs, key)


def report(name: str, result: dict, setup: list[float]) -> tuple[dict, int, int]:
    jobs = result["jobs"]
    failed = sum(1 for j in jobs if j["failure"])
    metrics, samples = per_layer(result) if result["env"]["trace"] else end_to_end(result, setup)
    env = result["env"]
    print(f"== {name}  seed={env['seed']} seconds={env['seconds']} trace={env['trace']}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items() if k not in ("seed", "seconds", "trace")))
    paths = Counter(j.get("method") if j["iterations"] is None
                    else f"{j.get('method')} ({j['iterations']} iterations)" for j in jobs)
    print("solver paths: " + ", ".join(f"{path} x{n}" for path, n in sorted(paths.items())))
    print(f"samples: {samples}")
    for metric, value in metrics.items():
        print(f"{name} {metric:<44} {value['value']:.6g} {value['unit']}")
    print(f"{name} {'fail_ratio':<44} {failed / len(jobs):.6g} ({failed}/{len(jobs)} jobs failed)")
    for j in jobs:
        if j["failure"]:
            print(f"  job {j['index']} ({j['phase']}, instance {j['instance']}): {j['failure']}")
    return metrics, len(jobs), failed


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "priorprop" / "cli.py").is_file():
        return _fail(f"no priorprop sources under {SRC}; run from a source checkout")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        return _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")

    trace = bool(args.trace)
    start = time.perf_counter()
    results, setup = {}, []
    measure = None if trace else yardstick.Yardstick()
    try:
        if not trace:
            setup += measure_setup(start, SETUP_REPEATS // 2, True, measure)
        for name in names:
            results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, trace, start)
        if not trace:
            setup += measure_setup(start, SETUP_REPEATS - len(setup), False, measure)
    except (subprocess.SubprocessError, RuntimeError, OSError) as exc:
        return _fail(str(exc))

    all_metrics, attempted, failed = {}, 0, 0
    for name, result in results.items():
        result["setup_s_samples"] = setup
        out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(result, indent=1))
        metrics, n, bad = report(name, result, setup)
        attempted += n
        failed += bad
        prefix = "" if len(names) == 1 else name + "."
        all_metrics.update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
