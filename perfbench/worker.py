"""Runs one workload's jobs in a fresh interpreter: a closed loop, one client.

    python3 perfbench/worker.py PLAN.json

The plan names the argument lists to cycle through (one per instance), the
seconds to measure and whether to trace. Each job is one in-process
``priorprop.cli.main(argv)`` call whose ``{out}`` placeholder becomes a fresh
output path, so the parent can check every job's output after this process
has exited. The parent starts this process with the BLAS pool pinned in its
environment, before numpy loads.

Untraced, the loop runs for the whole period, and the yardstick (see
yardstick.py) is timed before the first job and after every job. Traced, it
alternates an untraced job (the baseline for the tracing overhead) with a job
under spans, so that drift in machine speed cancels out of the overhead, and
then runs one more job under tracemalloc for the allocation peaks. Results
are written to the plan's result path and the spans to its spans path.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import priorprop
import priorprop.cli
import tracer
import yardstick

ALLOC_TARGETS = ("graph.build_threshold_graph", "multisource.alpha_probabilistic")


class Loop:
    def __init__(self, plan: dict):
        self.argvs = plan["argvs"]
        self.out_dir = Path(plan["out_dir"])
        self.jobs: list[dict] = []

    def run_job(self, phase: str) -> None:
        index = len(self.jobs)
        # each phase cycles through every instance on its own
        instance = sum(j["phase"] == phase for j in self.jobs) % len(self.argvs)
        out = self.out_dir / f"job{index:04d}.out"
        argv = [out.as_posix() if a == "{out}" else a for a in self.argvs[instance]]
        stdout = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = priorprop.cli.main(argv)
        seconds = time.perf_counter() - start
        job = {"index": index, "instance": instance, "phase": phase, "seconds": seconds,
               "exit_code": code, "output": out.as_posix(), "stdout": stdout.getvalue()}
        self.jobs.append(job)


def peak_rss_mb() -> float:
    """High-water resident set of this process's own address space.

    ``ru_maxrss`` would not do: Linux carries the parent's high-water mark
    over into a child started by fork or vfork and exec.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    loop = Loop(plan)
    result: dict = {}
    start = time.perf_counter()
    if not plan["trace"]:
        measure = yardstick.Yardstick()
        before = measure()
        while True:
            loop.run_job("timed")
            after = measure()
            loop.jobs[-1]["yardstick_s"] = (before, after)
            before = after
            if time.perf_counter() - start >= plan["seconds"]:
                break
        result["peak_rss_mb"] = peak_rss_mb()
    else:
        targets = tracer.find_targets()
        tr = tracer.Tracer(targets)
        while True:
            loop.run_job("untraced")
            tr.job = len(loop.jobs)
            with tr:
                loop.run_job("traced")
            if time.perf_counter() - start >= plan["seconds"]:
                break
        per_job = tracer.per_job(tr.spans, tr.counters)
        result["traced"] = {str(j): dict(values) for j, values in per_job.items()}
        Path(plan["spans"]).write_text(json.dumps(
            {"fields": ["id", "name", "start", "end", "parent", "job"], "spans": tr.spans}))
        ran = {key for values in per_job.values() for key in values}
        probed = [t for t in targets if t.name in ALLOC_TARGETS and f"{t.name}.calls" in ran]
        result["alloc_peak_bytes"] = {}
        if probed:
            with tracer.AllocProbe(probed) as probe:
                loop.run_job("alloc")
            result["alloc_peak_bytes"] = dict(probe.peak)
    result["jobs"] = loop.jobs
    result["env"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": priorprop.KERNEL_BACKEND,
        "priorprop_file": priorprop.__file__,
    }
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
