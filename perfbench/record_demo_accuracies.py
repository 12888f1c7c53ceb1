#!/usr/bin/env python3
"""Record the per-method accuracies that the demo-2.5k check compares against.

    python3 perfbench/record_demo_accuracies.py

Runs the demo-2.5k job for demo seeds ``0 .. POOL-1`` and writes
``perfbench/demo_accuracies.json``. The recorded file was made at the commit
that introduced the benchmark; re-record only when a change is meant to alter
the demo's accuracies.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, run.SRC.as_posix())

import priorprop.cli  # noqa: E402

POOL = 24


def main() -> int:
    accuracies = {}
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        out = Path(tmp) / "demo.json"
        for seed in range(POOL):
            argv = run.DEMO_ARGS + ["--seed", str(seed), "--output", out.as_posix()]
            with contextlib.redirect_stdout(io.StringIO()):
                if priorprop.cli.main(argv) != 0:
                    raise SystemExit(f"demo failed for seed {seed}")
            results = json.loads(out.read_text())["results"]
            accuracies[str(seed)] = {r["method"]: r["metrics"]["accuracy"] for r in results}
            print(f"seed {seed}: {accuracies[str(seed)]}")
    run.DEMO_ACCURACIES.write_text(json.dumps(
        {"command": run.DEMO_ARGS + ["--seed", "SEED"], "accuracies": accuracies}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
