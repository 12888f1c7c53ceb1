"""Tests of the benchmark's own code: generator, tracer and output checks.

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import checks
import instances
import run
import tracer
import yardstick

SMALL_2D = instances.InstanceSpec(nodes=600, dim=2, degree=10.0, labeled=30)
SMALL_3D = instances.InstanceSpec(nodes=800, dim=3, degree=12.0, labeled=40)


def _run_cli(argv):
    import priorprop.cli

    with contextlib.redirect_stdout(io.StringIO()):
        return priorprop.cli.main(argv)


# --- generator -------------------------------------------------------------


@pytest.mark.parametrize("spec", [SMALL_2D, SMALL_3D])
def test_generator_is_a_function_of_the_seed(spec):
    a, b = instances.generate(spec, 7), instances.generate(spec, 7)
    for field in ("i", "j", "w", "truth", "label_idx", "votes"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    c = instances.generate(spec, 8)
    assert not np.array_equal(a.truth, c.truth)


def test_generator_instance_properties():
    inst = instances.generate(SMALL_2D, 3)
    assert np.all(inst.i < inst.j) and np.all((inst.w > 0) & (inst.w <= 1))
    assert instances._connected(inst.nodes, np.stack([inst.i, inst.j], axis=1))
    labels = inst.truth[inst.label_idx]
    assert inst.label_idx.size == SMALL_2D.labeled and labels.sum() == SMALL_2D.labeled // 2
    cast = inst.votes != instances.ABSTAIN
    assert abs(cast.mean() - 0.6) < 0.05
    correct = inst.votes == inst.truth[:, None]
    assert abs(correct[cast].mean() - 0.8) < 0.05


def test_written_files_load_as_the_generated_instance(tmp_path):
    from priorprop import fileio

    inst = instances.generate(SMALL_2D, 1)
    paths = instances.write_files(inst, tmp_path)
    assert paths["graph"].read_text().startswith(f"# nodes {inst.nodes}\n")
    graph = fileio.load_graph(paths["graph"])
    np.testing.assert_array_equal(graph.matrix.toarray(), inst.adjacency().toarray())
    np.testing.assert_array_equal(fileio.load_votes(paths["votes"]).votes, inst.votes)
    np.testing.assert_array_equal(fileio.load_labels(paths["labels"]).indices, inst.label_idx)
    truth = fileio.load_labels(paths["truth"])
    np.testing.assert_array_equal(truth.values, inst.truth)


# --- tracer ----------------------------------------------------------------


@pytest.fixture
def toy_package(tmp_path, monkeypatch):
    """``toypkg.b.inner`` imported by ``toypkg.a``, whose ``outer`` calls it twice."""
    pkg = tmp_path / "toypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "b.py").write_text("def inner(x):\n    return x + 1\n\n\ndef _private():\n    pass\n")
    (pkg / "a.py").write_text(textwrap.dedent("""
        from toypkg.b import inner


        class Box:
            @classmethod
            def make(cls, x):
                return inner(x)


        def outer(x):
            return inner(inner(x))
    """))
    monkeypatch.syspath_prepend(tmp_path.as_posix())
    yield "toypkg"
    for name in [m for m in sys.modules if m == "toypkg" or m.startswith("toypkg.")]:
        del sys.modules[name]


def _bindings(package):
    return {
        (name, key): value
        for name, mod in sys.modules.items() if name == package or name.startswith(package + ".")
        for key, value in vars(mod).items()
    }


def test_tracer_self_time_on_nested_calls_and_restore(toy_package):
    targets = tracer.find_targets(toy_package, layers=("a", "b"), skip=frozenset())
    by_name = {t.name: t for t in targets}
    assert set(by_name) == {"a.outer", "a.Box.make", "b.inner"}
    assert {m.__name__ + "." + k for m, k in by_name["b.inner"].bindings} == {
        "toypkg.a.inner", "toypkg.b.inner"}
    before = _bindings(toy_package)
    box_make = vars(sys.modules["toypkg.a"].Box)["make"]

    ticks = iter(range(0, 1000, 1))
    tr = tracer.Tracer(targets, clock=lambda: float(next(ticks)))
    with tr:
        a = sys.modules["toypkg.a"]
        assert a.outer(1) == 3
        tr.job = 1
        assert a.Box.make(5) == 6
    # clock ticks: outer 0..5 wraps inner 1..2 and inner 3..4
    agg = tracer.per_job(tr.spans, tr.counters)
    assert agg[0]["a.outer.s"] == 5 and agg[0]["a.outer.self_s"] == 3
    assert agg[0]["b.inner.calls"] == 2 and agg[0]["b.inner.self_s"] == 2
    assert agg[1]["a.Box.make.s"] == 3 and agg[1]["a.Box.make.self_s"] == 2
    assert {(s[1], s[4] is None) for s in tr.spans} >= {("a.outer", True), ("b.inner", False)}

    after = _bindings(toy_package)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert vars(sys.modules["toypkg.a"].Box)["make"] is box_make


def test_tracer_restores_every_binding_of_the_package(tmp_path):
    import priorprop.cli
    import priorprop.solver

    targets = tracer.find_targets()
    names = {t.name for t in targets}
    assert {"cli.main", "kernels.gs_sweep", "graph.Graph.from_edges", "bounds.smoothness"} <= names
    assert "fileio.fmt_float" not in names
    before = _bindings("priorprop")
    original_sweep = priorprop.solver.gs_sweep
    with tracer.Tracer(targets) as tr:
        assert priorprop.solver.gs_sweep is not original_sweep
        inst = instances.generate(SMALL_2D, 0)
        paths = instances.write_files(inst, tmp_path)
        argv = ["propagate", "--graph", str(paths["graph"]), "--labels", str(paths["labels"]),
                "--votes", str(paths["votes"]), "--method", "iterative",
                "--output", str(tmp_path / "pred.txt")]
        assert priorprop.cli.main.__wrapped__ is not None
        assert _run_cli(argv) == 0
    after = _bindings("priorprop")
    assert all(after[k] is before[k] for k in before)
    agg = tracer.per_job(tr.spans, tr.counters)[0]
    assert agg["kernels.gs_sweep.calls"] == agg["solver.iterations"] > 0
    assert agg["graph.Graph.from_edges.calls"] == 2
    assert agg["fileio.bytes_written"] == (tmp_path / "pred.txt").stat().st_size


# --- checks ----------------------------------------------------------------


def test_propagate_check_accepts_the_cli_and_rejects_a_perturbed_node(tmp_path):
    inst = instances.generate(SMALL_2D, 2)
    paths = instances.write_files(inst, tmp_path)
    out = tmp_path / "pred.txt"
    argv = ["propagate", "--graph", str(paths["graph"]), "--labels", str(paths["labels"]),
            "--votes", str(paths["votes"]), "--method", "iterative", "--output", str(out)]
    assert _run_cli(argv) == 0
    ref = checks.reference_solution(inst)
    f = checks.read_prediction(out)
    assert checks.check_propagate(f, ref) is None
    f[17] += 1e-3
    assert checks.check_propagate(f, ref) is not None


def test_analyze_check_accepts_the_cli_and_rejects_perturbations(tmp_path):
    inst = instances.generate(SMALL_3D, 4)
    paths = instances.write_files(inst, tmp_path)
    out = tmp_path / "report.json"
    argv = ["analyze", "--graph", str(paths["graph"]), "--labels", str(paths["labels"]),
            "--truth", str(paths["truth"]), "--votes", str(paths["votes"]), "--output", str(out)]
    assert _run_cli(argv) == 0
    ref = checks.analyze_reference(inst)
    report = json.loads(out.read_text())
    assert checks.check_analyze(report, ref) is None

    # the error of one node in hop 1 moves by 1e-3: its hop's error total does too
    hop1 = report["bound_report"]["hops"][0]
    hop1["avg_error"] += 1e-3 / hop1["size"]
    assert checks.check_analyze(report, ref) is not None
    hop1["avg_error"] -= 1e-3 / hop1["size"]
    report["spectral_report"]["lambda1"] += 1e-3
    assert checks.check_analyze(report, ref) is not None
    report["spectral_report"]["lambda1"] -= 1e-3
    report["bound_report"]["solver_residual"] = 1e-3
    assert checks.check_analyze(report, ref) is not None


def test_demo_check_matches_the_recording_and_rejects_a_perturbed_accuracy(tmp_path):
    expected = json.loads(run.DEMO_ACCURACIES.read_text())["accuracies"]["0"]
    out = tmp_path / "demo.json"
    assert _run_cli(run.DEMO_ARGS + ["--seed", "0", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert checks.check_demo(report, expected) is None
    report["results"][3]["metrics"]["accuracy"] += 1e-3
    assert checks.check_demo(report, expected) is not None


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "demo-2.5k", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_reported_metrics_are_the_ones_benchmark_json_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    jobs = [{"phase": "timed", "seconds": 1.0, "yardstick_s": [0.05, 0.07]},
            {"phase": "untraced", "seconds": 1.0}]
    e2e, _ = run.end_to_end({"jobs": jobs, "peak_rss_mb": 90.0}, [[0.5, 0.06, 0.06]])
    layer, _ = run.per_layer({"jobs": jobs, "traced": {"1": {"cli.main.s": 1.1, "cli.main.self_s": 0.1}},
                              "alloc_peak_bytes": {}})
    for listed, reported in ((spec["end_to_end"], e2e), (spec["per_layer"], layer)):
        assert {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in reported.items()}


def test_normalized_times_do_not_move_with_machine_speed():
    # the same jobs and imports, once at full speed and once at half speed
    fast = {"jobs": [{"phase": "timed", "seconds": s, "yardstick_s": [0.05, 0.07]}
                     for s in (0.9, 1.0, 1.2)], "peak_rss_mb": 90.0}
    slow = {"jobs": [dict(j, seconds=2 * j["seconds"], yardstick_s=[0.1, 0.14])
                     for j in fast["jobs"]], "peak_rss_mb": 90.0}
    e2e_fast, _ = run.end_to_end(fast, [[0.5, 0.06, 0.06]])
    e2e_slow, _ = run.end_to_end(slow, [[1.0, 0.12, 0.12]])
    for name in ("job_s_p50", "setup_s"):
        assert e2e_slow[name]["value"] == pytest.approx(e2e_fast[name]["value"])
    assert e2e_fast["job_s_p50"]["value"] == pytest.approx(1.0 / 0.06 * yardstick.REFERENCE_S)
    assert e2e_fast["setup_s"]["value"] == pytest.approx(0.5 / 0.06 * yardstick.REFERENCE_S)


def _traced_run(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads((run.RESULTS / f"{workload}-seed0-trace1.json").read_text())
    return json.loads(proc.stdout.splitlines()[-1]), list(result["traced"].values())


@pytest.mark.parametrize("workload, largest", [
    ("analyze-6k", "spectral.second_smallest_eigenvalue"),
    ("propagate-iter-2k", "kernels.gs_sweep"),
])
def test_traced_run_has_the_expected_shape(workload, largest):
    line, jobs = _traced_run(workload)
    assert line["correct"] and line["failed"] == 0
    assert run.largest_self_time(jobs)[0] == largest
    metrics = line["metrics"]
    assert (metrics["kernels.gs_sweep.s"]["value"] > 0) == (workload == "propagate-iter-2k")
    if workload == "analyze-6k":
        assert all(j["solver.solve_with_prior.calls"] == 2 for j in jobs)
