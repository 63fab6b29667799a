"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

``test_traced_workload`` runs each workload once untraced and once traced,
about a minute and a half on two cores.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

SRC = str(run.ROOT / "src")


def _python(code):
    env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
    done = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_benchmark_json_lists_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert spec["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, *_ in run.all_layers()
    ]


def test_inputs_are_seeded_and_do_not_import_firmgrowth(tmp_path):
    _python(f"""
import sys, inputs
from pathlib import Path
for sub, seed in (("a", 3), ("b", 3), ("c", 4)):
    d = Path({str(tmp_path)!r}) / sub
    d.mkdir()
    inputs.quarterly_export(seed, d)
    inputs.mig_volatilities(seed, d)
assert "firmgrowth" not in sys.modules
""")
    for name in ("quarterly.csv", "deflator.csv", "volatilities.csv"):
        a, b, c = ((tmp_path / s / name).read_bytes() for s in "abc")
        assert a == b
        assert a != c


def test_driver_loads_no_numpy():
    # a step's ru_maxrss starts from the peak of the process that spawned it
    out = _python("import sys, run; print('numpy' in sys.modules, 'firmgrowth' in sys.modules)")
    assert out.split() == ["False", "False"]


def test_install_rebinds_every_reference():
    out = _python("""
import firmgrowth
from firmgrowth import cli, estimation, experiments, model, panel
import tracer
tracer.install(tracer.Tracer())
traced = lambda f: hasattr(f, "__wrapped__")
checks = {
    "cli.simulate_panel": cli.simulate_panel is model.simulate_panel,
    "panel.mad_volatility": panel.mad_volatility is estimation.mad_volatility,
    "experiments.sample_firm_stats": experiments.sample_firm_stats is model.sample_firm_stats,
    "estimation.binned_volatility_moments": traced(estimation.binned_volatility_moments),
    "package re-export": firmgrowth.simulate_panel is model.simulate_panel,
    "cli._COMMANDS": all(traced(f) for f in cli._COMMANDS.values()),
    "experiments._RUNNERS": all(traced(f) for f in experiments._RUNNERS.values()),
    "Panel.read_csv": traced(model.Panel.__dict__["read_csv"].__func__),
    "QuarterlyPanel.from_observations":
        traced(panel.QuarterlyPanel.__dict__["from_observations"].__func__),
    "Panel.write_csv": traced(model.Panel.write_csv),
    "simulate_panel": traced(model.simulate_panel),
    "cli.main untraced": not traced(cli.main),
}
print([k for k, ok in checks.items() if not ok])
""")
    assert out.strip() == "[]"


def test_spans_keep_one_stack_per_thread(tmp_path):
    (tmp_path / "c.ini").write_text(
        "[run]\nseed = 5\nthreads = 2\nout_dir = out\n[model]\nk_mode = pareto\nmu = 1.6\n"
        "alpha = 1.2\n[simulate]\nn_firms = 4096\nn_periods = 3\n"
        "[analyze]\npanel = out/panel.csv\nn_bins = 5\n"
    )
    for step in ("simulate", "analyze"):
        done = subprocess.run(
            [sys.executable, str(HERE / "step.py"), str(tmp_path / f"{step}.stamp"),
             str(tmp_path / f"{step}.npz"), "--config", "c.ini", step],
            cwd=tmp_path, env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
    sim, _ = tracer.summarize(tmp_path / "simulate.npz")
    ana, _ = tracer.summarize(tmp_path / "analyze.npz")
    assert sim["model.shocks_from_uniforms"]["calls"] == 4096
    # the shocks run in pool threads, so they are no children of simulate_panel
    assert sim["model.simulate_panel"]["self_s"] == pytest.approx(sim["model.simulate_panel"]["s"])
    assert sim["model.simulate_panel"]["count"] == 4096 * 3
    assert sim["cli.cmd_simulate"]["self_s"] < sim["cli.cmd_simulate"]["s"]
    assert ana["model.Panel.read_csv"]["count"] == 4096 * 3
    assert ana["analysis.binned_volatility_moments"]["calls"] == 2
    for stats in (sim, ana):
        assert all(v["self_s"] >= 0 for v in stats.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_workload(workload):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(run.DEFAULT_SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    zero = [name for name, _, _, moves, on, _ in run.all_layers()
            if workload in on and moves != "none" and result["metrics"][name]["value"] == 0]
    assert zero == []
    # tracing leaves every output byte-identical to the reference
    runs = json.loads((run.WORK / workload / "run.json").read_text())["runs"]
    reference = json.loads(run.REFERENCE.read_text())[workload]
    assert [r["traced"] for r in runs] == [False, True]
    assert runs[0]["digests"] == runs[1]["digests"] == reference
