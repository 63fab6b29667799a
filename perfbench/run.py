"""firmgrowth benchmark: CLI workloads timed end to end, per-module spans traced from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the steps run the package in ``src/``.
Each workload is a fixed list of ``firmgrowth`` CLI steps.  Its inputs are
generated from ``--seed`` before timing starts; then the workload runs again
and again, one step at a time, each step a fresh child process, until
``--seconds`` have passed (closed loop, one client).  Every run's outputs
are checked.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced runs with runs whose public firmgrowth functions are
wrapped in spans (see ``tracer.py``), and reports the per-layer metrics as
well.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload in turn.  Working files go to ``perfbench/_work``.

This process stays small: it imports no NumPy, and generates inputs and
reduces spans in child processes.  A child's ``ru_maxrss`` starts from the
peak of the process that spawned it, so a large driver would hide memory
savings in the steps.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30

SA, IQ, PB = "sim_analyze", "ingest_quarterly", "paper_battery"
WORKLOADS = (SA, IQ, PB)

# ---------------------------------------------------------------------------
# Workloads: inputs, steps and the checks on their outputs
# ---------------------------------------------------------------------------

SIM_CONFIG = """\
[run]
seed = {seed}
out_dir = out

[model]
k_mode = pareto
mu = 1.6
alpha = 1.2
sigma0 = 0.1

[simulate]
n_firms = 20000
n_periods = 8

[analyze]
panel = out/panel.csv
n_bins = 25
q_list = 1,2,3,4
"""

INGEST_CONFIG = """\
[run]
out_dir = out

[ingest]
input = inputs/quarterly.csv
deflator = inputs/deflator.csv
firm_id_col = gvkey
year_col = fyearq
quarter_col = fqtr
size_col = atq
fiscal_year_end_month_col = fyr
fiscal_december_only = true
min_growth_obs = 2
"""

# step name -> CLI arguments, run with the workload directory as working directory
STEPS = {
    SA: {
        "simulate": ["--config", "config.ini", "simulate"],
        "analyze": ["--config", "config.ini", "analyze"],
    },
    IQ: {"ingest": ["--config", "config.ini", "ingest"]},
    PB: {
        "reproduce.prop2_scaling": ["reproduce", "prop2_scaling", "--out-dir", "out"],
        "reproduce.table1": ["reproduce", "table1", "--out-dir", "out"],
        "reproduce.fig5": ["reproduce", "fig5", "--out-dir", "out"],
        "fit.mig": ["fit", "--family", "mig", "--input", "inputs/volatilities.csv",
                    "--out-dir", "out"],
    },
}

# output file -> data rows it must hold (None: any)
OUTPUTS = {
    SA: {
        "panel.csv": 20_000 * 8, "panel.meta.json": None,
        "binned_stats.csv": 25, "binned_stats.csv.meta.json": None,
        "collapse.csv": 20_000, "collapse.csv.meta.json": None,
        "rescaled_vol_density.csv": 2_000, "rescaled_vol_density.csv.meta.json": None,
        "exponent_profile.csv": 4, "exponent_profile.csv.meta.json": None,
        "scaling_fits.json": None,
    },
    IQ: {
        "growth.csv": None, "growth.csv.meta.json": None,
        "descriptive_stats.csv": 4, "exclusions.json": None,
    },
    PB: {
        "prop2_scaling_moments.csv": 9, "prop2_scaling_moments.csv.meta.json": None,
        "prop2_scaling_result.json": None,
        "table1_gse_fits.csv": 3, "table1_gse_fits.csv.meta.json": None,
        "table1_result.json": None,
        "fig5_density_and_fit.csv": 1_000, "fig5_density_and_fit.csv.meta.json": None,
        "fig5_result.json": None,
        "fit_mig.json": None,
    },
}
# outputs that do not depend on the benchmark seed (experiments at their reference seeds)
SEED_FREE = {name for name in OUTPUTS[PB] if not name.startswith("fit_")}
# JSON keys that hold a timing, dropped before hashing
VOLATILE = {"prop2_scaling_result.json": ("scalars", "runtime_seconds")}


def _child_json(script, *args):
    """Run one of the benchmark's helper scripts in a child process; return its JSON."""
    done = subprocess.run([sys.executable, str(HERE / script), *map(str, args)],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def prepare(workload, seed, wdir):
    """Generate the workload's inputs into ``wdir``; return what its outputs must match."""
    (wdir / "inputs").mkdir(parents=True)
    if workload == SA:
        (wdir / "config.ini").write_text(SIM_CONFIG.format(seed=seed))
        return {}
    if workload == IQ:
        (wdir / "config.ini").write_text(INGEST_CONFIG)
        return _child_json("inputs.py", "quarterly", seed, wdir / "inputs")
    return _child_json("inputs.py", "volatilities", seed, wdir / "inputs")


def digest(path):
    data = path.read_bytes()
    if path.name in VOLATILE:
        section, key = VOLATILE[path.name]
        try:
            payload = json.loads(data)
            payload[section].pop(key, None)
            data = json.dumps(payload, sort_keys=True).encode()
        except (ValueError, KeyError, TypeError, AttributeError):
            pass  # hashed as is; it cannot match the reference
    return hashlib.sha256(data).hexdigest()


def _data_rows(path):
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def verify(workload, seed, out, expected, reference):
    """Check one run's outputs.  Returns (problems, digests)."""
    problems, digests = [], {}
    for name, rows in OUTPUTS[workload].items():
        path = out / name
        if not path.is_file():
            problems.append(f"missing output {name}")
            continue
        digests[name] = digest(path)
        if rows is not None and _data_rows(path) != rows:
            problems.append(f"{name}: {_data_rows(path)} data rows, expected {rows}")
    if problems:
        return problems, digests

    ref = reference.get(workload, {})
    for name, value in digests.items():
        if name in ref and (seed == DEFAULT_SEED or name in SEED_FREE) and ref[name] != value:
            problems.append(f"{name}: digest differs from the reference")
    try:
        problems += _content_problems(workload, out, expected)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems, digests


def _content_problems(workload, out, expected):
    problems = []
    if workload == SA:
        fits = json.loads((out / "scaling_fits.json").read_text())
        if fits["_meta"].get("dropped_firms") != 0 or sorted(fits["fits"]) != ["1", "2", "3", "4"]:
            problems.append("scaling_fits.json: dropped firms or missing moments")
    elif workload == IQ:
        excl = json.loads((out / "exclusions.json").read_text())
        if excl["excluded_firms"] != expected["excluded_firms"]:
            problems.append("exclusions.json: exclusion log differs from the input's")
        if excl["n_retained_firms"] + len(excl["excluded_firms"]) != expected["n_firms"]:
            problems.append("exclusions.json: retained + excluded != input firms")
        if _data_rows(out / "growth.csv") != expected["n_growth_rates"]:
            problems.append("growth.csv: wrong number of growth rates")
    else:
        for exp in ("prop2_scaling", "table1", "fig5"):
            if json.loads((out / f"{exp}_result.json").read_text())["passed"] is not True:
                problems.append(f"{exp}: verdict is not PASS")
        if json.loads((out / "fit_mig.json").read_text())["converged"] is not True:
            problems.append("fit_mig.json: fit did not converge")
    return problems


# ---------------------------------------------------------------------------
# Running steps
# ---------------------------------------------------------------------------

def run_step(name, args, wdir, spans=None):
    """Run one CLI step as a child process; return its measurements."""
    stamp = wdir / "logs" / f"{name}.stamp"
    stamp.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(HERE / "step.py"), str(stamp), str(spans or "-"), *args]
    with open(wdir / "logs" / f"{name}.log", "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=wdir, env=env, stdout=log, stderr=subprocess.STDOUT)
        # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be a
        # running maximum over every child reaped so far
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup = float(stamp.read_text()) - start if stamp.is_file() else float("nan")
    return {
        "step": name,
        "exit": proc.returncode,
        "wall_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "setup_s": setup,
        "start": start,
        "end": end,
    }


def run_once(workload, seed, wdir, expected, reference, traced=False):
    """One run of the workload: every step in order, then the output checks."""
    out = wdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    spans_dir = wdir / "spans"
    steps = []
    for name, args in STEPS[workload].items():
        spans = spans_dir / f"{name}.npz" if traced else None
        steps.append(run_step(name, args, wdir, spans))
        if steps[-1]["exit"] != 0:
            break
    problems = [f"{s['step']}: exit code {s['exit']}" for s in steps if s["exit"] != 0]
    if len(steps) < len(STEPS[workload]):
        problems.append("workload stopped after a failed step")
    digests = {}
    if not problems:
        problems, digests = verify(workload, seed, out, expected, reference)
    run = {
        "traced": traced,
        "wall_s": steps[-1]["end"] - steps[0]["start"],
        "setup_s": sum(s["setup_s"] for s in steps),
        "peak_rss_mb": max(s["rss_mb"] for s in steps),
        "steps": steps,
        "problems": problems,
        "digests": digests,
    }
    if traced and not problems:
        paths = [spans_dir / f"{name}.npz" for name in STEPS[workload]]
        summaries = _child_json("tracer.py", *paths)
        run["spans"] = {name: summaries[str(path)] for name, path in zip(STEPS[workload], paths)}
    return run


def run_for(seconds, trace, *args):
    """Repeat the workload for ``seconds``; return (untraced runs, traced runs).

    With ``trace`` the runs come in untraced/traced pairs, and each pair
    swaps the order of the last, so a drift in host speed hits both sides
    alike.
    """
    plain, traced = [], []
    start = time.monotonic()
    while not plain or time.monotonic() - start < seconds:
        if not trace:
            plain.append(run_once(*args))
            continue
        for t in (False, True) if len(plain) % 2 == 0 else (True, False):
            (traced if t else plain).append(run_once(*args, traced=t))
    return plain, traced


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
STEP_METRICS = {"wall_s": "s", "cpu_s": "s", "rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics from traced runs: which end-to-end metric each should
# move, on which workloads, and where it should stay unchanged.
# (metric, unit, better, moves, on, unchanged on)
LAYERS = [
    ("cli.cmd_analyze.self_s", "s", "lower", "wall_s", (SA,), (PB,)),
    ("estimation.mad_volatility.calls", "count", "lower", "wall_s", (SA,), (PB,)),
    *[(f"model.Panel.{m}.{k}", u, b, "wall_s", (SA,), (IQ, PB))
      for m in ("write_csv", "read_csv")
      for k, u, b in (("s", "s", "lower"), ("rows", "count", "higher"))],
    ("model.simulate_panel.s", "s", "lower", "wall_s", (SA, PB), (IQ,)),
    ("model.simulate_panel.firm_periods_per_s", "1/s", "higher", "wall_s", (SA, PB), (IQ,)),
    ("model.shocks_from_uniforms.calls", "count", "lower", "wall_s", (SA, PB), (IQ,)),
    *[(m, u, b, "wall_s, peak_rss_mb", (IQ,), (SA, PB)) for m, u, b in (
        ("panel.ingest_csv.s", "s", "lower"),
        ("panel.ingest_csv.rows_per_s", "1/s", "higher"),
        ("panel.QuarterlyPanel.from_observations.s", "s", "lower"),
        ("panel.deflate.s", "s", "lower"),
        ("panel.normalize_by_year.s", "s", "lower"))],
    *[(m, u, "lower", "wall_s", (IQ,), (SA, PB)) for m, u in (
        ("panel.filter_firms.s", "s"),
        ("panel.descriptive_stats.s", "s"),
        ("panel.annual_log_growth.calls", "count"),
        ("panel.write_growth_csv.s", "s"))],
    ("model.sample_firm_stats.s", "s", "lower", "wall_s, peak_rss_mb", (PB,), (SA, IQ)),
    ("model.sample_firm_stats.draws", "count", "higher", "wall_s, peak_rss_mb", (PB,), (SA, IQ)),
    ("model.sample_firm_stats.draws_per_s", "1/s", "higher", "wall_s, peak_rss_mb", (PB,),
     (SA, IQ)),
    ("distributions.mig_sample.s", "s", "lower", "wall_s", (PB,), (SA, IQ)),
    *[(m, u, "lower", "wall_s", (PB, SA), (IQ,)) for m, u in (
        ("analysis.kde_gaussian.s", "s"),
        ("analysis.kde_gaussian.calls", "count"),
        ("analysis.kde_gaussian.binned_calls", "count"))],
    # paper_battery's steps never call the binning layer
    *[(m, "s", "lower", "wall_s", (SA,), (IQ, PB)) for m in (
        "analysis.equal_count_bins.s",
        "analysis.binned_volatility_moments.s",
        "estimation.power_law_exponent_profile.s")],
    ("cli.write_table_csv.s", "s", "lower", "wall_s", (SA, PB), (IQ,)),
    ("cli.write_json.s", "s", "lower", "wall_s", (SA, PB, IQ), ()),
    *[(m, u, "lower", "wall_s", (PB,), (SA, IQ)) for m, u in (
        ("estimation.leave_one_out_rescale.calls", "count"),
        ("estimation.leave_one_out_rescale.s", "s"),
        ("estimation.fit_gse_nls.s", "s"),
        ("estimation.fit_gse_nls.calls", "count"),
        ("estimation.fit_mig_mle.s", "s"),
        ("cli.cmd_fit.self_s", "s"),
        ("experiments.run_prop2_scaling.self_s", "s"),
        ("experiments.run_table1.self_s", "s"),
        ("experiments.run_fig5.self_s", "s"))],
    ("trace.overhead_frac", "frac", "lower", "none", WORKLOADS, ()),
    ("trace.covered_frac", "frac", "higher", "none", WORKLOADS, ()),
]
# metric suffixes computed from call arguments or results (see tracer.COMPUTED):
# counts, and counts per second of the function's inclusive time
COUNTS = {"rows", "draws", "binned_calls"}
RATES = {"rows_per_s", "draws_per_s", "firm_periods_per_s"}


def step_layers():
    return [
        (f"cli.{step}.{m}", unit, "lower", "wall_s, peak_rss_mb, setup_s", (w,),
         tuple(x for x in WORKLOADS if x != w))
        for w in WORKLOADS for step in STEPS[w] for m, unit in STEP_METRICS.items()
    ]


def all_layers():
    return step_layers() + LAYERS


def function_metric(name, spans):
    """Value of one traced-function metric from per-step span summaries."""
    func, _, suffix = name.rpartition(".")
    stats = [s[func] for s, _ in spans.values() if func in s]
    if suffix in ("s", "self_s", "calls"):
        return float(sum(s[suffix] for s in stats))
    count = sum(s["count"] for s in stats)
    if suffix in COUNTS:
        return float(count)
    seconds = sum(s["s"] for s in stats)
    return count / seconds if seconds > 0 else 0.0


def _median(values):
    values = [v for v in values if v == v]
    return statistics.median(values) if values else 0.0


def end_to_end(runs):
    return {m: _median(r[m] for r in runs) for m in END_TO_END}


def step_medians(runs):
    out = {}
    for r in runs:
        for s in r["steps"]:
            for m in STEP_METRICS:
                out.setdefault(f"cli.{s['step']}.{m}", []).append(s[m])
    return {k: _median(v) for k, v in out.items()}


def layer_values(plain, traced):
    """Every per-layer metric; 0 for a step or function this workload never runs."""
    values = dict.fromkeys((row[0] for row in all_layers()), 0.0)
    values.update(step_medians(plain))
    good = [r for r in traced if "spans" in r]
    for name, *_ in LAYERS:
        if not name.startswith("trace."):
            values[name] = _median(function_metric(name, r["spans"]) for r in good)
    # paired runs: plain[i] and traced[i] ran back to back
    values["trace.overhead_frac"] = _median(
        t["wall_s"] / p["wall_s"] - 1.0 for p, t in zip(plain, traced)
    )
    values["trace.covered_frac"] = _median(
        sum(c for _, c in r["spans"].values()) / sum(s["wall_s"] for s in r["steps"])
        for r in good
    )
    return values


def environment():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        # the CLI resolves its default --threads 0 to os.cpu_count()
        "threads": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        # no step's rss_mb can read below this (see the module docstring)
        "driver_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def _range(values):
    values = [v for v in values if v == v]
    return f"min {min(values):.4g}, max {max(values):.4g}" if values else "no samples"


def print_report(workload, seed, env, plain, traced, layers):
    runs = plain + traced
    failed = sum(1 for r in runs if r["problems"])
    print(f"== {workload}  seed {seed}  runs {len(plain)} untraced + {len(traced)} traced")
    print("env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for r in runs:
        for p in r["problems"]:
            print(f"FAILED: {p}")
    floored = {s["step"] for r in plain for s in r["steps"] if s["rss_mb"] <= env["driver_rss_mb"]}
    for step in sorted(floored):
        print(f"WARNING: {step}: rss_mb is not above this process's own peak RSS, "
              f"{env['driver_rss_mb']:.1f} MB, so it may not be the step's")
    for m, unit in END_TO_END.items():
        vals = [r[m] for r in plain]
        print(f"{m:<12} {_median(vals):10.4f} {unit:<3} median of {len(vals)} ({_range(vals)})")
    print(f"{'fail_frac':<12} {failed / len(runs):10.4f} frac ({failed} of {len(runs)} runs failed)")
    print("combined output digest: " + hashlib.sha256(
        json.dumps(plain[-1]["digests"], sort_keys=True).encode()).hexdigest()[:16])
    for name, unit, _, moves, on, unchanged in all_layers():
        if name.startswith("cli.") and name.split(".")[-1] in STEP_METRICS and workload not in on:
            continue
        if name not in layers:
            continue
        note = " (computed)" if name.rpartition(".")[2] in COUNTS | RATES else ""
        where = f"moves {moves} on {', '.join(on)}" if moves != "none" else "trace quality"
        if unchanged:
            where += f"; unchanged on {', '.join(unchanged)}"
        print(f"  {name:<44} {layers[name]:14.6g} {unit:<5}{note}  [{where}]")


def run_workload(workload, seed, seconds, trace):
    wdir = WORK / workload
    shutil.rmtree(wdir, ignore_errors=True)
    (wdir / "logs").mkdir(parents=True)
    (wdir / "spans").mkdir()
    expected = prepare(workload, seed, wdir)
    reference = json.loads(REFERENCE.read_text())
    plain, traced = run_for(seconds, trace, workload, seed, wdir, expected, reference)
    env = environment()
    metrics = {m: {"value": v, "unit": END_TO_END[m]} for m, v in end_to_end(plain).items()}
    if trace:
        layers = layer_values(plain, traced)
        metrics.update({row[0]: {"value": layers[row[0]], "unit": row[1]} for row in all_layers()})
    else:
        layers = step_medians(plain)
    print_report(workload, seed, env, plain, traced, layers)
    runs = plain + traced
    for r in runs:
        r.pop("spans", None)
    (wdir / "run.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "env": env, "runs": runs}, indent=1))
    failed = sum(1 for r in runs if r["problems"])
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "firmgrowth" / "cli.py").is_file():
        print(f"error: no firmgrowth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")], check=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        print(json.dumps(run_workload(workload, args.seed, args.seconds, args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
