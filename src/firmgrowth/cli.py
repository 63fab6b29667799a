"""Command line front end: simulate, analyze, fit, ingest, reproduce.

Configuration comes from an INI file (sections documented in the README);
the --seed / --out-dir flags override the [run] section.  Exit
codes: 0 success, 1 validation error, 2 runtime error, 3 tolerance check
failed under --strict.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from firmgrowth import __version__, analysis, estimation
from firmgrowth.analysis import DensityEstimate
from firmgrowth.experiments import EXPERIMENTS, run_experiment
from firmgrowth.model import (
    FixedCount, ModelParams, Panel, ParetoCount, load_csv_rows, read_columns, simulate_panel,
)
from firmgrowth import panel as panel_mod

try:  # CPython's own SHA-256 (3.12+, then 3.10-3.11): hashlib's loads OpenSSL, 3+ MB of RSS
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_STRICT_FAIL = 3


class ValidationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

_SCHEMA_FIELDS = ("firm_id", "year", "quarter", "size", "fiscal_year_end_month")

# Every config section with its keys and their defaults (None: no default).
# load_config rejects any other section or key; [reproduce] takes the chosen
# experiment's parameters, which run_experiment checks against its runner.
CONFIG_KEYS = {
    "run": {"seed": "20260801", "out_dir": "out"},
    "model": {
        "mu": None, "alpha": None, "s0": "1.0", "sigma0": "0.1", "k_mode": "pareto", "k": "1",
        "shock_law": "gaussian", "student_dof": "5.0",
    },
    "simulate": {"n_firms": "1000", "n_periods": "8"},
    "analyze": {"panel": None, "n_bins": "25", "q_list": "1,2,3,4"},
    "fit": {"family": "", "input": None},
    "ingest": {
        "input": None, "deflator": None, "min_growth_obs": "2", "fiscal_december_only": "false",
        **{f"{logical}_col": panel_mod.DEFAULT_SCHEMA.get(logical) for logical in _SCHEMA_FIELDS},
    },
    "reproduce": None,
}


def load_config(path):
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if path is not None:
        try:
            found = cfg.read(path)
            for name in cfg.sections():  # interpolate every value here, before any work
                cfg.items(name)
        except configparser.InterpolationError as exc:
            raise ValidationError(f"[{exc.section}] {exc.option}: {exc.message}") from None
        except configparser.Error as exc:
            raise ValidationError(str(exc)) from None
        if not found:
            raise ValidationError(f"config file not found: {path}")
    for name in cfg.sections():
        if name not in CONFIG_KEYS:
            raise ValidationError(f"unknown section [{name}]; accepted: {', '.join(CONFIG_KEYS)}")
        accepted = CONFIG_KEYS[name]
        if accepted is None:
            continue
        unknown = sorted(set(_own_keys(cfg, name)) - set(accepted))
        if unknown:
            raise ValidationError(
                f"unknown [{name}] key(s) {', '.join(unknown)}; accepted: {', '.join(accepted)}"
            )
    return cfg


def config_hash(cfg: configparser.ConfigParser):
    payload = {s: dict(cfg[s]) for s in cfg.sections()}
    blob = json.dumps(payload, sort_keys=True).encode()
    return sha256(blob).hexdigest()[:16]


def _own_keys(cfg, section):
    """The keys set in `section` itself.  No command reads the [DEFAULT] keys, which configparser
    merges into every section's view and items(); only its private `_sections` leaves them out."""
    return list(cfg._sections.get(section, ()))


def _settings(cfg, section):
    """The values of `section`'s own keys, over the table's defaults."""
    own = {key: cfg.get(section, key) for key in _own_keys(cfg, section)}
    return {**(CONFIG_KEYS[section] or {}), **own}


def _integer(section, key, value, minimum=None):
    """`value` of [section] key as an int, no less than `minimum` when one is given."""
    try:
        number = int(value)
    except ValueError:
        number = None
    if number is None or (minimum is not None and number < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValidationError(f"[{section}] {key} = {value!r} is not an integer{bound}")
    return number


def _boolean(section, key, value):
    states = configparser.ConfigParser.BOOLEAN_STATES
    if value.strip().lower() not in states:
        raise ValidationError(f"[{section}] {key} = {value!r} is not one of {', '.join(states)}")
    return states[value.strip().lower()]


def run_settings(cfg, args):
    """[run] section with CLI flags taking precedence."""
    run = _settings(cfg, "run")
    seed = args.seed if args.seed is not None else _integer("run", "seed", run["seed"])
    return seed, Path(args.out_dir or run["out_dir"])


def model_params_from_config(cfg):
    if not cfg.has_section("model"):
        raise ValidationError("config needs a [model] section")
    model = _settings(cfg, "model")
    mode = model["k_mode"].strip().lower()
    if mode not in ("fixed", "pareto"):
        raise ValidationError(f"unknown k_mode {mode!r} (use fixed or pareto)")
    if model["mu"] is None:
        raise ValidationError("[model] needs mu")
    if mode == "pareto" and model["alpha"] is None:
        raise ValidationError("pareto k_mode needs alpha in [model]")
    try:
        return ModelParams(
            mu=float(model["mu"]),
            alpha=float(model["alpha"]) if mode == "pareto" else None,
            s0=float(model["s0"]),
            sigma0=float(model["sigma0"]),
            k_mode=(FixedCount(_integer("model", "k", model["k"], 1)) if mode == "fixed"
                    else ParetoCount()),
            shock_law=model["shock_law"].strip().lower(),
            student_dof=float(model["student_dof"]),
        )
    except (ValueError, TypeError) as exc:
        raise ValidationError(str(exc)) from None


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

_CSV_CHUNK = 1 << 13


def write_table_csv(path, header, columns, meta=None, newline="\n"):
    """Write the table ``(header, columns)`` of equal-length columns: the one CSV writer.

    Each value is written unquoted as ``str(value)``, so floats, Python or
    NumPy, keep their full ``repr`` precision.  Rows are formatted 8,192 at a
    time, one ``%``-format per chunk.  `newline` ends each line: CRLF only in
    descriptive_stats.csv, the ending its first writer (csv.DictWriter) gave it.
    With `meta`, a ``.meta.json`` sidecar is written next to the file.
    """
    n_rows = len(columns[0]) if columns else 0  # a table of no rows may come as no columns
    line = ",".join(["%s"] * len(columns)) + "\n"
    with open(path, "w", newline=newline) as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n_rows, _CSV_CHUNK):
            block = np.empty((min(_CSV_CHUNK, n_rows - lo), len(columns)), dtype=object)
            for j, col in enumerate(columns):
                block[:, j] = col[lo : lo + _CSV_CHUNK]
            fh.write(line * len(block) % tuple(block.ravel()))
    if meta is not None:
        write_json(Path(str(path) + ".meta.json"), meta)


def _nan_to_null(o):
    # a NumPy scalar becomes its Python value, and a non-finite float null,
    # because strict JSON has no NaN or Infinity tokens
    if isinstance(o, dict):
        return {k: _nan_to_null(v) for k, v in o.items()}
    if isinstance(o, np.ndarray):
        o = o.tolist()
    if isinstance(o, (list, tuple)):
        return [_nan_to_null(v) for v in o]
    if isinstance(o, np.generic):
        o = o.item()
    if isinstance(o, float) and not np.isfinite(o):
        return None
    return o


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(_nan_to_null(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _meta(cfg, seed, extra=None):
    meta = {"version": __version__, "seed": int(seed), "config_hash": config_hash(cfg)}
    if extra:
        meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg, args):
    seed, out_dir = run_settings(cfg, args)
    params = model_params_from_config(cfg)
    sim = _settings(cfg, "simulate")
    n_firms = _integer("simulate", "n_firms", sim["n_firms"], 1)
    n_periods = _integer("simulate", "n_periods", sim["n_periods"], 2)

    out_dir.mkdir(parents=True, exist_ok=True)
    panel, clamp_count = simulate_panel(params, n_firms, n_periods, seed)
    panel_path = out_dir / "panel.csv"
    write_table_csv(
        panel_path, ["firm_id", "period", "size"], [panel.firm_id, panel.period, panel.size]
    )
    meta = _meta(cfg, seed, {
        "params": params.to_dict(),
        "n_firms": n_firms,
        "n_periods": n_periods,
        "clamp_count": clamp_count,
    })
    write_json(out_dir / "panel.meta.json", meta)
    print(f"wrote {panel_path} ({panel.n_records} records, clamp_count={clamp_count})")
    return EXIT_OK


def cmd_analyze(cfg, args):
    seed, out_dir = run_settings(cfg, args)
    ana = _settings(cfg, "analyze")
    panel_path = args.panel or ana["panel"]
    if not panel_path or not Path(panel_path).exists():
        raise ValidationError(f"panel file not found: {panel_path!r}")
    n_bins = _integer("analyze", "n_bins", ana["n_bins"], 1)
    q_list = [_integer("analyze", "q_list", q) for q in ana["q_list"].split(",")]
    for i, q in enumerate(q_list):
        if q < 1:
            raise ValidationError(f"[analyze] q_list: moment {q} is below 1")
        if q in q_list[:i]:
            raise ValidationError(f"[analyze] q_list: moment {q} is given twice")

    panel = Panel.read_csv(panel_path)
    sizes_mean, vols, dropped = estimation.firm_size_volatility(
        panel.firm_id, panel.period, panel.size
    )
    if len(vols) < n_bins:
        raise ValidationError(
            "not enough firms with >= 2 one-period growth rates for the requested bins"
        )

    bins = analysis.equal_count_bins(sizes_mean, n_bins)
    mean_size, moments = analysis.binned_volatility_moments(bins, sizes_mean, vols, q_list)
    rescaled = analysis.rescale_collapse(bins, vols)
    pooled = np.concatenate(rescaled)
    grid = np.linspace(0.0, max(float(np.quantile(pooled, 0.999)) * 1.5, 1.0), 2000)
    dens = analysis.kde_gaussian(pooled, grid)
    profile = estimation.power_law_exponent_profile(mean_size, moments)

    # every table is computed above, so a failure leaves no partial bundle
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = _meta(cfg, seed)
    tables = {
        "binned_stats": (["bin", "mean_size", "n"] + [f"q{q}" for q in q_list],
                         [bins.keys, mean_size, bins.counts, *(moments[q] for q in q_list)]),
        "collapse": (["bin", "rescaled_vol"],
                     [np.repeat(np.arange(len(rescaled)), [r.size for r in rescaled]), pooled]),
        "rescaled_vol_density": (["x", "density"], [dens.grid, dens.values]),
        "exponent_profile": estimation.exponent_profile_table(profile),
    }
    for name, (header, columns) in tables.items():
        write_table_csv(out_dir / f"{name}.csv", header, columns, meta=meta)
    write_json(
        out_dir / "scaling_fits.json",
        {"_meta": _meta(cfg, seed, {"dropped_firms": dropped}),
         "fits": {str(q): asdict(profile[q]) for q in q_list}},
    )
    print(f"wrote analysis bundle to {out_dir} ({len(vols)} firms, {dropped} dropped)")
    return EXIT_OK


def _read_samples(path):
    """The first column of a CSV as floats, skipping a header row if there is one."""
    with open(path) as fh:
        first = fh.readline()
    try:
        float(first.split(",")[0])
        skip = 0
    except ValueError:
        skip = 1
    samples = load_csv_rows(path, f"fit input {path}", usecols=0, skiprows=skip)
    if samples.size == 0:
        raise ValidationError(f"fit input {path} has no data rows")
    return samples


def _read_density(path):
    """The x and density columns, found by name in the header, of a CSV of finite numbers."""
    rows = read_columns(path, f"fit input {path}", [("x", float), ("density", float)])
    bad = np.flatnonzero(~(np.isfinite(rows["x"]) & np.isfinite(rows["density"])))
    if bad.size:
        raise ValidationError(
            f"fit input {path}, row {bad[0] + 1}: x and density must be finite numbers"
        )
    return DensityEstimate(rows["x"], rows["density"])


def cmd_fit(cfg, args):
    seed, out_dir = run_settings(cfg, args)
    fit_cfg = _settings(cfg, "fit")
    family = (args.family or fit_cfg["family"]).strip().lower()
    input_path = args.input or fit_cfg["input"]
    if family not in ("mig", "gse"):
        raise ValidationError("fit family must be 'mig' or 'gse'")
    if not input_path or not Path(input_path).exists():
        raise ValidationError(f"fit input not found: {input_path!r}")

    if family == "mig":
        fit = estimation.fit_mig_mle(_read_samples(input_path))
    else:
        fit = estimation.fit_gse_nls(_read_density(input_path))

    out_dir.mkdir(parents=True, exist_ok=True)
    out = asdict(fit)
    out["_meta"] = _meta(cfg, seed, {"family": family})
    path = out_dir / f"fit_{family}.json"
    write_json(path, out)
    print(f"wrote {path} (converged={fit.converged}, objective={fit.objective:.6g})")
    if args.strict and not fit.converged:
        return EXIT_STRICT_FAIL
    return EXIT_OK


def cmd_ingest(cfg, args):
    seed, out_dir = run_settings(cfg, args)
    ing = _settings(cfg, "ingest")
    input_path = args.input or ing["input"]
    if not input_path or not Path(input_path).exists():
        raise ValidationError(f"ingest input not found: {input_path!r}")
    if ing["deflator"] and not Path(ing["deflator"]).exists():
        raise ValidationError(f"ingest deflator not found: {ing['deflator']!r}")
    min_growth_obs = _integer("ingest", "min_growth_obs", ing["min_growth_obs"], 0)
    december_only = _boolean("ingest", "fiscal_december_only", ing["fiscal_december_only"])
    if december_only and ing["fiscal_year_end_month_col"] is None:
        raise ValidationError("[ingest] fiscal_december_only needs fiscal_year_end_month_col")
    schema = {logical: ing[f"{logical}_col"] for logical in _SCHEMA_FIELDS}

    ids, panel = panel_mod.ingest_csv(input_path, schema)
    if len(panel) == 0:
        raise ValidationError(f"ingest input {input_path} has no data rows")
    if ing["deflator"]:
        panel = panel_mod.deflate(panel, panel_mod.DeflatorSeries.from_csv(ing["deflator"]))
    panel = panel_mod.normalize_by_year(panel)  # the unnormalized sizes go before filter_firms
    panel, growths, exclusions = panel_mod.filter_firms(panel, min_growth_obs, december_only)
    if len(panel) == 0:
        raise ValidationError("no observations survive the filters")

    out_dir.mkdir(parents=True, exist_ok=True)
    write_table_csv(
        out_dir / "growth.csv", ["firm_id", "year", "quarter", "g"],
        [ids[growths.firm_id], *panel_mod.year_quarter(growths.period), growths.growth],
        meta=_meta(cfg, seed),
    )
    stats = panel_mod.descriptive_stats(panel, growths)  # one dict per row, keyed by column
    write_table_csv(
        out_dir / "descriptive_stats.csv", list(stats[0]), list(zip(*map(dict.values, stats))),
        newline="\r\n",
    )
    write_json(
        out_dir / "exclusions.json",
        {"_meta": _meta(cfg, seed),
         "excluded_firms": dict(zip(ids[list(exclusions)].tolist(), exclusions.values())),
         "n_retained_firms": len(ids) - len(exclusions)},
    )
    print(
        f"wrote growth.csv ({len(growths)} growth rates), descriptive_stats.csv,"
        f" exclusions.json ({len(exclusions)} firms excluded) to {out_dir}"
    )
    return EXIT_OK


def write_result(cfg, result, out_dir):
    """Write an experiment's ``(header, columns)`` tables, with sidecars, and its result JSON."""
    name = result.experiment
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = _meta(cfg, result.seed, {"experiment": name})
    for table_name, (header, columns) in result.tables.items():
        write_table_csv(out_dir / f"{name}_{table_name}.csv", header, columns, meta=meta)
    write_json(
        out_dir / f"{name}_result.json",
        {
            "_meta": meta,
            "checks": [asdict(c) for c in result.checks],
            "scalars": result.scalars,
            "passed": result.passed,
        },
    )


def cmd_reproduce(cfg, args):
    seed, out_dir = run_settings(cfg, args)
    name = args.experiment
    overrides = _settings(cfg, "reproduce")
    if args.seed is None and "seed" not in _own_keys(cfg, "run"):
        seed = None  # keep the experiment's reference seed
    elif not 0 <= seed < 2**128:  # a Philox key
        where = "[run] seed =" if args.seed is None else "--seed"
        raise ValidationError(f"{where} {seed} is outside reproduce's range 0 .. 2**128 - 1")

    result = run_experiment(name, seed=seed, **overrides)
    write_result(cfg, result, out_dir)
    for line in result.summary_lines():
        print(line)
    verdict = "PASS" if result.passed else "FAIL"
    print(f"verdict: {verdict} (outputs in {out_dir})")
    if args.strict and not result.passed:
        return EXIT_STRICT_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser():
    # SUPPRESS keeps a flag parsed before the subcommand from being clobbered
    # by the subparser's defaults; main() pre-fills anything never set
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="INI config file")
    common.add_argument("--seed", type=int, help="master seed (overrides config)")
    common.add_argument("--out-dir", help="output directory (overrides config)")
    common.add_argument("--strict", action="store_true",
                        help="exit 3 when a tolerance check fails")

    parser = argparse.ArgumentParser(
        prog="firmgrowth",
        description="Simulate granular firm-growth models and run the analysis batteries.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", help="simulate a firm panel to CSV", parents=[common])
    p_analyze = sub.add_parser("analyze", help="binning / collapse / scaling battery",
                               parents=[common])
    p_analyze.add_argument("--panel", help="panel CSV (overrides config)")
    p_fit = sub.add_parser("fit", help="fit a mig or gse family", parents=[common])
    p_fit.add_argument("--family", choices=["mig", "gse"])
    p_fit.add_argument("--input", help="samples CSV (mig) or x,density CSV (gse)")
    p_ingest = sub.add_parser("ingest", help="run the quarterly panel pipeline",
                              parents=[common])
    p_ingest.add_argument("--input", help="quarterly CSV (overrides config)")
    p_repr = sub.add_parser("reproduce", help="run a named desk-scale experiment",
                            parents=[common])
    p_repr.add_argument("experiment", nargs="?", default="",
                        help=f"one of: {', '.join(EXPERIMENTS)}")
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "fit": cmd_fit,
    "ingest": cmd_ingest,
    "reproduce": cmd_reproduce,
}


def main(argv=None):
    parser = build_parser()
    # the attributes suppressed by the shared flag group or specific to other
    # subcommands start out unset
    args = parser.parse_args(argv, argparse.Namespace(
        config=None, seed=None, out_dir=None, strict=False,
        panel=None, family=None, input=None, experiment=None,
    ))
    try:
        cfg = load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
