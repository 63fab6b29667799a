import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import firmgrowth
from firmgrowth import analysis, cli, experiments
from firmgrowth.analysis import equal_count_bins
from firmgrowth.cli import CONFIG_KEYS, _read_samples, load_config, main, write_json

SRC = str(Path(firmgrowth.__file__).resolve().parents[1])


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def bin_calls(monkeypatch):
    """The number of keys binned by each equal_count_bins call."""
    calls = []

    def counted(keys, n_bins):
        calls.append(len(keys))
        return equal_count_bins(keys, n_bins)

    monkeypatch.setattr(analysis, "equal_count_bins", counted)
    return calls


def main_without_warnings(argv):
    """main(argv)'s exit code, asserting that it raised no warning (NumPy's print to stderr)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert not [str(w.message) for w in caught]
    return code


def write_config(tmp_path, body):
    path = tmp_path / "config.ini"
    path.write_text(body)
    return str(path)


SIM_CFG = """
[run]
seed = 777
out_dir = {out}

[model]
mu = 1.6
alpha = 1.2
sigma0 = 0.05
k_mode = pareto

[simulate]
n_firms = 400
n_periods = 6

[analyze]
n_bins = 5
panel = {out}/panel.csv
"""


def test_write_json_writes_non_finite_floats_as_null(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {
        "a": float("nan"),
        "b": [1.5, float("inf"), {"c": np.float64(-np.inf), "d": np.float64(2.0)}],
        "e": np.array([np.nan, 3.0]),
        "f": (np.float64(np.nan), 4),
    })

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    data = json.loads(path.read_text(), parse_constant=reject)
    assert data == {"a": None, "b": [1.5, None, {"c": None, "d": 2.0}],
                    "e": [None, 3.0], "f": [None, 4]}


# [model] lines and the pinned sha256 of simulate's outputs, per shock law; the
# laplace config floors some multipliers, so its clamp_count is not zero
PINNED_SIMULATE = {
    "gaussian": ("k_mode = pareto\nalpha = 1.2\nsigma0 = 0.1", {
        "panel.csv": "6192ccdef92ea7b8dd33bd82599bc536e9b10bd0bbdf2547b1f88f4eb01b20c5",
        "panel.meta.json": "3cbed2c7229f18de213ddae8b38db75bacde0c219c726bad52379b87a1ac3a73",
    }),
    "laplace": ("k_mode = fixed\nk = 3\nsigma0 = 0.9", {
        "panel.csv": "f428ec28a7cda467bb20bce23a56f045a570cfd20216ec4d6d1778b8002792ed",
        "panel.meta.json": "5d30c9ca4eb918eba3a36a9b07b7804558227e13eb0408a197a9b3944d203ed8",
    }),
    "student_t": ("k_mode = pareto\nalpha = 1.4\nsigma0 = 0.2\nstudent_dof = 4", {
        "panel.csv": "f74cdf6fbdb473a69bc97fbeaf0419bbac24648822e4c4dcac0653f9a8be17b9",
        "panel.meta.json": "9992448a07a4d7dd52ac4dd8669611fcb7702f00c44c8bcd2d637ecc0ab78c66",
    }),
}


class TestSimulate:
    def test_simulate_writes_panel_and_metadata(self, tmp_path):
        cfg = write_config(tmp_path, SIM_CFG.format(out=tmp_path / "out"))
        assert main(["--config", cfg, "simulate"]) == 0
        out = tmp_path / "out"
        assert (out / "panel.csv").exists()
        meta = json.loads((out / "panel.meta.json").read_text())
        assert meta["seed"] == 777
        assert "config_hash" in meta and "clamp_count" in meta

    def test_identical_runs_byte_identical(self, tmp_path):
        cfg_a = write_config(tmp_path, SIM_CFG.format(out=tmp_path / "a"))
        assert main(["--config", cfg_a, "simulate"]) == 0
        (tmp_path / "config.ini").unlink()
        cfg_b = write_config(tmp_path, SIM_CFG.format(out=tmp_path / "b"))
        assert main(["--config", cfg_b, "simulate"]) == 0
        assert sha(tmp_path / "a" / "panel.csv") == sha(tmp_path / "b" / "panel.csv")

    def test_flag_position_equivalent(self, tmp_path):
        # global flags are accepted before or after the subcommand
        cfg = write_config(tmp_path, SIM_CFG.format(out=tmp_path / "pre"))
        assert main(["--config", cfg, "--seed", "55", "simulate"]) == 0
        (tmp_path / "config.ini").unlink()
        cfg = write_config(tmp_path, SIM_CFG.format(out=tmp_path / "post"))
        assert main(["simulate", "--config", cfg, "--seed", "55"]) == 0
        assert sha(tmp_path / "pre" / "panel.csv") == sha(tmp_path / "post" / "panel.csv")
        meta = json.loads((tmp_path / "pre" / "panel.meta.json").read_text())
        assert meta["seed"] == 55  # flag beats the config's 777

    @pytest.mark.parametrize("law", sorted(PINNED_SIMULATE))
    def test_pinned_output_bytes(self, tmp_path, monkeypatch, law):
        # relative paths, so the config hash in panel.meta.json is fixed too
        monkeypatch.chdir(tmp_path)
        model_lines, pinned = PINNED_SIMULATE[law]
        cfg = write_config(
            tmp_path,
            f"[run]\nseed = 31\nout_dir = out\n[model]\nmu = 1.6\nshock_law = {law}\n"
            f"{model_lines}\n[simulate]\nn_firms = 300\nn_periods = 5\n",
        )
        assert main(["--config", cfg, "simulate"]) == 0
        assert {name: sha(tmp_path / "out" / name) for name in pinned} == pinned

    @pytest.mark.parametrize("model_lines, message", [
        ("shock_law = student_t\nstudent_dof = inf", "student_dof > 2, got inf"),
        ("sigma0 = inf", "sigma0 must be non-negative and finite, got inf"),
        ("s0 = inf", "s0 must be positive and finite, got inf"),
        ("s0 = 1e308", "firm 0: a size is not finite"),  # finite, but the sizes overflow
    ])
    def test_non_finite_sizes_are_validation_errors(self, tmp_path, capsys, model_lines, message):
        body = SIM_CFG.format(out=tmp_path / "out").replace("sigma0 = 0.05", model_lines)
        assert main_without_warnings(["--config", write_config(tmp_path, body), "simulate"]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "panel.csv").exists()

    def test_zero_firms_is_validation_error(self, tmp_path):
        body = SIM_CFG.format(out=tmp_path / "out").replace("n_firms = 400", "n_firms = 0")
        cfg = write_config(tmp_path, body)
        assert main(["--config", cfg, "simulate"]) == 1

    def test_model_without_mu_names_it(self, tmp_path, capsys):
        body = SIM_CFG.format(out=tmp_path / "out").replace("mu = 1.6\n", "")
        assert main(["--config", write_config(tmp_path, body), "simulate"]) == 1
        assert "error: [model] needs mu\n" == capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, line", [
        ("model", "k_count = 4"),
        ("simulate", "n_firm = 50"),
    ])
    def test_unknown_key_is_validation_error(self, tmp_path, capsys, section, line):
        # a misspelt key would otherwise fall back to its default without a word
        body = SIM_CFG.format(out=tmp_path / "out").replace(
            f"[{section}]\n", f"[{section}]\n{line}\n"
        )
        cfg = write_config(tmp_path, body.replace("k_mode = pareto", "k_mode = fixed"))
        assert main(["--config", cfg, "simulate"]) == 1
        assert f"unknown [{section}] key(s) {line.split()[0]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        cfg = write_config(tmp_path, SIM_CFG.format(out=tmp_path / "out"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])
        )}
        run = [sys.executable, "-m", "firmgrowth", "--config", cfg]
        done = subprocess.run(run + ["simulate"], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert len((tmp_path / "out" / "panel.csv").read_text().splitlines()) == 1 + 400 * 6
        # an argparse error exits 2
        done = subprocess.run(run + ["no_such_command"], env=env, capture_output=True, text=True)
        assert done.returncode == 2
        assert "invalid choice" in done.stderr


class TestAnalyze:
    def test_analysis_bundle(self, tmp_path):
        cfg = write_config(tmp_path, SIM_CFG.format(out=tmp_path / "out"))
        assert main(["--config", cfg, "simulate"]) == 0
        assert main(["--config", cfg, "analyze"]) == 0
        out = tmp_path / "out"
        header = (out / "binned_stats.csv").read_text().splitlines()[0]
        assert header == "bin,mean_size,n,q1,q2,q3,q4"
        assert (out / "collapse.csv").exists()
        density_header = (out / "rescaled_vol_density.csv").read_text().splitlines()[0]
        assert density_header == "x,density"
        fits = json.loads((out / "scaling_fits.json").read_text())
        assert set(fits["fits"]["1"]) == {"slope", "intercept", "se", "r2"}

    def test_duplicate_rows_are_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SIM_CFG.format(out=tmp_path / "out"))
        assert main(["--config", cfg, "simulate"]) == 0
        panel = tmp_path / "out" / "panel.csv"
        lines = panel.read_text().splitlines()
        panel.write_text("\n".join(lines + [lines[7]]) + "\n")
        assert main(["--config", cfg, "analyze"]) == 1
        firm, period, _ = lines[7].split(",")
        assert (
            f"row {len(lines)}: duplicate rows for firm_id {firm}, period {period}"
            " (first seen at row 7)"
        ) in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["nan", "inf", "0.0", "-2.5"])
    def test_bad_size_is_validation_error_citing_row(self, tmp_path, capsys, size):
        cfg = write_config(tmp_path, SIM_CFG.format(out=tmp_path / "out"))
        assert main(["--config", cfg, "simulate"]) == 0
        panel = tmp_path / "out" / "panel.csv"
        lines = panel.read_text().splitlines()
        firm, period, _ = lines[10].split(",")
        lines[10] = f"{firm},{period},{size}"
        panel.write_text("\n".join(lines) + "\n")
        assert main(["--config", cfg, "analyze"]) == 1
        assert "row 10: size" in capsys.readouterr().err

    def test_header_only_panel_exits_1_without_a_warning(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        panel.write_text("firm_id,period,size\n")
        out = tmp_path / "out"
        assert main_without_warnings(["analyze", "--panel", str(panel), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: panel CSV {panel} has no data rows\n"
        assert not out.exists()

    @pytest.mark.parametrize("row, message", [
        ("0,1,abc", "could not convert string 'abc' to float64 in column 3"),
        ("0,x,2.0", "could not convert string 'x' to int64 in column 2"),
        ("0,1", "has 2 column(s), needs column 3"),
    ], ids=["size", "period", "short_row"])
    def test_unparsable_cell_exits_1_citing_its_data_row(self, tmp_path, capsys, row, message):
        panel = tmp_path / "panel.csv"
        panel.write_text(f"firm_id,period,size\n0,0,1.0\n\n{row}\n")  # blank lines are not rows
        out = tmp_path / "out"
        assert main(["analyze", "--panel", str(panel), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: panel CSV {panel}, row 2: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("row, message", [
        ("#1,1,2.0", "could not convert string '#1' to int64 in column 1"),
        ("1,1,2.0 # note", "could not convert string '2.0 # note' to float64 in column 3"),
    ], ids=["leading", "trailing"])
    def test_hash_is_data_not_a_comment(self, tmp_path, capsys, row, message):
        panel = tmp_path / "panel.csv"
        panel.write_text(f"firm_id,period,size\n1,0,1.0\n{row}\n1,2,3.0\n")
        out = tmp_path / "out"
        assert main(["analyze", "--panel", str(panel), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: panel CSV {panel}, row 2: {message}\n"
        assert not out.exists()

    def test_missing_panel_is_error(self, tmp_path):
        cfg = write_config(tmp_path, SIM_CFG.format(out=tmp_path / "out"))
        assert main(["--config", cfg, "analyze"]) == 1

    def test_pinned_output_bytes(self, tmp_path, monkeypatch):
        # relative paths, so the config hash in scaling_fits.json is fixed too
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, SIM_CFG.format(out="out"))
        assert main(["--config", cfg, "simulate"]) == 0
        assert main(["--config", cfg, "analyze"]) == 0
        out = tmp_path / "out"
        assert {name: sha(out / name) for name in PINNED_ANALYZE} == PINNED_ANALYZE

    def test_bins_sizes_once(self, tmp_path, bin_calls):
        cfg = write_config(tmp_path, SIM_CFG.format(out=tmp_path / "out"))
        assert main(["--config", cfg, "simulate"]) == 0
        assert main(["--config", cfg, "analyze"]) == 0
        assert bin_calls == [400]

    def test_bin_of_constant_firms_writes_nothing(self, tmp_path, capsys):
        # the 60 smallest of 200 firms never change size, so with 5 bins the
        # whole first bin has volatility 0 and cannot be rescaled by its mean
        rng = np.random.default_rng(4)
        rows = ["firm_id,period,size"]
        for firm in range(200):
            if firm < 60:
                sizes = np.full(6, 1.0 + 0.01 * firm)
            else:
                sizes = 10.0 * np.cumprod(1.0 + 0.05 * rng.standard_normal(6))
            rows += [f"{firm},{t},{s!r}" for t, s in enumerate(sizes.tolist())]
        (tmp_path / "panel.csv").write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, f"[run]\nout_dir = {out}\n[analyze]\npanel = {tmp_path / 'panel.csv'}\n"
            "n_bins = 5\n",
        )
        assert main(["--config", cfg, "analyze"]) == 1
        assert "bin 0" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("q_list, message", [
        ("1,-1,0", "moment -1 is below 1"),
        ("1,1", "moment 1 is given twice"),
    ])
    def test_bad_q_list_exits_1_and_writes_nothing(self, tmp_path, capsys, q_list, message):
        cfg = write_config(tmp_path, SIM_CFG.format(out=tmp_path / "sim") + f"q_list = {q_list}\n")
        assert main(["--config", cfg, "simulate"]) == 0
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out-dir", str(out), "analyze"]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


PINNED_ANALYZE = {
    "binned_stats.csv": "da3c28ce69dd5064b4b3ec3e4c94f5c28486d2cf276d10d2cc736ae6d27f4bae",
    "collapse.csv": "b65f6a82baea0df7c161be015da17deaa45d2e9868e7d9366ece40fc228c99ba",
    "rescaled_vol_density.csv": "26af0d898eb4bc703e5d1c909fe35689fd61dd310ead3088f61130825744c372",
    "exponent_profile.csv": "787b2d5c57112f8f17b110ba6fd6f2ba65a24946200944bf36dcc8a8db6e2653",
    "scaling_fits.json": "52fe6f28e58ee88929d4df0f0967289a48d841ebcfdad0e552dc1f724b694178",
}


class TestFit:
    def test_mig_fit_json(self, tmp_path):
        from firmgrowth.distributions import MigParams, mig_sample

        rng = np.random.default_rng(0)
        samples = mig_sample(MigParams(4.0, 4.0, 0.3), rng.random(5000))
        data = tmp_path / "samples.csv"
        data.write_text("value\n" + "\n".join(repr(float(x)) for x in samples) + "\n")
        cfg = write_config(tmp_path, f"[run]\nout_dir = {tmp_path / 'fit'}\n")
        assert main(["--config", cfg, "fit", "--family", "mig", "--input", str(data)]) == 0
        fit = json.loads((tmp_path / "fit" / "fit_mig.json").read_text())
        assert fit["converged"] is True
        assert set(fit["params"]) == {"scale", "shape", "location"}
        assert set(fit) >= {"params", "se", "objective", "n_obs", "converged"}

    def test_gse_fit_self_consistent(self, tmp_path):
        from firmgrowth.distributions import GseParams, gse_pdf

        grid = np.linspace(-8.5, 8.5, 1001)
        vals = gse_pdf(grid, GseParams(0.5, 0.9, 0.0, 1.8, 0.4))
        data = tmp_path / "density.csv"
        data.write_text(
            "x,density\n"
            + "\n".join(f"{float(x)!r},{float(v)!r}" for x, v in zip(grid, vals))
            + "\n"
        )
        cfg = write_config(tmp_path, f"[run]\nout_dir = {tmp_path / 'fit'}\n")
        assert main(["--config", cfg, "--strict", "fit", "--family", "gse",
                     "--input", str(data)]) == 0
        fit = json.loads((tmp_path / "fit" / "fit_gse.json").read_text())
        assert fit["objective"] < 1e-10

    @pytest.mark.parametrize("header", ["", "value,weight\n"])
    def test_read_samples_with_and_without_header(self, tmp_path, header):
        samples = np.random.default_rng(3).lognormal(0.0, 2.0, 500)
        data = tmp_path / "samples.csv"
        data.write_text(header + "".join(f"{x!r},1\n" for x in samples.tolist()))
        assert _read_samples(data).tobytes() == samples.tobytes()
        data.write_text(header + "0.25,1\n")
        assert _read_samples(data).tolist() == [0.25]

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_mig_non_finite_sample_exits_1_and_writes_nothing(self, tmp_path, capsys, bad):
        samples = np.exp(np.random.default_rng(0).normal(0.0, 0.5, 500)).tolist()
        data = tmp_path / "samples.csv"
        data.write_text("\n".join([*map(repr, samples), bad]) + "\n")
        out = tmp_path / "fit"
        argv = ["fit", "--family", "mig", "--input", str(data), "--out-dir", str(out)]
        assert main(argv) == 1
        assert "samples must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("body", ["x\n1.5\n2.5\nabc\n", "1.5\n\n2.5\nabc\n"],
                             ids=["header", "blank_line"])
    def test_mig_unparsable_sample_exits_1_citing_its_data_row(self, tmp_path, capsys, body):
        data = tmp_path / "samples.csv"
        data.write_text(body)
        out = tmp_path / "fit"
        argv = ["fit", "--family", "mig", "--input", str(data), "--out-dir", str(out)]
        assert main(argv) == 1
        message = "could not convert string 'abc' to float64 in column 1"
        assert capsys.readouterr().err == f"error: fit input {data}, row 3: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("sample", ["#2.5", "2.5 # note"])
    def test_mig_hash_is_data_not_a_comment(self, tmp_path, capsys, sample):
        data = tmp_path / "samples.csv"
        data.write_text(f"value\n1.5\n{sample}\n3.5\n")
        out = tmp_path / "fit"
        argv = ["fit", "--family", "mig", "--input", str(data), "--out-dir", str(out)]
        assert main(argv) == 1
        message = f"could not convert string {sample!r} to float64 in column 1"
        assert capsys.readouterr().err == f"error: fit input {data}, row 2: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("body", ["", "value\n", "value\n\n"])
    def test_mig_input_without_data_rows_exits_1_without_a_warning(self, tmp_path, capsys, body):
        data = tmp_path / "samples.csv"
        data.write_text(body)
        out = tmp_path / "fit"
        argv = ["fit", "--family", "mig", "--input", str(data), "--out-dir", str(out)]
        assert main_without_warnings(argv) == 1
        assert capsys.readouterr().err == f"error: fit input {data} has no data rows\n"
        assert not out.exists()

    @pytest.mark.parametrize("body, message", [
        ("", "fit input {data} lacks column(s) x, density"),
        ("x,density\n", "fit input {data} has no data rows"),
        ("x,density\n0.5,0.1\n", "grid must cover [-8.0, 8.0]"),
        ("x,density\n-9,0.1\nabc,0.2\n9,0.1\n",
         "fit input {data}, row 2: could not convert string 'abc' to float64 in column 1"),
        ("density,x\n0.1,-9\n\n0.1,0\nabc,3\n0.1,9\n",
         "fit input {data}, row 3: could not convert string 'abc' to float64 in column 1"),
        ("x,density\n-9,0.1\n0,nan\n9,0.1\n",
         "fit input {data}, row 2: x and density must be finite numbers"),
        ("density,x\n0.1,-9\n0.2\n0.1,9\n",
         "fit input {data}, row 2: has 1 column(s), needs column 2"),
    ], ids=["empty", "header_only", "one_row", "bad_x", "bad_density_blank_line", "nan_density",
            "short_row"])
    def test_bad_gse_input_exits_1_naming_its_cause(self, tmp_path, capsys, body, message):
        data = tmp_path / "density.csv"
        data.write_text(body)
        out = tmp_path / "fit"
        argv = ["fit", "--family", "gse", "--input", str(data), "--out-dir", str(out)]
        assert main_without_warnings(argv) == 1
        assert capsys.readouterr().err == f"error: {message.format(data=data)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("row", ["#0,0.2", "0,0.2 # note"])
    def test_gse_hash_is_data_not_a_comment(self, tmp_path, capsys, row):
        data = tmp_path / "density.csv"
        data.write_text(f"x,density\n-9,0.1\n{row}\n9,0.1\n")
        out = tmp_path / "fit"
        argv = ["fit", "--family", "gse", "--input", str(data), "--out-dir", str(out)]
        assert main(argv) == 1
        cell, column = ("#0", 1) if row.startswith("#") else ("0.2 # note", 2)
        message = (
            f"fit input {data}, row 2: "
            f"could not convert string {cell!r} to float64 in column {column}"
        )
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_bad_family_or_input(self, tmp_path):
        cfg = write_config(tmp_path, "[run]\n")
        assert main(["--config", cfg, "fit", "--input", "nope.csv"]) == 1  # family unset
        assert main(["--config", cfg, "fit", "--family", "mig", "--input", "nope.csv"]) == 1


PINNED_QUARTERS = [
    # gvkey, first (year, quarter), sizes (None: a missing quarter), fyr ("": unknown)
    ("001004", (2000, 1), [812.5, 840.25, 861.0, 902.75, 951.5, 930.0, 977.25, 1004.5, 1050.0,
                           1101.25, 1093.5, 1150.75], "12"),
    ("001010", (2000, 2), [55.1, 57.3, 60.8, 59.9, 62.4, None, 64.7, 66.0, 71.2, 69.8], "12"),
    ("001045", (2000, 1), [3021.0, 3105.5, 3240.25, 3188.0, 3302.5, 3410.0, 3395.75, 3522.0], "6"),
    ("001078", (2000, 4), [14.2, 15.05, 13.9, 16.4, 17.25, 18.1, 17.7], "12"),
    ("001166", (2001, 1), [240.0, 251.5, 262.25, 259.0, 270.5], "12"),
    ("001209", (2000, 1), [99.0, 101.5, 104.25, 108.0, 111.5, 115.0], ""),
]


def write_pinned_ingest(tmp_path):
    """A small Compustat-shaped export, its deflator and an ingest config; returns the config."""
    rows = ["gvkey,fyearq,fqtr,atq,fyr"]
    for gvkey, (year, quarter), sizes, fyr in PINNED_QUARTERS:
        t = 4 * year + quarter - 1
        for i, size in enumerate(sizes):
            if size is not None:
                rows.append(f"{gvkey},{(t + i) // 4},{(t + i) % 4 + 1},{size},{fyr}")
    # rows out of firm and period order
    rows[1:] = rows[1:][::3] + rows[1:][1::3] + rows[1:][2::3]
    (tmp_path / "quarters.csv").write_text("\n".join(rows) + "\n")
    deflator = ["year,quarter,index"]
    for t in range(4 * 2000, 4 * 2003):
        deflator.append(f"{t // 4},{t % 4 + 1},{1.0 + 0.0125 * (t - 8000)}")
    (tmp_path / "deflator.csv").write_text("\n".join(deflator) + "\n")
    return write_config(
        tmp_path,
        f"[run]\nout_dir = {tmp_path / 'out'}\n\n[ingest]\ninput = {tmp_path / 'quarters.csv'}\n"
        f"deflator = {tmp_path / 'deflator.csv'}\nfirm_id_col = gvkey\nyear_col = fyearq\n"
        "quarter_col = fqtr\nsize_col = atq\nfiscal_year_end_month_col = fyr\n"
        "fiscal_december_only = true\nmin_growth_obs = 3\n",
    )


class TestIngest:
    def test_pipeline_outputs(self, tmp_path):
        rows = ["firm_id,year,quarter,size"]
        rng = np.random.default_rng(1)
        for firm in ("a", "b", "c"):
            for i in range(10):
                rows.append(f"{firm},{2000 + i // 4},{i % 4 + 1},{rng.random() + 0.5:.6f}")
        data = tmp_path / "quarters.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg = write_config(
            tmp_path,
            f"[run]\nout_dir = {tmp_path / 'ing'}\n\n[ingest]\ninput = {data}\nmin_growth_obs = 2\n",
        )
        assert main(["--config", cfg, "ingest"]) == 0
        out = tmp_path / "ing"
        growth_lines = (out / "growth.csv").read_text().splitlines()
        assert growth_lines[0] == "firm_id,year,quarter,g"
        assert len(growth_lines) == 1 + 3 * 6  # 10 quarters -> 6 growths per firm
        stats = (out / "descriptive_stats.csv").read_text().splitlines()
        assert stats[0] == "variable,n,mean,sd,min,max"
        exclusions = json.loads((out / "exclusions.json").read_text())
        assert exclusions["n_retained_firms"] == 3

    def test_pinned_output_bytes(self, tmp_path):
        # string ids under renamed columns, a gap, a non-December and an
        # unknown fiscal year end under fiscal_december_only, and a deflator
        assert main(["--config", str(write_pinned_ingest(tmp_path)), "ingest"]) == 0
        out = tmp_path / "out"
        assert sha(out / "growth.csv") == (
            "7df0f7e5b2961e362c10af6b49d47ba3cb6c9665282e24d319ba99cd798bb5a3"
        )
        assert sha(out / "descriptive_stats.csv") == (
            "c7af374aec8771c99bac421d37b5ee097dd616b9b5ae9c9f09b5c9353dae60dc"
        )
        exclusions = json.loads((out / "exclusions.json").read_text())
        del exclusions["_meta"]
        assert exclusions == {
            "excluded_firms": {
                "001045": "fiscal_year_not_december",
                "001166": "too_few_growth_rates",
                "001209": "fiscal_year_not_december",
            },
            "n_retained_firms": 3,
        }

    def test_missing_deflator_is_validation_error(self, tmp_path, capsys):
        cfg = write_pinned_ingest(tmp_path)
        (tmp_path / "deflator.csv").unlink()
        assert main(["--config", cfg, "ingest"]) == 1
        assert f"{tmp_path / 'deflator.csv'}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_short_deflator_row_exits_1_naming_its_file_row_and_column(self, tmp_path, capsys):
        cfg = write_pinned_ingest(tmp_path)
        deflator = tmp_path / "deflator.csv"
        deflator.write_text("year,quarter,index\n2000,1,1.0\n2000,2\n")
        assert main(["--config", cfg, "ingest"]) == 1
        message = f"deflator {deflator}, row 2: has 2 column(s), needs column 3"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_december_only_without_a_month_column_is_validation_error(self, tmp_path, capsys,
                                                                       monkeypatch):
        # without months every firm would be excluded as not December
        calls = []
        monkeypatch.setattr("firmgrowth.panel.ingest_csv", lambda *args: calls.append(args))
        data = tmp_path / "quarters.csv"
        data.write_text("firm_id,year,quarter,size\na,2000,1,1.0\n")
        out = tmp_path / "ing"
        cfg = write_config(
            tmp_path,
            f"[run]\nout_dir = {out}\n[ingest]\ninput = {data}\nfiscal_december_only = true\n",
        )
        assert main(["--config", cfg, "ingest"]) == 1
        err = capsys.readouterr().err
        assert "fiscal_december_only" in err and "fiscal_year_end_month_col" in err
        assert not out.exists() and calls == []

    def test_bad_csv_is_validation_error(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("firm_id,year,quarter,size\nf1,2000,1,abc\n")
        cfg = write_config(tmp_path, f"[run]\nout_dir = {tmp_path}\n[ingest]\ninput = {data}\n")
        assert main(["--config", cfg, "ingest"]) == 1

    @pytest.mark.parametrize("quoted, firm", [
        ('"Acme, Inc."', "Acme, Inc."),
        ('"say ""hi"""', 'say "hi"'),
        ('"two\nlines"', "two\nlines"),
    ], ids=["comma", "double_quote", "line_break"])
    def test_firm_id_growth_csv_cannot_hold_is_validation_error(self, tmp_path, capsys, quoted,
                                                                  firm):
        # growth.csv writes ids unquoted, so such an id would shift its row's fields
        rows = ["firm_id,year,quarter,size"]
        for name in ("b", quoted):
            rows += [f"{name},{2000 + i // 4},{i % 4 + 1},{1.0 + i}" for i in range(8)]
        data = tmp_path / "quarters.csv"
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "ing"
        cfg = write_config(tmp_path, f"[run]\nout_dir = {out}\n[ingest]\ninput = {data}\n")
        assert main(["--config", cfg, "ingest"]) == 1
        assert f"error: row 9: firm id {firm!r} holds a comma" in capsys.readouterr().err
        assert not out.exists()

    def test_firm_id_ending_in_nul_is_validation_error(self, tmp_path, capsys):
        # NumPy's str arrays drop a trailing NUL, so "A\0" would join A's series
        rows = ["firm_id,year,quarter,size"]
        for firm, years in (("A", range(2000, 2003)), ("A\x00", range(2003, 2006))):
            rows += [f"{firm},{year},{q},{year - 1990 + q}" for year in years for q in (1, 2, 3, 4)]
        data = tmp_path / "quarters.csv"
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "ing"
        cfg = write_config(tmp_path, f"[run]\nout_dir = {out}\n[ingest]\ninput = {data}\n")
        assert main(["--config", cfg, "ingest"]) == 1
        assert ("error: row 13: firm id 'A\\x00' holds a comma, a double quote, a line break"
                " or a NUL") in capsys.readouterr().err
        assert not out.exists()

    def test_row_ending_before_firm_id_is_validation_error(self, tmp_path, capsys):
        data = tmp_path / "short.csv"
        data.write_text("year,quarter,size,firm_id\n2000,1,1.0,a\n2000,2,1.5\n")
        out = tmp_path / "ing"
        cfg = write_config(tmp_path, f"[run]\nout_dir = {out}\n[ingest]\ninput = {data}\n")
        assert main(["--config", cfg, "ingest"]) == 1
        assert "error: row 2: empty firm id" in capsys.readouterr().err
        assert not out.exists()

    def test_header_only_input_is_validation_error(self, tmp_path, capsys):
        data = tmp_path / "header.csv"
        data.write_text("firm_id,year,quarter,size\n\n")
        out = tmp_path / "ing"
        cfg = write_config(tmp_path, f"[run]\nout_dir = {out}\n[ingest]\ninput = {data}\n")
        assert main(["--config", cfg, "ingest"]) == 1
        assert f"error: ingest input {data} has no data rows" in capsys.readouterr().err
        assert not out.exists()


class TestReproduce:
    def test_unknown_experiment_lists_catalog(self, tmp_path, capsys):
        cfg = write_config(tmp_path, f"[run]\nout_dir = {tmp_path}\n")
        assert main(["--config", cfg, "reproduce", "fig99"]) == 1
        err = capsys.readouterr().err
        assert "prop2_scaling" in err and "laplace_sum" in err

    def test_unknown_override_lists_accepted_keys(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, f"[run]\nout_dir = {tmp_path}\n\n[reproduce]\nbogus = 3\n"
        )
        assert main(["--config", cfg, "reproduce", "prop2_scaling"]) == 1
        err = capsys.readouterr().err
        assert "bogus" in err and "n_per_k" in err

    @pytest.mark.parametrize("experiment, key", [("prop2_scaling", "n_per_k"), ("fig3", "n_per_class")])
    def test_zero_sample_count_is_validation_error(self, tmp_path, capsys, experiment, key):
        cfg = write_config(tmp_path, f"[run]\nout_dir = {tmp_path}\n\n[reproduce]\n{key} = 0\n")
        assert main(["--config", cfg, "reproduce", experiment]) == 1
        assert "n_samples must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [-3, 1])
    def test_fig5_needs_two_samples(self, tmp_path, capsys, n):
        out = tmp_path / "rep"
        cfg = write_config(tmp_path, f"[run]\nout_dir = {out}\n\n[reproduce]\nn_samples = {n}\n")
        assert main(["--config", cfg, "reproduce", "fig5"]) == 1
        assert f"n_samples must be >= 2, got {n}" in capsys.readouterr().err
        assert not out.exists()

    def test_prop2_scaling_needs_two_firms_per_k(self, tmp_path, capsys):
        out = tmp_path / "rep"
        cfg = write_config(tmp_path, f"[run]\nout_dir = {out}\n\n[reproduce]\nn_per_k = 1\n")
        assert main_without_warnings(["--config", cfg, "reproduce", "prop2_scaling"]) == 1
        assert "n_per_k must be >= 2, got 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("body, flag, message", [
        ("seed = -1\n", [], "[run] seed = -1 is outside"),
        (f"seed = {2**128}\n", [], f"[run] seed = {2**128} is outside"),
        ("", ["--seed", "-1"], "--seed -1 is outside"),
    ])
    def test_seed_outside_philox_keys_exits_1_naming_it(self, tmp_path, capsys, body, flag,
                                                        message):
        out = tmp_path / "rep"
        cfg = write_config(tmp_path, f"[run]\nout_dir = {out}\n{body}")
        assert main(["--config", cfg, *flag, "reproduce", "prop2_scaling"]) == 1
        assert f"error: {message} reproduce's range 0 .. 2**128 - 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, line, message", [
        ("fig3", "n_per_class = 5e3", "fig3 n_per_class takes ints, got '5e3'"),
        ("prop2_scaling", "n_per_k = 2e2", "prop2_scaling n_per_k takes ints, got '2e2'"),
        ("laplace_sum", "k_values = 4", "laplace_sum k_values cannot be set from [reproduce]"),
        ("fig5", "mig = 1", "fig5 mig cannot be set from [reproduce]"),
    ])
    def test_override_of_the_wrong_type_is_validation_error(self, tmp_path, capsys, experiment,
                                                             line, message):
        out = tmp_path / "rep"
        cfg = write_config(tmp_path, f"[run]\nout_dir = {out}\n\n[reproduce]\n{line}\n")
        assert main(["--config", cfg, "reproduce", experiment]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_default_section_keys_are_not_overrides(self, tmp_path):
        out = tmp_path / "rep"
        cfg = write_config(
            tmp_path,
            f"[DEFAULT]\nbase = {tmp_path}\n\n[run]\nout_dir = {out}\n\n"
            "[reproduce]\nn_sums = 100000\n",
        )
        assert main(["--config", cfg, "reproduce", "laplace_sum"]) == 0
        assert (out / "laplace_sum_result.json").exists()

    def test_override_takes_the_type_of_the_default(self, monkeypatch):
        # a config string becomes the default's type: "2" for a float is 2.0
        seen = {}

        def runner(seed=1, count=10, scale=0.5):
            seen.update(count=count, scale=scale)

        monkeypatch.setitem(experiments._RUNNERS, "probe", runner)
        experiments.run_experiment("probe", count="3", scale="2")
        assert seen == {"count": 3, "scale": 2.0}
        assert type(seen["count"]) is int and type(seen["scale"]) is float

    def test_fig4_bins_population_once(self, tmp_path, bin_calls):
        # one binning feeds the moments table and the exponent profile; the
        # second call bins the diversified firms only
        cfg = write_config(
            tmp_path, f"[run]\nout_dir = {tmp_path}\n\n[reproduce]\nn_firms = 1000000\n"
        )
        assert main(["--config", cfg, "reproduce", "fig4"]) == 0
        assert len(bin_calls) == 2 and bin_calls[0] == 1_000_000 > bin_calls[1]

    def test_reproduce_runs_and_writes_bundle(self, tmp_path):
        cfg = write_config(
            tmp_path,
            f"[run]\nout_dir = {tmp_path / 'rep'}\n\n[reproduce]\nn_sums = 100000\n",
        )
        code = main(["--config", cfg, "reproduce", "laplace_sum"])
        assert code == 0
        out = tmp_path / "rep"
        result = json.loads((out / "laplace_sum_result.json").read_text())
        assert {c["name"] for c in result["checks"]} == {
            "k2_max_bin_z_score", "k4_max_bin_z_score", "k8_max_bin_z_score"
        }
        assert (out / "laplace_sum_density_vs_mc.csv").exists()
        meta = json.loads((out / "laplace_sum_density_vs_mc.csv.meta.json").read_text())
        assert meta["experiment"] == "laplace_sum"

    def test_reproduce_byte_identical_reruns(self, tmp_path):
        for sub in ("r1", "r2"):
            cfg = write_config(
                tmp_path,
                f"[run]\nseed = 4242\nout_dir = {tmp_path / sub}\n\n[reproduce]\nn_sums = 200000\n",
            )
            assert main(["--config", cfg, "reproduce", "laplace_sum"]) == 0
            (tmp_path / "config.ini").unlink()
        assert sha(tmp_path / "r1" / "laplace_sum_density_vs_mc.csv") == sha(
            tmp_path / "r2" / "laplace_sum_density_vs_mc.csv"
        )

    def test_strict_fails_on_scaled_down_noise(self, tmp_path):
        # at a tiny sample size with an adversarial seed some bin exceeds 3 se;
        # --strict must then exit 3; find such a seed deterministically
        from firmgrowth.experiments import run_laplace_sum

        bad_seed = None
        for seed in range(50):
            if not run_laplace_sum(seed=seed, n_sums=20_000, k_values=(2,)).passed:
                bad_seed = seed
                break
        assert bad_seed is not None
        cfg = write_config(
            tmp_path,
            f"[run]\nseed = {bad_seed}\nout_dir = {tmp_path / 'strict'}\n\n"
            f"[reproduce]\nn_sums = 20000\n",
        )
        assert main(["--config", cfg, "--strict", "reproduce", "laplace_sum"]) == 3


# a config with every section the table knows; the files it names need not
# exist, since the file is checked before any command reads them
ALL_SECTIONS_CFG = """
[run]
out_dir = {out}

[model]
mu = 1.6
alpha = 1.2

[simulate]
n_firms = 50
n_periods = 4

[analyze]
panel = {out}/panel.csv

[fit]
family = mig
input = samples.csv

[ingest]
input = quarters.csv
"""


class TestConfig:
    @pytest.mark.parametrize("section, line, command", [
        ("run", "out_dri = elsewhere", "simulate"),
        ("model", "sigma = 0.2", "simulate"),
        ("simulate", "n_period = 3", "simulate"),
        ("analyze", "n_bin = 5", "analyze"),
        ("fit", "famliy = gse", "fit"),
        ("ingest", "fiscal_december_onyl = true", "ingest"),
        # keys that no longer exist
        ("ingest", "normalize = false", "ingest"),
        ("fit", "init_scale = 1", "fit"),
    ])
    def test_unknown_key_exits_1_naming_it(self, tmp_path, capsys, section, line, command):
        out = tmp_path / "out"
        body = ALL_SECTIONS_CFG.format(out=out).replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        assert main(["--config", write_config(tmp_path, body), command]) == 1
        err = capsys.readouterr().err
        assert f"unknown [{section}] key(s) {line.split()[0]}; accepted: " in err
        assert not out.exists()

    @pytest.mark.parametrize("body, where", [
        ("seed = 3\n[run]\n", "file: 'bad.ini', line: 1"),
        ("[run]\nseed = 3\n[run]\nseed = 4\n", "'bad.ini' [line  3]: section 'run'"),
        ("[run]\nseed = 3\nseed = 4\n", "'bad.ini' [line  3]: option 'seed'"),
    ], ids=["no_section_header", "section_twice", "key_twice"])
    def test_malformed_file_exits_1_citing_its_line(self, tmp_path, capsys, monkeypatch, body,
                                                     where):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.ini").write_text(body)
        assert main(["--config", "bad.ini", "simulate"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.ini"]

    def test_unknown_section_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        body = ALL_SECTIONS_CFG.format(out=out) + "\n[ingets]\nmin_growth_obs = 3\n"
        assert main(["--config", write_config(tmp_path, body), "simulate"]) == 1
        assert "unknown section [ingets]; accepted: run, model" in capsys.readouterr().err
        assert not out.exists()

    def test_default_key_is_no_simulate_setting(self, tmp_path):
        out = tmp_path / "out"
        body = (f"[DEFAULT]\nn_firms = 5\n\n[run]\nout_dir = {out}\n\n"
                "[model]\nmu = 1.5\nalpha = 1.2\n\n[simulate]\nn_periods = 3\n")
        assert main(["--config", write_config(tmp_path, body), "simulate"]) == 0
        assert len((out / "panel.csv").read_text().splitlines()) == 1 + 1000 * 3

    def test_section_key_wins_over_default_key(self, tmp_path):
        out = tmp_path / "rep"
        body = (f"[DEFAULT]\nn_per_k = 5\n\n[run]\nout_dir = {out}\n\n"
                "[reproduce]\nn_per_k = 200\n")
        assert main(["--config", write_config(tmp_path, body), "reproduce", "prop2_scaling"]) == 0
        result = json.loads((out / "prop2_scaling_result.json").read_text())
        assert result["scalars"]["n_per_k"] == 200

    def test_default_seed_keeps_the_reference_seed(self, tmp_path):
        seeds = []
        for default in ("", "[DEFAULT]\nseed = 5\n\n"):
            out = tmp_path / f"rep{len(seeds)}"
            body = f"{default}[run]\nout_dir = {out}\n\n[reproduce]\nn_per_k = 200\n"
            cfg = write_config(tmp_path, body)
            assert main(["--config", cfg, "reproduce", "prop2_scaling"]) == 0
            result = json.loads((out / "prop2_scaling_result.json").read_text())
            seeds.append(result["_meta"]["seed"])
        assert seeds[0] == seeds[1] != 5

    def test_misspelt_key_shadowing_a_default_key_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        body = (f"[DEFAULT]\nn_firm = 3\n\n[run]\nout_dir = {out}\n\n"
                "[model]\nmu = 1.5\nalpha = 1.2\n\n[simulate]\nn_firm = 5\n")
        assert main(["--config", write_config(tmp_path, body), "simulate"]) == 1
        assert "unknown [simulate] key(s) n_firm; accepted: " in capsys.readouterr().err
        assert not out.exists()

    def test_default_keys_load(self, tmp_path):
        body = f"[DEFAULT]\nroot = {tmp_path}\n" + SIM_CFG.format(out="%(root)s/out")
        assert main(["--config", write_config(tmp_path, body), "simulate"]) == 0
        assert (tmp_path / "out" / "panel.csv").exists()

    # configparser reads '%' as interpolation; a lone one is a config error, not a runtime one
    @pytest.mark.parametrize("body, command, where", [
        ("[fit]\ninput = nan%.csv\n", ["fit", "--family", "mig"], "[fit] input"),
        (SIM_CFG.format(out="o%x"), ["simulate"], "[run] out_dir"),
    ], ids=["fit_input", "out_dir"])
    def test_lone_percent_exits_1_naming_the_key(self, tmp_path, capsys, monkeypatch, body,
                                                 command, where):
        monkeypatch.chdir(tmp_path)
        assert main(["--config", write_config(tmp_path, body), *command]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: '%' must be followed by")
        assert [p.name for p in tmp_path.iterdir()] == ["config.ini"]

    @pytest.mark.parametrize("value, retained", [
        ("on", 3), ("1", 3), ("yes", 3), ("true", 3),
        ("off", 4), ("0", 4), ("no", 4), ("false", 4),
    ])
    def test_fiscal_december_only_spellings(self, tmp_path, value, retained):
        cfg = Path(write_pinned_ingest(tmp_path))
        cfg.write_text(cfg.read_text().replace(
            "fiscal_december_only = true", f"fiscal_december_only = {value}"
        ))
        assert main(["--config", str(cfg), "ingest"]) == 0
        exclusions = json.loads((tmp_path / "out" / "exclusions.json").read_text())
        assert exclusions["n_retained_firms"] == retained

    def test_fiscal_december_only_non_boolean_exits_1(self, tmp_path, capsys):
        cfg = Path(write_pinned_ingest(tmp_path))
        cfg.write_text(cfg.read_text().replace(
            "fiscal_december_only = true", "fiscal_december_only = maybe"
        ))
        assert main(["--config", str(cfg), "ingest"]) == 1
        assert "fiscal_december_only" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["-3", "2.5", "two"])
    def test_min_growth_obs_not_a_count_exits_1(self, tmp_path, capsys, value):
        cfg = Path(write_pinned_ingest(tmp_path))
        cfg.write_text(cfg.read_text().replace("min_growth_obs = 3", f"min_growth_obs = {value}"))
        assert main(["--config", str(cfg), "ingest"]) == 1
        message = f"[ingest] min_growth_obs = {value!r} is not an integer >= 0"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_min_growth_obs_zero_keeps_firms_without_growth_rates(self, tmp_path):
        cfg = Path(write_pinned_ingest(tmp_path))
        cfg.write_text(cfg.read_text().replace("min_growth_obs = 3", "min_growth_obs = 0"))
        assert main(["--config", str(cfg), "ingest"]) == 0
        exclusions = json.loads((tmp_path / "out" / "exclusions.json").read_text())
        assert set(exclusions["excluded_firms"].values()) == {"fiscal_year_not_december"}

    @pytest.mark.parametrize("section, lines, command, message", [
        ("run", "seed = 1.5", "simulate", "[run] seed = '1.5' is not an integer"),
        ("model", "k_mode = fixed\nk = two", "simulate",
         "[model] k = 'two' is not an integer >= 1"),
        ("simulate", "n_firms = 2.5", "simulate",
         "[simulate] n_firms = '2.5' is not an integer >= 1"),
        ("simulate", "n_periods = x", "simulate",
         "[simulate] n_periods = 'x' is not an integer >= 2"),
        ("analyze", "n_bins = x", "analyze", "[analyze] n_bins = 'x' is not an integer >= 1"),
        # no firm of the panel has two growth rates, so no bin could take a firm
        ("analyze", "n_bins = 0", "analyze", "[analyze] n_bins = '0' is not an integer >= 1"),
        ("analyze", "q_list = 1,x", "analyze", "[analyze] q_list = 'x' is not an integer"),
    ])
    def test_integer_key_not_an_integer_exits_1_naming_it(self, tmp_path, capsys, section,
                                                          lines, command, message):
        out = tmp_path / "out"
        panel = tmp_path / "panel.csv"
        panel.write_text("firm_id,period,size\n0,0,1.0\n0,1,1.5\n")
        body = (ALL_SECTIONS_CFG.format(out=out).replace(f"{out}/panel.csv", str(panel))
                .replace("n_firms = 50\nn_periods = 4\n", "")
                .replace(f"[{section}]\n", f"[{section}]\n{lines}\n"))
        assert main(["--config", write_config(tmp_path, body), command]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_integer_keys_at_their_lower_bounds_load(self, tmp_path):
        out = tmp_path / "out"
        body = (f"[run]\nout_dir = {out}\nseed = 0\n\n[model]\nmu = 1.5\nk_mode = fixed\nk = 1\n\n"
                "[simulate]\nn_firms = 1\nn_periods = 2\n")
        assert main(["--config", write_config(tmp_path, body), "simulate"]) == 0
        assert len((out / "panel.csv").read_text().splitlines()) == 1 + 1 * 2

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(SRC).parent / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = load_config(write_config(tmp_path, example))
        assert cfg.sections() == list(CONFIG_KEYS)


class TestExitCodes:
    """The documented exit codes on the branches no other test takes."""

    def test_error_that_is_no_value_error_exits_2(self, tmp_path, monkeypatch, capsys):
        def full_disk(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "simulate_panel", full_disk)
        cfg = write_config(tmp_path, SIM_CFG.format(out=tmp_path / "out"))
        assert main(["--config", cfg, "simulate"]) == 2
        assert capsys.readouterr().err == "runtime error: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("command", [
        ["simulate"], ["analyze"], ["fit", "--family", "mig"], ["ingest"], ["reproduce", "fig4"],
    ], ids=lambda command: command[0])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
    def test_out_dir_that_cannot_be_made_exits_1_before_any_work(
        self, tmp_path, monkeypatch, capsys, command, below
    ):
        calls = []
        monkeypatch.setattr(cli, "run_experiment", lambda *args, **kw: calls.append(args))
        cfg = write_config(tmp_path, SIM_CFG.format(out=tmp_path / "sim"))
        assert main(["--config", cfg, "simulate"]) == 0  # a panel analyze would take
        taken = tmp_path / "taken"
        taken.write_text("a file where the output directory should go\n")
        out = taken / "out" if below else taken
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(["--config", cfg, *command, "--out-dir", str(out)]) == 1
        assert capsys.readouterr() == (
            "", f"error: out dir {out} cannot be made: {taken} is not a directory\n"
        )
        assert sorted(tmp_path.rglob("*")) == before
        assert taken.read_text() == "a file where the output directory should go\n"
        assert calls == []

    @pytest.mark.parametrize("strict, code", [(False, 0), (True, 3)])
    def test_unconverged_fit_exits_3_only_under_strict(self, tmp_path, monkeypatch, strict, code):
        from firmgrowth import estimation

        unconverged = estimation.FitResult(
            {"scale": 1.0, "shape": 2.0, "location": 0.0}, None, 1.5, 3, False
        )
        monkeypatch.setattr(estimation, "fit_mig_mle", lambda samples: unconverged)
        data = tmp_path / "samples.csv"
        data.write_text("value\n0.5\n1.5\n2.5\n")
        out = tmp_path / "fit"
        cfg = write_config(tmp_path, f"[run]\nout_dir = {out}\n")
        argv = ["--config", cfg, "fit", "--family", "mig", "--input", str(data)]
        assert main(argv + ["--strict"] * strict) == code
        assert json.loads((out / "fit_mig.json").read_text())["converged"] is False

    def test_analyze_with_more_bins_than_firms_exits_1_and_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SIM_CFG.format(out=tmp_path / "sim"))
        assert main(["--config", cfg, "simulate"]) == 0
        (tmp_path / "config.ini").unlink()
        body = SIM_CFG.format(out=tmp_path / "sim").replace("n_bins = 5", "n_bins = 401")
        out = tmp_path / "out"
        cfg = write_config(tmp_path, body)
        assert main(["--config", cfg, "analyze", "--out-dir", str(out)]) == 1
        assert "not enough firms" in capsys.readouterr().err
        assert not out.exists()

    def test_ingest_without_its_input_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        out = tmp_path / "ing"
        cfg = write_config(tmp_path, f"[run]\nout_dir = {out}\n[ingest]\ninput = {missing}\n")
        assert main(["--config", cfg, "ingest"]) == 1
        assert capsys.readouterr().err == f"error: ingest input not found: {str(missing)!r}\n"
        assert not out.exists()

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "missing.ini"
        out = tmp_path / "out"
        assert main(["--config", str(missing), "simulate", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: config file not found: {missing}\n"
        assert not out.exists()

    @pytest.mark.parametrize("model, message", [
        (None, "config needs a [model] section"),
        ("mu = 1.6\nk_mode = poisson\n", "unknown k_mode 'poisson' (use fixed or pareto)"),
        ("mu = 1.6\nk_mode = pareto\n", "pareto k_mode needs alpha in [model]"),
    ], ids=["no_model_section", "unknown_k_mode", "pareto_without_alpha"])
    def test_bad_model_section_exits_1_naming_it(self, tmp_path, capsys, model, message):
        out = tmp_path / "out"
        body = f"[run]\nout_dir = {out}\n[simulate]\nn_firms = 10\n"
        if model is not None:
            body += f"[model]\n{model}"
        assert main(["--config", write_config(tmp_path, body), "simulate"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
