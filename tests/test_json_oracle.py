"""write_json on the result dataclasses against a frozen copy of the encoder it replaced.

Before their JSON keys were their field names, ``Check``, ``ScalingFit`` and
``FitResult`` each had a hand-written ``to_dict``, and ``write_json`` turned
NumPy scalars into Python ones in a ``json.dump(default=...)`` hook, after
writing non-finite floats as null.  The copies below are that reference; a
payload built with them must give the bytes ``write_json`` gives on the same
payload built with ``dataclasses.asdict``.
"""

import json
from dataclasses import asdict

import numpy as np
import pytest

from firmgrowth.analysis import ScalingFit
from firmgrowth.cli import write_json
from firmgrowth.estimation import FitResult
from firmgrowth.experiments import Check


def old_check(c):
    return {"name": c.name, "value": c.value, "target": c.target, "tolerance": c.tolerance,
            "passed": c.passed}


def old_scaling(f):
    return {"slope": f.slope, "intercept": f.intercept, "se": f.se, "r2": f.r2}


def old_fit(f):
    return {"params": f.params, "se": f.se, "objective": f.objective, "n_obs": f.n_obs,
            "converged": f.converged}


def old_nan_to_null(o):
    if isinstance(o, dict):
        return {k: old_nan_to_null(v) for k, v in o.items()}
    if isinstance(o, np.ndarray):
        o = o.tolist()
    if isinstance(o, (list, tuple)):
        return [old_nan_to_null(v) for v in o]
    if isinstance(o, (float, np.floating)) and not np.isfinite(o):
        return None
    return o


def old_write_json(path, payload):
    def default(o):
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.floating,)):
            return float(o)
        if isinstance(o, (np.bool_,)):
            return bool(o)
        raise TypeError(f"cannot serialize {type(o)}")

    with open(path, "w") as fh:
        json.dump(
            old_nan_to_null(payload), fh, indent=2, sort_keys=True, default=default, allow_nan=False
        )
        fh.write("\n")


CHECKS = [
    Check.within("slope", -0.2501, -0.25, 0.05),
    Check.below("ks", np.float64(np.inf), 0.02),
    Check("numpy_fields", np.float32(0.1), np.int64(3), np.float64(np.nan), np.bool_(True)),
]
SCALING_FITS = [
    ScalingFit(-0.25, 1.5, 0.01, 0.99),
    ScalingFit(np.float64(-0.5), np.float32(0.1), np.float64(np.nan), np.float32(np.inf)),
    ScalingFit(np.int64(2), -np.inf, 1e-300, np.bool_(True)),
]
FIT_RESULTS = [
    FitResult({"scale": 4.788, "shape": np.float32(4.62), "location": 0.0}, None, 12.5, 1000, True),
    FitResult(
        {"amplitude": np.float64(0.483), "stretch": np.float32(0.377)},
        {"amplitude": np.float64(np.nan), "stretch": np.inf, "center": -np.inf,
         "crossover": np.float32(1e-3), "core_width": np.float64(2.5e-5)},
        np.float64(np.inf), np.int64(1601), np.bool_(False),
    ),
]


def reproduce_payload(check, scaling, fit):
    return {
        "_meta": {"seed": np.int64(20260804), "version": "0.1.0", "experiment": "fig4"},
        "checks": [check(c) for c in CHECKS],
        "scalars": {"n_firms": np.int64(8_000_000), "mu": 1.25,
                    "diversified_mean_fit": scaling(SCALING_FITS[0]),
                    "gse_fit": fit(FIT_RESULTS[1])},
        "passed": np.bool_(False),
    }


def int_key_payload(check, scaling, fit):
    # fig4's upper_window_fits: int keys, which sort as numbers, not as strings
    return {"upper_window_fits": {q: scaling(f) for q, f in zip((10, 2, 3), SCALING_FITS)}}


def analyze_payload(check, scaling, fit):
    fits = {str(q): scaling(f) for q, f in zip((1, 2, 3), SCALING_FITS)}
    return {"_meta": {"dropped_firms": 0}, "fits": fits}


def fit_payloads(check, scaling, fit):
    return [{**fit(f), "_meta": {"family": "gse", "seed": 3}} for f in FIT_RESULTS]


def nested_payload(check, scaling, fit):
    return {
        "k_values": [np.int64(1), [np.float32(0.5), (np.float64(np.nan), [np.bool_(True)])]],
        "grid": np.array([[1.0, np.inf], [np.nan, -0.0]]),
        "fits": [[scaling(f) for f in SCALING_FITS], [fit(f) for f in FIT_RESULTS]],
        "checks": [[check(c)] for c in CHECKS],
    }


@pytest.mark.parametrize("build", [
    reproduce_payload, int_key_payload, analyze_payload, fit_payloads, nested_payload,
], ids=["reproduce", "int_keys", "analyze", "fit", "nested_lists"])
def test_write_json_matches_the_old_encoder(tmp_path, build):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old_write_json(old, build(old_check, old_scaling, old_fit))
    write_json(new, build(asdict, asdict, asdict))
    assert new.read_bytes() == old.read_bytes()

