"""Golden bytes: fixed seeds must keep producing these exact outputs.

The digests and reprs below pin what `converge`, `simulate` and
`heat-errors` write, and what the moment and activation engines return, down to the last bit on
IEEE double hardware with this repository's numpy/scipy.  A refactor that
claims "same behaviour" must leave every value here unchanged; a change
that alters numbers on purpose re-pins them and says why in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from spde1d import cli, experiments as ex, nonlinearity, scheme

CONVERGE_STUDY = {"m_grid": [4, 8, 16], "n_grid": [2, 4, 8], "M_ref": 128,
                  "N_ref": 16, "paths": 70, "seed": 5}  # 70 paths: two batches

CONVERGE_SHA256 = {
    "allen_cahn": "221123d92eaf5a66306628eaaf487315a6428a7c949a5e8b357142fe11392652",
    "zero_drift": "b79d2ae45cd13c12c233637c5ed7fc3422aa9c32a6f62106e9a8c48d088c6f22",
    # the closed-form engine's values, through the same CSV and JSON writers
    "zero_drift_exact": "5a727f04f0210eb46f94299bab139d45011796963316668192ad913a32090716",
}
ZERO_DRIFT = {"a": [0.0, 0.0, 0.0, 0.0], "initial": "zero"}

# its Y column rounds through project_F, so a change of projection grid moves
# its last bits (the O and indicator columns do not take the drift)
SIMULATE_SHA256 = "0a277d5c4b59a94d0408cefaed80c7ec5890e8e6330c8f9631e30abfd6c37f33"

# M and N reach past the series cutoff x = mu*h = 0.5 on both sides, and
# repeat no entry; "all" takes the trigamma-tail path
HEAT_GRID = {"m_grid": [1, 3, 16, 64, 4096], "n_grid": [1, 2, 7, 64, 4096, "all"]}
# the benchmark's heat_exact grid (14352 rows), where most lower bounds are
# cut by min(1, T N^2 / 2M) and the bounds are shared along each axis
_BENCH_AXIS = list(range(1, 65)) + [128, 256, 512, 1024, 4096]
BENCH_HEAT = {"model": {"T": 2.0, "nu": 0.5},
              "study": {"m_grid": _BENCH_AXIS, "n_grid": _BENCH_AXIS + ["all"]}}
# an "all" cutoff past the widest integer N: 2187 modes at M = 2^20, against N = 512
HEAT_ALL_PAST_N = {"model": {"T": 1.0, "nu": 1.0},
                   "study": {"m_grid": [1, 1048576], "n_grid": [2, 512, "all"]}}
HEAT_ERRORS_SHA256 = {
    (1.0, 1.0): "b0c5319d2e4c3c26317ed23e44aecdfe66935fc57fed222534405bdca0593dfe",
    (0.5, 2.0): "fb667f4cd2bceec503c0f978bffa68750d84f1b343c8db9c2c084c15aacc2d08",
    # nu = 0.15: numpy's SIMD expm1 differs from libm's in the last bit on
    # some lower-bound damping factors here (AVX-512), and these bytes are libm's
    (1.0, 0.15): "f494b65e12d8249153c186a76c8327322c0e33a54a3d1f7df05a64edabaa4258",
    "default": "6fc8db505fb1ca4585c7e2a3be87a132e84bf59bb45b6cb58a20ec755371c6a6",
    "bench": "eabe9186e036c1699bb8d62c37f39ae05a79fecba13caafe83010abfc17c818e",
    "all_past_n": "217a93d14a9dbe72d30143d9708553f208811e59c9764b348f0b1c39af5874c7",
}

MOMENT_REPRS = {
    "allen_cahn": [
        "MomentRow(M=4, N=1, estimate=3.023879364581485e-05, stderr=1.0202716788123156e-05, activation_fraction=0.0)",
        "MomentRow(M=4, N=8, estimate=3.0238621018325496e-05, stderr=1.0202643628790953e-05, activation_fraction=0.0)",
        "MomentRow(M=16, N=1, estimate=0.005657560445405197, stderr=0.0016944440306185852, activation_fraction=0.048214285714285716)",
        "MomentRow(M=16, N=8, estimate=0.005814846160529475, stderr=0.0017162566038940465, activation_fraction=0.048214285714285716)",
        "False",
        "(16, 1, 0.048214285714285716)",
        "(4, 8, 0.0)",
        "(8, 2, 0.0)",
    ],
    "zero_drift": [
        "MomentRow(M=4, N=1, estimate=3.0389662178335998e-05, stderr=1.032911413660158e-05, activation_fraction=0.0)",
        "MomentRow(M=4, N=8, estimate=3.0389681058924843e-05, stderr=1.0329115093719207e-05, activation_fraction=0.0)",
        "MomentRow(M=16, N=1, estimate=0.0052261104261995435, stderr=0.001581834320621085, activation_fraction=0.038392857142857145)",
        "MomentRow(M=16, N=8, estimate=0.005377149016089002, stderr=0.0016028584243395756, activation_fraction=0.04017857142857143)",
        "False",
        "(16, 1, 0.038392857142857145)",
        "(4, 8, 0.0)",
        "(8, 2, 0.0)",
    ],
}


def _run(tmp_path, command, payload, names):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path)]) == cli.EXIT_OK
    digest = hashlib.sha256()
    for name in names:
        digest.update((tmp_path / name).read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name, model", [("allen_cahn", {}), ("zero_drift", ZERO_DRIFT)])
def test_converge_bytes(tmp_path, name, model):
    got = _run(tmp_path, "converge", {"model": model, "study": CONVERGE_STUDY},
               ["spde1d_errors.csv", "spde1d_rates.json"])
    assert got == CONVERGE_SHA256[name]


def test_converge_exact_bytes(tmp_path):
    got = _run(tmp_path, "converge",
               {"model": ZERO_DRIFT, "study": dict(CONVERGE_STUDY, exact=True)},
               ["spde1d_errors.csv", "spde1d_rates.json"])
    assert got == CONVERGE_SHA256["zero_drift_exact"]


def test_simulate_bytes(tmp_path):
    payload = {"discretization": {"M": 32, "N": 16}, "study": {"seed": 9, "path": 2}}
    got = _run(tmp_path, "simulate", payload, ["spde1d_trajectory.csv"])
    assert got == SIMULATE_SHA256


@pytest.mark.parametrize("key", list(HEAT_ERRORS_SHA256))
def test_heat_errors_bytes(tmp_path, key):
    if isinstance(key, str):
        payload = {"default": {}, "bench": BENCH_HEAT, "all_past_n": HEAT_ALL_PAST_N}[key]
    else:
        payload = {"model": {"T": key[0], "nu": key[1]}, "study": HEAT_GRID}
    got = _run(tmp_path, "heat-errors", payload, ["spde1d_heat_errors.csv"])
    assert got == HEAT_ERRORS_SHA256[key]


def _moment_reprs(model):
    cfg = ex.StudyConfig(model=model, m_grid=(4, 16), n_grid=(1, 8), m_ref=16,
                         n_ref=8, paths=70, seed=3, moment_p=4)
    rows, flagged = ex.moment_audit(cfg)
    fractions = ex.activation_fractions(cfg, [(16, 1), (4, 8), (8, 2)])
    return [repr(r) for r in rows] + [repr(flagged)] + [repr(f) for f in fractions]


@pytest.mark.parametrize("name, model", [
    ("allen_cahn", scheme.allen_cahn_model()),
    ("zero_drift", scheme.ModelParams(T=1.0, nu=1.0,
                                      a=nonlinearity.CubicCoefficients(0.0, 0.0, 0.0, 0.0),
                                      xi=np.zeros(1))),
])
def test_moment_and_activation_values(name, model):
    assert _moment_reprs(model) == MOMENT_REPRS[name]
