import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from spde1d import cli, nonlinearity


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], lines[1:]


def run_python(*argv, address_space=None):
    """Run a fresh interpreter that imports this checkout's spde1d, with at
    most address_space bytes of virtual memory if given."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    cap = None
    if address_space is not None:
        import resource
        env["OPENBLAS_NUM_THREADS"] = "1"  # its per-thread buffers count against the cap

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          preexec_fn=cap)


def test_help_lists_subcommands():
    out = run_python("-m", "spde1d.cli", "--help")
    assert out.returncode == 0
    for name in ("heat-errors", "simulate", "converge", "check"):
        assert name in out.stdout


def test_cli_import_heat_errors_and_a_config_error_load_no_scipy(tmp_path):
    # heat-errors runs on numpy alone, and converge refuses a malformed config
    # before it builds a grid, transforms or draws a normal, where scipy is imported
    bad = write_cfg(tmp_path, {"study": {"m_grid": "x"}})
    out = run_python("-c", (
        "import sys, spde1d.cli as cli\n"
        f"rc = (cli.main(['heat-errors', '--out', {str(tmp_path)!r}]),\n"
        f"      cli.main(['converge', '--config', {bad!r}, '--out', {str(tmp_path)!r}]))\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "(0, 2) []"


@pytest.mark.parametrize("module, loaded", [
    ("spde1d", []),
    ("spde1d.heat_errors", ["spde1d.heat_errors", "spde1d.spectral"]),
], ids=["spde1d", "spde1d.heat_errors"])
def test_importing_a_module_loads_only_what_it_imports(module, loaded):
    # the package's API is its modules: spde1d itself imports none of them
    out = run_python("-c", (
        f"import sys, {module}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'spde1d'))"))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == str(["spde1d", *loaded])


def test_readme_minimal_use_runs_as_written():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^Minimal use:\n\n```python\n(.*?)^```$", readme,
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    out = run_python("-c", blocks[0])
    assert out.returncode == 0, out.stderr
    assert len(out.stdout.splitlines()) == 2


def test_heat_errors_default_grid(tmp_path, capsys):
    rc = cli.main(["heat-errors", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    header, rows = read_rows(tmp_path / "spde1d_heat_errors.csv")
    assert header == "M,N,exact,lower,upper,kind"
    # 7 x 7 grid for each of the three kinds
    assert len(rows) == 3 * 49
    kinds = [r.split(",")[-1] for r in rows]
    assert kinds.count("temporal") == kinds.count("spatial") == kinds.count("full") == 49
    assert "all sandwiched" in capsys.readouterr().out


def test_heat_errors_all_modes_rows(tmp_path):
    cfg = write_cfg(tmp_path, {"study": {"m_grid": [2, 8], "n_grid": [4, "all"]}})
    rc = cli.main(["heat-errors", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    _, rows = read_rows(tmp_path / "spde1d_heat_errors.csv")
    # temporal keeps the "all" column entries, spatial and full drop them
    assert len(rows) == 4 + 2 + 2
    all_rows = [r for r in rows if r.split(",")[1] == "all"]
    assert len(all_rows) == 2
    assert all(r.endswith("temporal") for r in all_rows)


def test_heat_errors_violation_exits_3_and_keeps_the_report(tmp_path, capsys, monkeypatch):
    # an upper bound of 0 puts every spatial and full row above its bound
    monkeypatch.setattr(cli.heat_errors, "bound_upper_spatial", lambda N, T, nu: 0.0)
    cfg = write_cfg(tmp_path, {"study": {"m_grid": [2], "n_grid": [2]}})
    rc = cli.main(["heat-errors", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_SANDWICH
    assert "sandwich violated" in capsys.readouterr().err
    # the report file is still written for inspection
    assert (tmp_path / "spde1d_heat_errors.csv").exists()


@pytest.mark.parametrize("payload", [
    {"model": {"T": "inf"}},
    {"study": {"m_grid": [2.5]}},
    {"study": {"m_grid": [math.inf]}},
    {"study": {"m_grid": []}},
    {"study": {"n_grid": []}},
    {"study": {"m_grid": "12"}},
    {"study": {"n_grid": [-math.inf]}},
    {"study": {"n_grid": [math.inf]}},
    {"study": {"n_grid": [None]}},
    {"study": {"sandwich_tol": "1e-12"}},
    {"model": {"T": "1"}},
    {"model": {"nu": True}},
    {"study": {"m_grid": [2, 4], "n_grid": [2], "sandwich_tol": math.nan}},
    {"study": {"sandwich_tol": math.inf}},
    {"study": {"sandwich_tol": -1.0}},
    {"model": {"T": 1e307, "nu": 1.0}},
    {"output": {"prefix": "a/b"}},
    {"output": {"prefix": None}},
    {"output": {"prefix": 5}},
    {"study": {"m_grid": [2], "n_grid": [2]}, "output": {"prefix": "x" * 300}},
    {"study": {"m_grid": [10**308], "n_grid": [4]}},
    {"study": {"n_grid": [10**400]}},
    {"model": {"T": 0}},
    {"model": {"nu": -1}},
    {"model": {"T": math.inf}},
], ids=["infinite_T", "fractional_M", "infinite_M", "empty_m_grid", "empty_n_grid",
        "grid_not_a_list", "negative_infinite_N", "infinite_N", "null_N",
        "tolerance_as_string", "T_as_string", "nu_as_bool", "nan_tolerance",
        "infinite_tolerance", "negative_tolerance", "T_overflowing_the_errors",
        "prefix_naming_a_subdirectory", "null_prefix", "prefix_not_a_string",
        "prefix_longer_than_a_file_name", "M_whose_double_leaves_the_float_range",
        "N_beyond_the_float_range", "zero_T", "negative_nu", "T_as_json_infinity"])
def test_bad_heat_errors_values_exit_2(tmp_path, capsys, payload):
    cfg = write_cfg(tmp_path, payload)
    rc = cli.main(["heat-errors", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("payload", [
    {"model": {"nu": 1e-12}, "study": {"m_grid": [4096], "n_grid": ["all"]}},
    {"study": {"m_grid": [4], "n_grid": [1e9]}},
    {"model": {"nu": 1e-12}, "study": {"m_grid": [4], "n_grid": [8]}},
    {"model": {"nu": 1e-320}, "study": {"m_grid": [4], "n_grid": ["all"]}},
    # the integer N is valid, but the "all" cutoff sqrt(45 M / (nu pi^2 T)) is inf
    {"study": {"m_grid": [5 * 10**307], "n_grid": [4, "all"]}},
], ids=["tiny_nu_all_modes", "huge_N", "tiny_nu_spatial_series", "subnormal_nu",
        "all_modes_cutoff_beyond_the_float_range"])
def test_heat_errors_mode_cap_exits_2_before_allocating(tmp_path, capsys, monkeypatch,
                                                        payload):
    arange = np.arange

    def small_arange(*args, **kwargs):
        # every mode vector is an arange; fail the test instead of allocating
        length = args[1] - args[0] if len(args) > 1 else args[0]
        assert length <= 10**6, f"asked for {length:.3g} modes"
        return arange(*args, **kwargs)

    monkeypatch.setattr(np, "arange", small_arange)
    cfg = write_cfg(tmp_path, payload)
    rc = cli.main(["heat-errors", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "modes, more than the limit" in err and err.count("\n") == 1
    assert not list(tmp_path.glob("spde1d_*"))


def test_malformed_config_exits_2_without_output(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out_dir = tmp_path / "out"
    rc = cli.main(["heat-errors", "--config", str(bad), "--out", str(out_dir)])
    assert rc == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not (out_dir / "spde1d_heat_errors.csv").exists()


def test_unknown_section_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, {"modle": {"T": 1.0}})
    assert cli.main(["heat-errors", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_CONFIG


_SMALL_STUDY = {"m_grid": [4, 8, 16], "n_grid": [2, 4, 8], "M_ref": 128, "N_ref": 16,
                "paths": 2}
_ZERO_DRIFT = {"a": [0.0, 0.0, 0.0, 0.0], "initial": "zero"}


@pytest.mark.parametrize("command, payload", [
    ("converge", {"study": {"m_grid": [7], "M_ref": 64, "N_ref": 8}}),
    ("converge", {"study": {"m_grid": 5}}),
    ("converge", {"study": 5}),
    ("converge", {"study": {"m_gird": [4, 8], "M_ref": 64, "N_ref": 8, "n_grid": [2, 4]}}),
    ("converge", {"model": {"initial": [1e160]}, "study": _SMALL_STUDY}),
    ("converge", {"model": _ZERO_DRIFT, "study": dict(_SMALL_STUDY, m_grid=[4, 8, 16.9])}),
    ("converge", {"model": _ZERO_DRIFT, "study": dict(_SMALL_STUDY, paths=4.7)}),
    ("converge", {"model": _ZERO_DRIFT, "study": dict(_SMALL_STUDY, exact="false")}),
    ("converge", {"model": _ZERO_DRIFT, "study": dict(_SMALL_STUDY, seed=True)}),
    ("converge", {"model": _ZERO_DRIFT, "study": dict(_SMALL_STUDY, M_master="256")}),
    ("simulate", {"discretization": {"M": 8.5, "N": 4}}),
    ("simulate", {"discretization": {"M": 8, "N": 4}, "study": {"path": 0.5}}),
    ("simulate", {"discretization": {"M": 8, "N": 4}, "study": {"seed": 1.5}}),
    ("check", {"study": {"audit_trials": 2.5}}),
    ("converge", {"model": dict(_ZERO_DRIFT, T="1"), "study": _SMALL_STUDY}),
    ("converge", {"model": dict(_ZERO_DRIFT, nu=True), "study": _SMALL_STUDY}),
    ("converge", {"model": {"a": [0, 1, 0, "-1"]}, "study": _SMALL_STUDY}),
    ("converge", {"model": {"initial": [0.1, "0.2"]}, "study": _SMALL_STUDY}),
    ("converge", {"model": _ZERO_DRIFT, "discretization": {"gamma": "0.2"},
                  "study": _SMALL_STUDY}),
    ("converge", {"model": {"a": [0, True, 0, -1]}, "study": _SMALL_STUDY}),
    ("simulate", {"discretization": {"M": 8, "N": 4, "gamma": "0.2"}}),
    ("simulate", {"model": {"T": 10**400}, "discretization": {"M": 8, "N": 4}}),
    ("converge", {"model": {"T": 1e307, "a": [0, 0, 0, 0]},
                  "study": {"exact": True, "m_grid": [16, 32, 64], "n_grid": [8, 16, 32],
                            "M_ref": 512, "N_ref": 64}}),
    ("simulate", {"discretization": {"M": 8, "N": 4}, "output": {"prefix": "a/b"}}),
    ("converge", {"model": _ZERO_DRIFT, "study": _SMALL_STUDY,
                  "output": {"prefix": "a/b"}}),
    ("simulate", {"discretization": {"M": 8, "N": 4}, "output": {"prefix": None}}),
    ("converge", {"model": _ZERO_DRIFT, "study": _SMALL_STUDY, "output": {"prefix": None}}),
    ("converge", []),
    ("converge", {"model": {"a": [0, 1]}, "study": _SMALL_STUDY}),
    ("simulate", {"model": {"initial": []}, "discretization": {"M": 8, "N": 4}}),
    ("converge", {"model": {"initial": []}, "study": _SMALL_STUDY}),
    ("converge", {"model": _ZERO_DRIFT, "study": dict(_SMALL_STUDY, exact=True, M_ref=10**400)}),
    ("converge", {"model": _ZERO_DRIFT, "study": dict(_SMALL_STUDY, m_grid=[4, 8, 32])}),
], ids=["m_not_dividing_master", "m_grid_not_a_list", "study_not_an_object",
        "misspelled_key", "overflowing_initial_value", "fractional_M", "fractional_paths",
        "exact_as_string", "seed_as_bool", "master_as_string", "simulate_fractional_M",
        "simulate_fractional_path", "simulate_fractional_seed", "check_fractional_trials",
        "T_as_string", "nu_as_bool", "a_entry_as_string", "initial_entry_as_string",
        "gamma_as_string", "a_entry_as_bool", "simulate_gamma_as_string",
        "simulate_T_too_large_for_a_float", "exact_errors_overflowing_a_float",
        "simulate_prefix_naming_a_subdirectory", "prefix_naming_a_subdirectory",
        "simulate_null_prefix", "null_prefix", "config_root_not_an_object",
        "a_with_two_entries", "simulate_empty_initial", "empty_initial",
        "exact_M_ref_beyond_the_float_range", "m_within_8x_of_the_reference"])
def test_bad_study_values_exit_2(tmp_path, capsys, command, payload):
    cfg = write_cfg(tmp_path, payload)
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("model", [{"nu": 1e300}, {"T": 1e-300}], ids=["huge_nu", "tiny_T"])
def test_failed_rate_fit_names_its_axis(tmp_path, capsys, model):
    # the grids pass their checks and every path runs, but every temporal
    # estimate is exactly 0.0, which no log-log fit can take
    cfg = write_cfg(tmp_path, {"model": model, "study": {
        "m_grid": [1, 2, 4], "n_grid": [1, 2, 4], "M_ref": 32, "N_ref": 8, "paths": 2}})
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == ("configuration error: 0 positive temporal estimates; "
                                       "rate fits need at least 3\n")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("command, payload, limit", [
    ("simulate", {"discretization": {"M": 10**8, "N": 64}}, "more than the limit of 67108864"),
    ("simulate", {"discretization": {"N": 10**8}}, "discretization.N must be an integer >= 1, "
                                                   "at most 100000"),
    ("simulate", {"discretization": {"M": 8, "N": 4}, "study": {"M_master": 10**12}},
     "more than the limit of 67108864"),
    ("converge", {"study": {"M_ref": 2**30}}, "more than the limit of 67108864"),
    ("converge", {"study": {"N_ref": 10**8}}, "study.N_ref must be an integer >= 1, "
                                              "at most 100000"),
    ("converge", {"study": {"N_master": 10**8}}, "study.N_master must be an integer >= 0, "
                                                 "at most 100000"),
], ids=["simulate_M", "simulate_N", "simulate_M_master", "converge_M_ref", "converge_N_ref",
        "converge_N_master"])
def test_oversized_runs_exit_2_before_allocating(tmp_path, command, payload, limit):
    # under a 1 GiB address-space cap, a run that allocated its arrays first
    # would die of a MemoryError with exit code 1
    cfg = write_cfg(tmp_path, payload)
    out = run_python("-m", "spde1d.cli", command, "--config", cfg, "--out", str(tmp_path),
                     address_space=1 << 30)
    assert out.returncode == cli.EXIT_CONFIG, out.stderr
    assert out.stderr.startswith("configuration error") and out.stderr.count("\n") == 1
    assert limit in out.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_library_simulate_refuses_an_oversized_tape_before_allocating():
    # the refusal lives in scheme.simulate_trajectory, so a library caller
    # gets the CLI's message, not a MemoryError from the 47.7 GiB tape
    code = ("from spde1d import noise, scheme\n"
            "tape = noise.NoiseTape(seed=0, M_master=10**8, N_master=64, T=1.0)\n"
            "d = scheme.DiscretizationParams(M=10**8, N=64)\n"
            "try:\n"
            "    scheme.simulate_trajectory(scheme.allen_cahn_model(), d, tape)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    out = run_python("-c", code, address_space=2 << 30)
    assert out.returncode == 0 and out.stderr == "", out.stderr
    assert "more than the limit of 67108864" in out.stdout


def test_simulate_memory_is_bounded_by_its_arrays(tmp_path, capsys):
    # the CSV goes to disk in chunks of grid times: 262,208 values, about
    # 18 MB of text, more than the peak allowed for the whole run
    M, N = 4096, 64
    cfg = write_cfg(tmp_path, {"model": _ZERO_DRIFT, "discretization": {"M": M, "N": N}})
    tracemalloc.start()
    try:
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    y_and_o = 2 * (M + 1) * N * 8
    assert (tmp_path / "spde1d_trajectory.csv").stat().st_size > 3 * y_and_o
    assert peak < 3 * y_and_o, f"peak {peak} B against {y_and_o} B of Y and O"


@pytest.mark.parametrize("study", [
    dict(_SMALL_STUDY, m_grid=[4, 8]),
    dict(_SMALL_STUDY, n_grid=[2, 4, 4]),  # three entries, two distinct
    dict(_SMALL_STUDY, m_grid=[4, 8], exact=True),
    dict(_SMALL_STUDY, m_grid=[4, 8, 128]),  # a Monte Carlo estimate at M_ref is 0
    dict(_SMALL_STUDY, n_grid=[2, 4, 16]),
], ids=["two_m", "repeated_n", "two_m_exact", "m_at_reference", "n_at_reference"])
def test_converge_refuses_a_grid_it_cannot_fit_before_any_path(tmp_path, capsys, monkeypatch,
                                                               study):
    def never(*args):
        raise AssertionError("the study ran")
    monkeypatch.setattr(cli.experiments, "_accumulate", never)
    monkeypatch.setattr(cli.experiments.heat_errors, "error_table", never)  # exact mode
    cfg = write_cfg(tmp_path, {"model": _ZERO_DRIFT, "study": study})
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "needs at least 3 distinct values to fit a rate" in err and err.count("\n") == 1
    assert not list(tmp_path.glob("spde1d_*"))


@pytest.mark.parametrize("m_grid", [[4, 8, 128], [4, 8, 32]],
                         ids=["m_at_reference", "m_within_8x_of_the_reference"])
def test_converge_exact_fits_grids_monte_carlo_refuses(tmp_path, m_grid):
    # exact mode runs no reference: its error at M_ref is positive, and no
    # reference-ratio rule applies, so both grids Monte Carlo mode refuses fit
    study = dict(_SMALL_STUDY, m_grid=m_grid, exact=True)
    cfg = write_cfg(tmp_path, {"model": _ZERO_DRIFT, "study": study})
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 0
    fits = json.loads((tmp_path / "spde1d_rates.json").read_text())
    assert [M for M, _ in fits["temporal"]["points"]] == m_grid


@pytest.mark.parametrize("command, payload, key", [
    ("simulate", {"study": {"seed": 2**64}}, "study.seed"),
    ("simulate", {"study": {"path": 2**64}}, "study.path"),
    ("converge", {"model": _ZERO_DRIFT, "study": dict(_SMALL_STUDY, exact=True, seed=2**64)},
     "study.seed"),
    ("check", {"study": {"seed": 2**64}}, "study.seed"),
], ids=["simulate_seed", "simulate_path", "converge_exact_seed", "check_seed"])
def test_seed_and_path_beyond_64_bits_are_named_and_exit_2(tmp_path, capsys, command, payload,
                                                           key):
    # the noise tape's counters are 64-bit, so every command refuses more as it parses
    cfg = write_cfg(tmp_path, payload)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert key in err and err.count("\n") == 1
    assert "at most 18446744073709551615;" in err  # the bound, as a user can type it back
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("command, payload, key", [
    ("converge", {"study": {"m_gird": [4, 8]}}, "m_gird"),
    ("heat-errors", {"model": {"T": 1.0, "a": [0, 1, 0, -1]}}, "'a'"),
    ("simulate", {"discretization": {"M": 4, "N": 2, "M_ref": 8}}, "M_ref"),
    ("check", {"output": {"prefix": "x"}}, "prefix"),
    ("converge", {"study": {"moment_p": 4}}, "moment_p"),
])
def test_unknown_keys_are_named_and_exit_2(tmp_path, capsys, command, payload, key):
    cfg = write_cfg(tmp_path, payload)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert key in err and err.count("\n") == 1
    assert not list(tmp_path.glob("spde1d_*"))


@pytest.mark.parametrize("command", ["heat-errors", "simulate", "converge"])
@pytest.mark.parametrize("out", ["cfg.json", "cfg.json/sub"])
def test_output_dir_that_is_a_file_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                              command, out):
    # --out, SPDE_OUT and output.dir take the same parser
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, {})
    assert cli.main([command, "--config", cfg, "--out", out]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "output.dir" in err and "not a directory" in err and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("command", ["heat-errors", "simulate", "converge"])
def test_output_dir_not_a_string_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                            command):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SPDE_OUT", raising=False)
    cfg = write_cfg(tmp_path, {"output": {"dir": 5}})
    assert cli.main([command, "--config", cfg]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "output.dir" in err and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("command, rc", [
    ("converge", cli.EXIT_CONFIG), ("simulate", cli.EXIT_CONFIG), ("check", cli.EXIT_CONFIG),
    ("heat-errors", cli.EXIT_OK),  # reads no seed
])
def test_bad_seed_env_fails_only_the_commands_that_read_seed(tmp_path, capsys, monkeypatch,
                                                             command, rc):
    monkeypatch.setenv("SPDE_SEED", "abc")
    assert cli.main([command, "--out", str(tmp_path)]) == rc
    if rc == cli.EXIT_CONFIG:
        err = capsys.readouterr().err
        assert "SPDE_SEED" in err and err.count("\n") == 1
        assert not list(tmp_path.iterdir())


def test_readme_key_table_is_the_cli_table():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| command | `model` | `discretization` | `study` | `output` |")
    sections = re.findall(r"`([^`]+)`", lines[start])
    documented = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        command, *cells = line.strip("|").split("|")
        documented[command.strip().strip("`")] = {
            section: set(re.findall(r"`([^`]+)`", cell))
            for section, cell in zip(sections, cells) if "`" in cell}
    assert documented == {command: {section: set(keys) for section, keys in table.items()}
                          for command, table in cli.SETTINGS.items()}


@pytest.mark.parametrize("command, payload", [
    ("simulate", None),
    # each grid time holds more values than one norm pass takes
    ("simulate", {"discretization": {"M": 2, "N": 40000}}),
    ("simulate", {"discretization": {"M": 4, "N": 2},
                  "study": {"seed": 2**64 - 1, "path": 2**64 - 1}}),
    ("converge", {"model": {"a": [0, 0, 0, 0]}, "study": _SMALL_STUDY}),
    ("converge", {"study": _SMALL_STUDY}),
], ids=["simulate_default", "simulate_wide", "simulate_largest_seed_and_path",
        "converge_zero_drift", "converge_allen_cahn"])
def test_runs_exit_0_with_an_empty_stderr(tmp_path, command, payload):
    # a fresh interpreter, because pytest would catch a numpy warning before stderr
    config = [] if payload is None else ["--config", write_cfg(tmp_path, payload)]
    out = run_python("-m", "spde1d.cli", command, *config, "--out", str(tmp_path))
    assert (out.returncode, out.stderr) == (0, "")


def simulate_cfg(tmp_path, **model):
    payload = {"discretization": {"M": 8, "N": 8}}
    if model:
        payload["model"] = model
    return write_cfg(tmp_path, payload)


def test_simulate_writes_and_reruns_identically(tmp_path):
    cfg = simulate_cfg(tmp_path)
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    out = tmp_path / "spde1d_trajectory.csv"
    first = out.read_bytes()
    header, rows = read_rows(out)
    assert header == "t,mode_index,Y_coeff,O_coeff,indicator"
    assert len(rows) == 9 * 8
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_OK
    assert out.read_bytes() == first


def test_simulate_overflowing_norm_is_drift_off_without_warnings(tmp_path):
    # ||xi||_{H_gamma} overflows to inf, which the indicator reads as drift off; a
    # fresh interpreter, because pytest would catch a numpy warning before stderr
    cfg = write_cfg(tmp_path, {"model": {"initial": [1e300, 1e300]},
                               "discretization": {"M": 4, "N": 4}})
    out = run_python("-m", "spde1d.cli", "simulate", "--config", cfg, "--out", str(tmp_path))
    assert (out.returncode, out.stderr) == (0, "")
    _, rows = read_rows(tmp_path / "spde1d_trajectory.csv")
    assert rows[0].endswith(",0")


def test_simulate_zero_drift_trajectory_is_ou(tmp_path):
    cfg = simulate_cfg(tmp_path, a=[0.0, 0.0, 0.0, 0.0], initial="zero")
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_OK
    _, rows = read_rows(tmp_path / "spde1d_trajectory.csv")
    for row in rows:
        _, _, y, o, ind = row.split(",")
        assert abs(float(y) - float(o)) <= 1e-14
        assert ind in ("0", "1")


def converge_cfg(tmp_path, exact=False, paths=32):
    payload = {
        "model": {"a": [0.0, 0.0, 0.0, 0.0], "initial": "zero"},
        "study": {
            "m_grid": [4, 8, 16], "n_grid": [2, 4, 8],
            "M_ref": 128, "N_ref": 16, "paths": paths, "exact": exact,
        },
    }
    return write_cfg(tmp_path, payload)


def test_converge_exact_mode(tmp_path, capsys):
    cfg = converge_cfg(tmp_path, exact=True)
    rc = cli.main(["converge", "--config", cfg, "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "temporal slope" in out
    fits = json.loads((tmp_path / "spde1d_rates.json").read_text())
    assert -0.30 <= fits["temporal"]["slope"] <= -0.20
    header, rows = read_rows(tmp_path / "spde1d_errors.csv")
    assert header == "kind,M,N,estimate,stderr,activation_fraction,paths,seed"
    assert all(r.split(",")[6] == "0" for r in rows)  # paths column marks exact mode


@pytest.mark.parametrize("payload", [
    {"model": _ZERO_DRIFT, "study": dict(_SMALL_STUDY, paths=70)},
    # N = 1 is a width-1 segment of the reference's run, at 8 master steps per step
    {"study": dict(_SMALL_STUDY, n_grid=[1, 2, 4], M_master=1024, paths=70)},
    # with three batches a pool that merged them out of order would move the sums
    {"model": _ZERO_DRIFT, "study": dict(_SMALL_STUDY, paths=130)},
], ids=["zero_drift", "allen_cahn_n1", "zero_drift_three_batches"])
def test_converge_thread_count_does_not_change_bytes(tmp_path, monkeypatch, payload):
    # 70 paths are two batches of 64, 130 are three, so --threads 2 merges them
    # from a pool of two workers
    pools = []

    def counted_pool(**kwargs):
        pools.append(kwargs["max_workers"])
        return ProcessPoolExecutor(**kwargs)

    monkeypatch.setattr(cli.experiments, "ProcessPoolExecutor", counted_pool)
    cfg = write_cfg(tmp_path, payload)
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path),
                     "--threads", "1"]) == cli.EXIT_OK
    csv1 = (tmp_path / "spde1d_errors.csv").read_bytes()
    json1 = (tmp_path / "spde1d_rates.json").read_bytes()
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path),
                     "--threads", "2"]) == cli.EXIT_OK
    assert (tmp_path / "spde1d_errors.csv").read_bytes() == csv1
    assert (tmp_path / "spde1d_rates.json").read_bytes() == json1
    assert pools == [2]


def test_converge_single_path_stderr_nan(tmp_path):
    cfg = converge_cfg(tmp_path, paths=1)
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_OK
    _, rows = read_rows(tmp_path / "spde1d_errors.csv")
    assert all(math.isnan(float(r.split(",")[4])) for r in rows)


def test_failed_atomic_write_exits_2_and_leaves_no_temp_file(tmp_path, capsys):
    # a directory squatting on the target name makes the final rename fail;
    # the temporary file it was written to is removed
    (tmp_path / "spde1d_heat_errors.csv").mkdir()
    cfg = write_cfg(tmp_path, {"study": {"m_grid": [2], "n_grid": [2]}})
    assert cli.main(["heat-errors", "--config", cfg, "--out", str(tmp_path)]) \
        == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cannot write" in err and "Is a directory" in err and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "spde1d_heat_errors.csv"]
    assert not list(tmp_path.rglob("*.tmp"))


def test_converge_write_survives_stale_temp_name(tmp_path):
    # a directory squatting on "<name>.tmp" must not block the atomic write,
    # and the outputs get the permissions a plain open() would give them
    (tmp_path / "spde1d_errors.csv.tmp").mkdir()
    cfg = converge_cfg(tmp_path, exact=True)
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_OK
    probe = tmp_path / "probe"
    probe.write_text("")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cfg.json", "probe", "spde1d_errors.csv", "spde1d_errors.csv.tmp",
        "spde1d_rates.json"]
    for name in ("spde1d_errors.csv", "spde1d_rates.json"):
        assert (tmp_path / name).stat().st_mode == probe.stat().st_mode


def test_seed_precedence_flag_env_file(tmp_path, monkeypatch):
    cfg = converge_cfg(tmp_path)
    # file default seed is 0; env overrides file; flag overrides env
    monkeypatch.setenv("SPDE_SEED", "7")
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_OK
    _, rows = read_rows(tmp_path / "spde1d_errors.csv")
    assert all(r.split(",")[7] == "7" for r in rows)
    # --paths beats the file's paths the same way
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path),
                     "--seed", "9", "--paths", "3"]) == cli.EXIT_OK
    _, rows = read_rows(tmp_path / "spde1d_errors.csv")
    assert all(r.split(",")[7] == "9" and r.split(",")[6] == "3" for r in rows)


def test_out_env_var(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("SPDE_OUT", str(target))
    monkeypatch.chdir(tmp_path)
    cfg = simulate_cfg(tmp_path)
    assert cli.main(["simulate", "--config", cfg]) == cli.EXIT_OK
    assert (target / "spde1d_trajectory.csv").exists()


def test_output_prefix_from_config(tmp_path):
    cfg = write_cfg(tmp_path, {"discretization": {"M": 4, "N": 2},
                               "output": {"prefix": "run1"}})
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_OK
    assert (tmp_path / "run1_trajectory.csv").exists()


def test_check_passes_on_healthy_library(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"study": {"audit_trials": 60}})
    rc = cli.main(["check", "--config", cfg])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    lines = out.splitlines()  # one line per audit, as README promises
    assert len(lines) == 5 and all(line.startswith("PASS ") for line in lines), out
    assert "FAIL" not in out


def test_check_audit_failure_exits_4(monkeypatch, capsys):
    def rigged(name, trials=0, seed=0, **kw):
        return 1.0 if name == "lipschitz" else -1.0

    monkeypatch.setattr(nonlinearity, "run_inequality_audit", rigged)
    monkeypatch.setattr(cli.nonlinearity, "run_inequality_audit", rigged)
    rc = cli.main(["check"])
    assert rc == cli.EXIT_AUDIT
    assert "FAIL drift-lipschitz" in capsys.readouterr().out
