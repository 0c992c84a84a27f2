"""Command-line front end.

Subcommands:
  heat-errors   exact linear error engine: value + bounds over an (M, N) grid
  simulate      dump one trajectory of the nonlinear scheme
  converge      coupled Monte Carlo convergence study with rate fits
  check         inequality and monotonicity audit suite

Configuration is one JSON file with sections "model", "discretization",
"study", "output"; all sections optional with documented defaults, and each
command rejects a key it does not read (CONFIG_KEYS).  The
--seed/--paths/--out/--threads flags override the file, and the environment
variables SPDE_SEED / SPDE_OUT sit between the two (flag > env > file).

Exit codes: 0 success, 2 configuration error, 3 sandwich violation in
heat-errors, 4 audit failure in check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import experiments, heat_errors, nonlinearity, scheme
from .heat_errors import _number
from .noise import NoiseTape

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SANDWICH = 3
EXIT_AUDIT = 4

DEFAULT_HEAT_GRID = (1, 2, 4, 8, 16, 32, 64)
AUDIT_TOL = 1e-8


# every config key each command reads, by section; any other key is rejected
_MODEL_KEYS = {"T", "nu", "a", "initial"}
_OUTPUT_KEYS = {"dir", "prefix"}
CONFIG_KEYS = {
    "heat-errors": {"model": {"T", "nu"}, "study": {"m_grid", "n_grid", "sandwich_tol"},
                    "output": _OUTPUT_KEYS},
    "simulate": {"model": _MODEL_KEYS, "discretization": {"M", "N", "gamma", "chi"},
                 "study": {"seed", "path", "M_master", "N_master"}, "output": _OUTPUT_KEYS},
    "converge": {"model": _MODEL_KEYS, "discretization": {"gamma", "chi"},
                 "study": {"m_grid", "n_grid", "M_ref", "N_ref", "M_master", "N_master",
                           "paths", "seed", "threads", "exact", "moment_p"},
                 "output": _OUTPUT_KEYS},
    "check": {"study": {"audit_trials", "seed"}},
}


class ConfigError(Exception):
    pass


def _load_config(path: str | None, command: str) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config root must be an object, got {type(cfg).__name__}")
    unknown = set(cfg) - {"model", "discretization", "study", "output"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for name, section in cfg.items():
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name!r} must be an object, "
                              f"got {type(section).__name__}")
        unknown = sorted(set(section) - CONFIG_KEYS[command].get(name, set()))
        if unknown:
            raise ConfigError(f"unknown keys in section {name!r} for {command}: {unknown}")
    return cfg


def _env_int(name: str):
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from exc


def _pick(flag, env, file_value, default):
    for candidate in (flag, env, file_value):
        if candidate is not None:
            return candidate
    return default


def _int(value, key: str, least: int = 1) -> int:
    return heat_errors._int_at_least(value, f"{key} must be an integer >= {least}", least)


def _grid(study: dict, key: str, default=DEFAULT_HEAT_GRID) -> list:
    grid = study.get(key, list(default))
    if not (isinstance(grid, list) and grid):
        raise ConfigError(f"study.{key} must be a non-empty list, got {grid!r}")
    return grid


def _build_model(cfg: dict, n_xi: int) -> scheme.ModelParams:
    section = cfg.get("model", {})
    coeffs = section.get("a", [0.0, 1.0, 0.0, -1.0])
    if not (isinstance(coeffs, (list, tuple)) and len(coeffs) == 4):
        raise ConfigError(f"model.a must be a list of 4 coefficients, got {coeffs!r}")
    initial = section.get("initial", "bump")
    if isinstance(initial, str):
        xi = scheme.initial_coefficients(initial, n_xi)
    elif isinstance(initial, (list, tuple)):
        xi = np.array([_number(c, "model.initial entries") for c in initial])
    else:
        raise ConfigError(f"model.initial must be a preset name or a list, got {initial!r}")
    return scheme.ModelParams(
        T=_number(section.get("T", 1.0), "model.T"),
        nu=_number(section.get("nu", 1.0), "model.nu"),
        a=nonlinearity.CubicCoefficients(*[_number(c, "model.a entries") for c in coeffs]),
        xi=xi,
    )


def _build_study(cfg: dict, args) -> experiments.StudyConfig:
    study = cfg.get("study", {})
    disc = cfg.get("discretization", {})
    n_ref = _int(study.get("N_ref", 128), "N_ref")
    n_master = _int(study.get("N_master", 0), "N_master", 0)
    exact = study.get("exact", False)
    if not isinstance(exact, bool):
        raise ConfigError(f"study.exact must be true or false, got {exact!r}")
    return experiments.StudyConfig(
        model=_build_model(cfg, n_xi=max(n_master or n_ref, 512)),
        m_grid=[_int(m, "m_grid entries") for m in _grid(study, "m_grid", (16, 32, 64, 128))],
        n_grid=[_int(n, "n_grid entries") for n in _grid(study, "n_grid", (8, 16, 32, 64))],
        m_ref=_int(study.get("M_ref", 2048), "M_ref"),
        n_ref=n_ref,
        paths=_int(_pick(args.paths, None, study.get("paths"), 200), "paths"),
        seed=_int(_pick(args.seed, _env_int("SPDE_SEED"), study.get("seed"), 0), "seed", 0),
        gamma=_number(disc.get("gamma", scheme.DEFAULT_GAMMA), "discretization.gamma"),
        chi=_number(disc.get("chi", scheme.DEFAULT_CHI), "discretization.chi"),
        m_master=_int(study.get("M_master", 0), "M_master", 0),
        n_master=n_master,
        exact=exact,
        threads=_int(_pick(args.threads, None, study.get("threads"), 1), "threads"),
        moment_p=_int(study.get("moment_p", 2), "moment_p"),
    )


def _out_dir(cfg: dict, args) -> Path:
    output = cfg.get("output", {})
    chosen = _pick(args.out, os.environ.get("SPDE_OUT"), output.get("dir"), ".")
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _prefix(cfg: dict) -> str:
    return str(cfg.get("output", {}).get("prefix", "spde1d"))


# ---------------------------------------------------------------------------
# subcommands

def cmd_heat_errors(cfg: dict, args) -> int:
    study = cfg.get("study", {})
    model_section = cfg.get("model", {})
    T = _number(model_section.get("T", 1.0), "model.T")
    nu = _number(model_section.get("nu", 1.0), "model.nu")
    tol = _number(study.get("sandwich_tol", 1e-12), "study.sandwich_tol")
    if not (tol >= 0 and np.isfinite(tol)):
        raise ConfigError(f"study.sandwich_tol must be finite and >= 0, got {tol!r}")
    reports, text = heat_errors.error_table(_grid(study, "m_grid"), _grid(study, "n_grid"),
                                            T, nu)
    out = _out_dir(cfg, args) / f"{_prefix(cfg)}_heat_errors.csv"
    experiments.write_text_atomic(out, text)

    violations = [r for r in reports if not r.sandwiched(tol)]
    if violations:
        for r in violations:
            print(f"sandwich violated (tol={tol:g}): kind={r.kind} M={r.M} N={r.N} "
                  f"lower={r.lower!r} exact={r.exact!r} upper={r.upper!r}",
                  file=sys.stderr)
        return EXIT_SANDWICH
    print(f"wrote {out} ({len(reports)} rows, all sandwiched at tol={tol:g})")
    return EXIT_OK


def cmd_simulate(cfg: dict, args) -> int:
    disc_section = cfg.get("discretization", {})
    study = cfg.get("study", {})
    M = _int(disc_section.get("M", 64), "M")
    N = _int(disc_section.get("N", 64), "N")
    d = scheme.DiscretizationParams(
        M=M, N=N,
        gamma=_number(disc_section.get("gamma", scheme.DEFAULT_GAMMA), "discretization.gamma"),
        chi=_number(disc_section.get("chi", scheme.DEFAULT_CHI), "discretization.chi"),
    )
    model = _build_model(cfg, n_xi=max(N, 512))
    seed = _int(_pick(args.seed, _env_int("SPDE_SEED"), study.get("seed"), 0), "seed", 0)
    m_master = _int(study.get("M_master", 0), "M_master", 0) or M
    n_master = _int(study.get("N_master", 0), "N_master", 0) or N
    tape = NoiseTape(seed=seed, M_master=m_master, N_master=n_master,
                     T=model.T, path=_int(study.get("path", 0), "path", 0))
    Y, O = scheme.simulate_trajectory(model, d, tape)
    out = _out_dir(cfg, args) / f"{_prefix(cfg)}_trajectory.csv"
    experiments.write_text_atomic(out, scheme.trajectory_csv(model, d, Y, O))
    print(f"wrote {out} ({len(Y)} grid times x {N} modes)")
    return EXIT_OK


def cmd_converge(cfg: dict, args) -> int:
    study_cfg = _build_study(cfg, args)
    rows, fits = experiments.run_convergence_study(study_cfg)
    out_dir = _out_dir(cfg, args)
    csv_path = out_dir / f"{_prefix(cfg)}_errors.csv"
    json_path = out_dir / f"{_prefix(cfg)}_rates.json"
    experiments.write_text_atomic(csv_path, experiments.error_table_csv(rows))
    experiments.write_text_atomic(json_path, experiments.fits_json(fits))
    print(f"wrote {csv_path} and {json_path}")
    print(f"temporal slope {fits['temporal'].slope:+.4f}, "
          f"spatial slope {fits['spatial'].slope:+.4f}")
    return EXIT_OK


def cmd_check(cfg: dict, args) -> int:
    study = cfg.get("study", {})
    trials = _int(study.get("audit_trials", 300), "audit_trials")
    seed = _int(_pick(args.seed, _env_int("SPDE_SEED"), study.get("seed"), 0), "seed", 0)

    results = []
    for name in ("monotonicity", "lipschitz", "coercivity"):
        residual = nonlinearity.run_inequality_audit(name, trials=trials, seed=seed)
        results.append((f"drift-{name}", residual <= AUDIT_TOL,
                        f"max_residual={residual:.3e} tol={AUDIT_TOL:g} trials={trials}"))

    hs_violations = heat_errors.run_hs_monotonicity_audit(trials=max(trials // 2, 50),
                                                          seed=seed)
    results.append(("hs-factor-monotonicity", hs_violations == 0,
                    f"violations={hs_violations}"))

    m_values = [1, 2, 4, 8, 16, 32, 64]
    temporal = [heat_errors.temporal_error_exact(M, 32, 1.0, 1.0) for M in m_values]
    ok_t = all(b <= a * (1 + 1e-12) for a, b in zip(temporal, temporal[1:]))
    results.append(("temporal-error-monotone-in-M", ok_t,
                    f"values M=1..64: {temporal[0]:.6f} -> {temporal[-1]:.6f}"))

    spatial = [heat_errors.spatial_error_exact(N, 1.0, 1.0) for N in range(1, 65)]
    ok_s = all(b < a for a, b in zip(spatial, spatial[1:]))
    results.append(("spatial-error-decreasing-in-N", ok_s,
                    f"values N=1..64: {spatial[0]:.6f} -> {spatial[-1]:.6f}"))

    failed = False
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name:32s} {detail}")
        failed = failed or not ok
    return EXIT_AUDIT if failed else EXIT_OK


# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spde1d",
        description="Spectral exponential Euler solver and exact error engine "
                    "for 1-D stochastic reaction-diffusion equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text in (
        ("heat-errors", cmd_heat_errors,
         "exact linear errors with lower/upper bounds over an (M, N) grid"),
        ("simulate", cmd_simulate, "dump one scheme trajectory as CSV"),
        ("converge", cmd_converge, "Monte Carlo convergence study with rate fits"),
        ("check", cmd_check, "run inequality and monotonicity audits"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=fn)
        p.add_argument("--config", metavar="PATH", help="JSON configuration file")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--seed", type=int, metavar="U64", help="master seed override")
        p.add_argument("--paths", type=int, metavar="U32", help="Monte Carlo path count")
        p.add_argument("--threads", type=int, metavar="U32",
                       help="worker process cap (default 1)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args.config, args.command)
        return args.handler(cfg, args)
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
