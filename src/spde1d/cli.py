"""Command-line front end.

Subcommands:
  heat-errors   exact linear error engine: value + bounds over an (M, N) grid
  simulate      dump one trajectory of the nonlinear scheme
  converge      coupled Monte Carlo convergence study with rate fits
  check         inequality and monotonicity audit suite

Configuration is one JSON file with optional sections "model",
"discretization", "study", "output".  SETTINGS, the one table of the keys
each command reads (section -> key -> (default, parser)), is the contract: a
command rejects any other key, and parses each of its keys once, before it
runs, into a plain dict of values.  Four keys have overrides, resolved flag >
environment > file > default: study.seed (--seed, SPDE_SEED), study.paths
(--paths), study.threads (--threads) and output.dir (--out, SPDE_OUT).

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

AUDIT_TOL = 1e-8


# parsers: (value, "section.key") -> the value a command reads

def _at_least(least: int, most: int = heat_errors.MAX_COUNT):
    return lambda value, name: heat_errors._int_at_least(
        value, f"{name} must be an integer >= {least}", least, most)


_positive, _natural = _at_least(1), _at_least(0)
# a mode count sizes vectors (the initial value, the tape's rows) before any run
_modes, _modes_or_0 = _at_least(1, heat_errors.MAX_MODES), _at_least(0, heat_errors.MAX_MODES)


def _is(kind, what: str):
    def parse(value, name: str):
        if not isinstance(value, kind):
            raise ValueError(f"{name} must be {what}, got {value!r}")
        return value
    return parse


def _list(value, name: str) -> list:
    if not (isinstance(value, list) and value):
        raise ValueError(f"{name} must be a non-empty list, got {value!r}")
    return list(value)


def _int_grid(value, name: str) -> list:
    return [_positive(v, f"{name} entries") for v in _list(value, name)]


def _coefficients(value, name: str) -> list:
    if not (isinstance(value, list) and len(value) == 4):
        raise ValueError(f"{name} must be a list of 4 coefficients, got {value!r}")
    return [_number(c, f"{name} entries") for c in value]


def _initial(value, name: str):
    if isinstance(value, list):
        return [_number(c, f"{name} entries") for c in _list(value, name)]
    return _is(str, "a preset name or a list")(value, name)  # _model expands a preset


def _directory(value, name: str) -> str:
    """A path whose nearest existing part is a directory, so it can be made."""
    path = Path(_is(str, "a path string")(value, name))
    if not next((p for p in (path, *path.parents) if p.exists()), path).is_dir():
        raise ValueError(f"{name} {value!r} is not a directory")
    return value


def _file_prefix(value, name: str) -> str:
    if not (isinstance(value, str) and os.path.basename(value) == value and "\0" not in value):
        raise ValueError(f"{name} must name a file inside output.dir, got {value!r}")
    return value


def _tolerance(value, name: str) -> float:
    tol = _number(value, name)
    if not (tol >= 0 and np.isfinite(tol)):
        raise ValueError(f"{name} must be finite and >= 0, got {tol!r}")
    return tol


# command -> section -> key -> (default, parser): every key a command reads

_MODEL = {"T": (1.0, _number), "nu": (1.0, _number),
          "a": ([0.0, 1.0, 0.0, -1.0], _coefficients), "initial": ("bump", _initial)}
_SCHEME = {"gamma": (scheme.DEFAULT_GAMMA, _number), "chi": (scheme.DEFAULT_CHI, _number)}
_MASTER = {"M_master": (0, _natural), "N_master": (0, _modes_or_0)}  # 0: the run's own M, N
_SEED = {"seed": (0, _natural)}
_OUTPUT = {"dir": (".", _directory), "prefix": ("spde1d", _file_prefix)}
SETTINGS = {
    "heat-errors": {"model": {"T": _MODEL["T"], "nu": _MODEL["nu"]},
                    "study": {"m_grid": ([1, 2, 4, 8, 16, 32, 64], _list),
                              "n_grid": ([1, 2, 4, 8, 16, 32, 64], _list),
                              "sandwich_tol": (1e-12, _tolerance)},
                    "output": _OUTPUT},
    "simulate": {"model": _MODEL,
                 "discretization": {"M": (64, _positive), "N": (64, _modes), **_SCHEME},
                 "study": {**_SEED, "path": (0, _natural), **_MASTER}, "output": _OUTPUT},
    "converge": {"model": _MODEL, "discretization": _SCHEME,
                 "study": {"m_grid": ([16, 32, 64, 128], _int_grid),
                           "n_grid": ([8, 16, 32, 64], _int_grid),
                           "M_ref": (2048, _positive), "N_ref": (128, _modes), **_MASTER,
                           "paths": (200, _positive), **_SEED, "threads": (1, _positive),
                           "exact": (False, _is(bool, "true or false"))},
                 "output": _OUTPUT},
    "check": {"study": {"audit_trials": (300, _positive), **_SEED}},
}


def _env_int(name: str):
    raw = os.environ.get(name)
    try:
        return None if raw is None else int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc


# the keys a flag, then an environment variable, override: key -> (flag, env) values
_OVERRIDES = {
    "seed": lambda args: (args.seed, _env_int("SPDE_SEED")),
    "paths": lambda args: (args.paths,),
    "threads": lambda args: (args.threads,),
    "dir": lambda args: (args.out, os.environ.get("SPDE_OUT")),
}


def _load_config(path: str | None, command: str) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"config root must be an object, got {type(cfg).__name__}")
    for name, section in cfg.items():
        if name not in ("model", "discretization", "study", "output"):
            raise ValueError(f"unknown config section {name!r}")
        if not isinstance(section, dict):
            raise ValueError(f"config section {name!r} must be an object, "
                             f"got {type(section).__name__}")
        unknown = sorted(set(section) - set(SETTINGS[command].get(name, ())))
        if unknown:
            raise ValueError(f"unknown keys in section {name!r} for {command}: {unknown}")
    return cfg


def _resolve(command: str, cfg: dict, args) -> dict:
    """Every key the command reads, parsed: flag > env > file > default."""
    values = {}
    for section, keys in SETTINGS[command].items():
        given = cfg.get(section, {})
        for key, (default, parse) in keys.items():
            value = given.get(key, default)
            if key in _OVERRIDES:  # here a null in the file means the default
                value = next((v for v in (*_OVERRIDES[key](args), value) if v is not None),
                             default)
            values[key] = parse(value, f"{section}.{key}")
    return values


def _model(v: dict, n_xi: int) -> scheme.ModelParams:
    xi = v["initial"]
    xi = scheme.initial_coefficients(xi, n_xi) if isinstance(xi, str) else np.array(xi)
    return scheme.ModelParams(T=v["T"], nu=v["nu"],
                              a=nonlinearity.CubicCoefficients(*v["a"]), xi=xi)


def _write(v: dict, suffix: str, text: str) -> Path:
    """Write <dir>/<prefix>_<suffix>; a path the OS refuses is a configuration error."""
    out = Path(v["dir"]) / f"{v['prefix']}_{suffix}"
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        experiments.write_text_atomic(out, text)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc
    return out


# ---------------------------------------------------------------------------
# subcommands: each takes the resolved values of its SETTINGS entry

def cmd_heat_errors(v: dict) -> int:
    tol = v["sandwich_tol"]
    reports, text = heat_errors.error_table(v["m_grid"], v["n_grid"], v["T"], v["nu"])
    out = _write(v, "heat_errors.csv", text)

    violations = [r for r in reports if not r.sandwiched(tol)]
    if violations:
        for r in violations:
            print(f"sandwich violated (tol={tol:g}): kind={r.kind} M={r.M} N={r.N} "
                  f"lower={r.lower!r} exact={r.exact!r} upper={r.upper!r}",
                  file=sys.stderr)
        return EXIT_SANDWICH
    print(f"wrote {out} ({len(reports)} rows, all sandwiched at tol={tol:g})")
    return EXIT_OK


def cmd_simulate(v: dict) -> int:
    M, N = v["M"], v["N"]
    M_master, N_master = v["M_master"] or M, v["N_master"] or N
    # bounds the tape's raw block, the increments, Y and O
    heat_errors._check_values(float(M_master + 1) * N_master, f"simulate at M={M}, N={N}")
    d = scheme.DiscretizationParams(M=M, N=N, gamma=v["gamma"], chi=v["chi"])
    model = _model(v, n_xi=max(N, 512))
    tape = NoiseTape(seed=v["seed"], M_master=M_master, N_master=N_master, T=model.T,
                     path=v["path"])
    Y, O = scheme.simulate_trajectory(model, d, tape)
    out = _write(v, "trajectory.csv", scheme.trajectory_csv(model, d, Y, O))
    print(f"wrote {out} ({len(Y)} grid times x {N} modes)")
    return EXIT_OK


def cmd_converge(v: dict) -> int:
    study_cfg = experiments.StudyConfig(
        model=_model(v, n_xi=max(v["N_master"] or v["N_ref"], 512)),
        m_grid=v["m_grid"], n_grid=v["n_grid"], m_ref=v["M_ref"], n_ref=v["N_ref"],
        paths=v["paths"], seed=v["seed"], gamma=v["gamma"], chi=v["chi"],
        m_master=v["M_master"], n_master=v["N_master"], exact=v["exact"],
        threads=v["threads"],
    )
    rows, fits = experiments.run_convergence_study(study_cfg)
    csv_path = _write(v, "errors.csv", experiments.error_table_csv(rows))
    json_path = _write(v, "rates.json", experiments.fits_json(fits))
    print(f"wrote {csv_path} and {json_path}")
    print(f"temporal slope {fits['temporal'].slope:+.4f}, "
          f"spatial slope {fits['spatial'].slope:+.4f}")
    return EXIT_OK


def cmd_check(v: dict) -> int:
    trials, seed = v["audit_trials"], v["seed"]

    results = []
    for name in ("monotonicity", "lipschitz", "coercivity"):
        residual = nonlinearity.run_inequality_audit(name, trials=trials, seed=seed)
        results.append((f"drift-{name}", residual <= AUDIT_TOL,
                        f"max_residual={residual:.3e} tol={AUDIT_TOL:g} trials={trials}"))

    hs_violations = heat_errors.run_hs_monotonicity_audit(trials=max(trials // 2, 50),
                                                          seed=seed)
    results.append(("hs-factor-monotonicity", hs_violations == 0,
                    f"violations={hs_violations}"))

    temporal = [heat_errors.temporal_error_exact(M, 32, 1.0, 1.0)
                for M in (1, 2, 4, 8, 16, 32, 64)]
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
        return args.handler(_resolve(args.command, cfg, args))
    except (ValueError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
