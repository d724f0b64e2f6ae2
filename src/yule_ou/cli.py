"""Command-line surface: simulate | stat | test | mc | spde | theory.

Every subcommand accepts --config FILE (a flat JSON document whose keys
are flag names); explicit flags override file values, unknown keys are
rejected, and the effective configuration is echoed into each output
artifact (a `# config:` header line in CSV files, a "config" key in JSON
output).  A command returns its outputs as {path: text}, None or "-"
meaning stdout, and `main` writes them only once the command succeeds; an
unwritable --out, --jsonl or --csv path exits 1 before any work starts.
Exit codes: 0 success, 1 runtime error, and 2 for a configuration or
domain error: an invalid or non-finite input, a non-finite result, an
arithmetic overflow or an allocation the machine cannot make.
"""

import argparse
import io
import json
import math
import os
import sys

import numpy as np

from . import hypothesis as hyp
from . import mc, sde, theory
from .errors import ParameterError, YuleOuError, check_level
from .estimators import PathPair, yule_rho
from .sde import CorrelatedPairConfig, SamplePath


class ConfigError(Exception):
    """Invalid or missing configuration."""


def _parse_float_list(text):
    """A comma list of numbers; an empty item is refused, not skipped."""
    try:
        return tuple(map(float, text.split(",")))
    except ValueError as exc:
        raise ConfigError(f"cannot parse number list {text!r}: {exc}")


def _merge_config(args, parser):
    """Overlay config-file values under explicitly passed flags; each value
    is converted and checked as the flag's command-line text would be."""
    if not args.config:
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except ValueError as exc:  # an integer too long to convert is no JSONDecodeError
        raise ConfigError(f"config file is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise ConfigError("config file must hold a single JSON object")
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in subparsers.choices[args.command]._actions}
    for key, value in payload.items():
        dest = key.replace("-", "_")
        if dest not in vars(args):
            raise ConfigError(f"unknown config key {key!r}")
        if getattr(args, dest) is not None:  # flags override file values
            continue
        setattr(args, dest, _config_value(key, value, actions[dest]))


def _config_value(key, value, action):
    """A config value as its flag's text gives it: a string or a number, true or
    false for an on/off flag, and also a list of numbers for a number list."""
    if action.const is not None:  # an on/off flag
        if not isinstance(value, bool):
            raise ConfigError(f"config key {key!r}: {value!r} is not true or false")
        return value
    if (isinstance(value, list) and action.dest in ("thetas", "rs", "Ts") and value
            and all(type(v) in (int, float) for v in value)):  # a bool is no number here
        value = ",".join(map(str, value))
    if type(value) not in (str, int, float):  # a bool, null, list or object
        raise ConfigError(f"config key {key!r}: invalid value {value!r}")
    try:
        value = str(value) if action.type is None else action.type(str(value))
    except ValueError:
        raise ConfigError(f"config key {key!r}: invalid value {value!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
    return value


def _require(args, *names):
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        flags = ", ".join(f"--{n}" for n in missing)
        raise ConfigError(f"missing required flag(s): {flags}")


def _apply_defaults(args, **defaults):
    for dest, value in defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _csv_text(echo, write):
    """What write(fileobj) writes, under a `# config:` line of the given values."""
    buf = io.StringIO()
    given = {k: v for k, v in echo.items() if v is not None}
    buf.write(f"# config: {json.dumps(given, sort_keys=True)}\n")
    write(buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args):
    _require(args, "theta", "r", "T", "dt", "seed")
    config = CorrelatedPairConfig(theta=args.theta, r=args.r, horizon_T=args.T,
                                  dt=args.dt, seed=args.seed)
    pair = sde.simulate_correlated_pair(config)
    echo = {"command": "simulate", "theta": config.theta, "r": config.r,
            "T": config.horizon_T, "dt": config.dt, "seed": config.seed}
    return {args.out: _csv_text(echo, lambda fh: sde.write_pair_csv(pair, fh))}


def _load_pair(path):
    """Load a `t,x1,x2` CSV as a PathPair on the shared grid."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            t, x1, x2 = sde.read_pair_csv(fh)
    except OSError as exc:
        raise RuntimeError(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise RuntimeError(f"malformed path CSV {path}: {exc}")
    if t.size < 2:
        raise RuntimeError("path CSV must hold at least two rows")
    steps = np.diff(t)
    dt = float(steps[0])
    if dt <= 0 or not np.allclose(steps, dt, rtol=1e-9, atol=1e-12):
        raise RuntimeError("path CSV must be on a uniform increasing grid")
    return PathPair(x1=SamplePath(t0=float(t[0]), dt=dt, values=x1),
                    x2=SamplePath(t0=float(t[0]), dt=dt, values=x2))


def _cmd_stat(args):
    _require(args, "input")
    stats = yule_rho(_load_pair(args.input), pooled_theta=bool(args.pooled_theta))
    payload = stats.to_dict()
    payload["config"] = {"command": "stat", "input": args.input,
                         "pooled_theta": bool(args.pooled_theta)}
    return {args.out: json.dumps(payload, sort_keys=True) + "\n"}


_VARIANT_ALIASES = {"rho": "rho_known_theta", "rho-est": "rho_estimated_theta",
                    "num": "numerator_known_theta"}


def _cmd_test(args):
    _require(args, "variant", "input")
    _apply_defaults(args, alpha=0.05)
    if args.variant != "rho-est":
        _require(args, "theta")
    elif args.theta is not None:
        raise ConfigError("--theta is not read by the rho-est variant, which estimates the rate")
    stats = yule_rho(_load_pair(args.input))
    outcome = hyp.apply_test(stats, _VARIANT_ALIASES[args.variant], args.alpha, args.theta)
    payload = outcome.to_dict()
    payload["config"] = {"command": "test", "variant": args.variant, "alpha": args.alpha,
                         "theta": args.theta, "input": args.input}
    return {args.out: json.dumps(payload, sort_keys=True) + "\n"}


def _cmd_mc(args):
    _require(args, "thetas", "rs", "Ts", "reps", "seed", "statistic")
    _apply_defaults(args, alpha=0.05, jobs=1)
    grid = mc.ExperimentGrid(thetas=_parse_float_list(args.thetas),
                             rs=_parse_float_list(args.rs),
                             horizons=_parse_float_list(args.Ts),
                             replications=args.reps, base_seed=args.seed,
                             statistic=args.statistic, dt_policy=args.dt,
                             alpha=args.alpha)
    reports = mc.run_grid(grid, jobs=args.jobs)
    echo = {"command": "mc", "thetas": list(grid.thetas), "rs": list(grid.rs),
            "Ts": list(grid.horizons), "reps": grid.replications, "seed": grid.base_seed,
            "statistic": grid.statistic, "alpha": grid.alpha, "dt": args.dt}
    outputs = {args.out: _csv_text(echo, lambda fh: mc.write_reports_csv(fh, reports))}
    if args.jsonl:
        outputs[args.jsonl] = "".join(json.dumps(rep.to_dict(), sort_keys=True) + "\n" for rep in reports)
    return outputs


def _cmd_spde(args):
    _require(args, "N", "r", "T", "reps", "seed")
    _apply_defaults(args, alpha=0.05, variant="rho", jobs=1)
    n_modes, alpha, sidak = args.N, args.alpha, bool(args.sidak)
    variant = _VARIANT_ALIASES[args.variant]
    check_level(alpha)  # before simulating any mode
    level = hyp.sidak_level(alpha, n_modes) if sidak else alpha
    samples = mc.spde_mode_samples(n_modes, args.r, args.T, replications=args.reps,
                                   base_seed=args.seed, jobs=args.jobs)
    outcomes, family = mc.spde_family_rejections(samples, level, variant)
    rate, lo, hi = mc.error_rates(family)
    echo = {"command": "spde", "N": n_modes, "r": args.r, "T": args.T,
            "reps": args.reps, "seed": args.seed, "alpha": alpha,
            "variant": variant, "sidak": sidak}
    payload = {"config": echo, "family_reject_rate": rate, "ci_lo": lo, "ci_hi": hi,
               "per_mode": [{"k": k, "theta": s.theta, "reject_rate": float(out.reject.mean())}
                            for k, (s, out) in enumerate(zip(samples, outcomes), 1)]}
    outputs = {args.out: json.dumps(payload, sort_keys=True) + "\n"}
    if args.csv:
        columns = [(s.theta, args.r, args.T, out) for s, out in zip(samples, outcomes)]
        outputs[args.csv] = _csv_text(echo, lambda fh: hyp.write_outcomes_csv(fh, columns))
    return outputs


# ---------------------------------------------------------------------------
# theory subcommand registry: name -> (param names, evaluator taking them in
# order); each evaluator validates its own domain, integer orders included
# ---------------------------------------------------------------------------

_THEORY = {
    "c1": (("theta", "r"), lambda theta, r: theory.chaos_constants(theta, r).c1),
    "c2": (("theta", "r"), lambda theta, r: theory.chaos_constants(theta, r).c2),
    "sigma": (("theta", "r"), lambda theta, r: theory.chaos_constants(theta, r).sigma),
    "clt_var_rho": (("theta", "r"), theory.clt_variance_rho),
    "clt_var_rho_delta": (("theta", "r"), theory.clt_variance_rho_delta),
    "cumulant_bounds": (("theta", "r"),
                        lambda theta, r: list(theory.cumulant_bound_constants(theta, r))),
    "delta_inner": (("p", "theta"), theory.delta_convolution_inner),
    "asymptotic_cumulant": (("p", "theta", "r", "T"), theory.asymptotic_cumulant),
    "second_moment_Ar": (("theta", "r", "T"), theory.exact_second_moment_Ar),
    "h_norm": (("theta", "r", "T"), theory.kernel_h_norm),
    "h_norm_limit": (("theta", "r"), theory.kernel_h_norm_limit),
    "g_norm": (("theta", "r", "T"), theory.kernel_g_norm),
    "eta": (("theta", "r"), theory.eta_constant),
    "edgeworth_tail": (("z", "theta", "r", "T"), theory.edgeworth_tail),
    "edgeworth_kol_bound": (("theta", "r", "T"), theory.edgeworth_kolmogorov_bound),
    "major_tail_bound": (("n", "norm", "x", "prefactor"), theory.major_tail_bound),
    "wasserstein_scale_bound": (("sigma_scale",), theory.wasserstein_scale_bound),
    "denominator_lp_bound": (("p", "theta"), theory.denominator_lp_bound),
    "ou_covariance": (("theta", "s", "t"), sde.ou_covariance),
    "mean_functional_variance": (("theta", "T"), sde.mean_functional_variance),
    "type2_bound_rho": (("theta", "r", "alpha", "T", "berry"), hyp.type2_bound_rho),
    "type2_bound_numerator": (("theta", "r", "alpha", "T", "berry"),
                              hyp.type2_bound_numerator),
}


def _cmd_theory(args):
    _require(args, "quantity")
    name = str(args.quantity)
    if name not in _THEORY:
        known = ", ".join(sorted(_THEORY))
        raise ConfigError(f"unknown quantity {name!r}; known: {known}")
    needed, fn = _THEORY[name]
    _require(args, *needed)
    params = {key: float(getattr(args, key)) for key in needed}
    if not all(map(math.isfinite, params.values())):
        raise ParameterError(f"every parameter must be finite, got {params}")
    value = fn(*params.values())
    if not np.all(np.isfinite(value)):
        raise ParameterError(f"{name} is not a finite number here: {value}")
    payload = {"quantity": name, "params": params, "value": value}
    return {args.out: json.dumps(payload, sort_keys=True) + "\n"}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--out", help="output path ('-' for stdout, the default)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="yule-ou",
        description="Simulation and independence testing for coupled "
                    "mean-reverting paths.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="simulate one correlated pair to CSV")
    _add_common(p)
    p.add_argument("--theta", type=float, help="mean-reversion rate (> 0)")
    p.add_argument("--r", type=float, help="driving-noise correlation in [-1, 1]")
    p.add_argument("--T", type=float, help="time horizon")
    p.add_argument("--dt", type=float, help="grid step (must divide T)")
    p.add_argument("--seed", type=int, help="64-bit experiment seed")

    p = subs.add_parser("stat", help="compute pair statistics from a path CSV")
    _add_common(p)
    p.add_argument("--input", help="pair CSV with header t,x1,x2")
    p.add_argument("--pooled-theta", action="store_const", const=True, default=None,
                   dest="pooled_theta", help="average the two marginal rate estimates")

    p = subs.add_parser("test", help="run one independence test on a path CSV")
    _add_common(p)
    p.add_argument("--variant", choices=tuple(_VARIANT_ALIASES))
    p.add_argument("--alpha", type=float, help="significance level (default 0.05)")
    p.add_argument("--theta", type=float, help="known rate (rho and num variants)")
    p.add_argument("--input", help="pair CSV with header t,x1,x2")

    p = subs.add_parser("mc", help="run a Monte Carlo experiment grid")
    _add_common(p)
    p.add_argument("--thetas", help="comma list of rates")
    p.add_argument("--rs", help="comma list of correlations")
    p.add_argument("--Ts", "--T", dest="Ts", help="comma list of horizons")
    p.add_argument("--reps", type=int, help="replications per cell")
    p.add_argument("--seed", type=int, help="base seed")
    p.add_argument("--statistic", choices=mc.STATISTICS)
    p.add_argument("--alpha", type=float, help="test level for reject_rate (default 0.05)")
    p.add_argument("--dt", type=float, help="fixed step (default: step-cap rule)")
    p.add_argument("--jobs", type=int,
                   help="worker threads for a cell's blocks (default 1; any value "
                        "gives the same bytes)")
    p.add_argument("--jsonl", help="also mirror reports to this JSON-lines file")

    p = subs.add_parser("spde", help="multi-mode field independence experiment")
    _add_common(p)
    p.add_argument("--N", type=int, help="number of modes")
    p.add_argument("--r", type=float, help="common correlation")
    p.add_argument("--T", type=float, help="time horizon")
    p.add_argument("--reps", type=int, help="replications")
    p.add_argument("--seed", type=int, help="base seed")
    p.add_argument("--alpha", type=float, help="per-mode level (default 0.05)")
    p.add_argument("--variant", choices=tuple(_VARIANT_ALIASES))
    p.add_argument("--sidak", action="store_const", const=True, default=None,
                   help="correct the per-mode level for the family rate")
    p.add_argument("--jobs", type=int,
                   help="worker threads for each mode's blocks (default 1; "
                        "any value gives the same bytes)")
    p.add_argument("--csv", help="write per-replication outcome rows to this CSV")

    p = subs.add_parser("theory", help="print one closed-form constant as JSON")
    _add_common(p)
    p.add_argument("--quantity", help="constant name (see docs)")
    for flag in ("theta", "r", "T", "p", "z", "x", "n", "norm", "prefactor",
                 "sigma-scale", "s", "t", "alpha", "berry"):
        p.add_argument(f"--{flag}", type=float, dest=flag.replace("-", "_"))

    return parser


_DISPATCH = {"simulate": _cmd_simulate, "stat": _cmd_stat, "test": _cmd_test,
             "mc": _cmd_mc, "spde": _cmd_spde, "theory": _cmd_theory}


def _check_outputs(args):
    """Refuse an output path named twice or not writable as a file; create no file.
    An omitted --out is stdout, so it collides with `--jsonl -` or `--csv -`."""
    paths = ["-" if args.out is None else args.out]
    paths += [path for path in map(vars(args).get, ("jsonl", "csv")) if path is not None]
    if len(set(paths)) < len(paths):
        raise ConfigError(f"two outputs name the same path: {paths}")
    for path in paths:
        parent = os.path.dirname(path) or os.curdir
        if path != "-" and (not path or os.path.isdir(path) or not os.path.isdir(parent) or
                            not os.access(path if os.path.exists(path) else parent, os.W_OK)):
            raise RuntimeError(f"cannot write {path!r}: not a writable file path")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args, parser)
        _check_outputs(args)
        outputs = _DISPATCH[args.command](args)
        for path, text in outputs.items():
            if path in (None, "-"):
                sys.stdout.write(text)  # looked up here: callers may redirect it
            else:
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
        return 0
    except (ConfigError, YuleOuError, ArithmeticError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
