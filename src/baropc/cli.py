"""Command-line front end: config parsing, run orchestration, CSV output.

Three subcommands:

  simulate     advance the smooth exact-flow problem and dump the energy
               ledger plus the final fields
  convergence  run the (mesh, dt) study and print fitted orders
  stability    zero-forcing perturbed run; exit 0 iff the per-step energy
               bound holds

Configs are flat key=value files; any command-line flag overrides the
file value.  Exit codes: 0 success, 1 numerical failure, 2 usage error.
"""

import argparse
import os
import sys

import numpy as np

from . import diagnostics as diag
from . import operators as ops
from .eos import make_eos
from .linsolve import SolverConfig
from .mesh import build_rect_mesh
from .scheme import SchemeConfig, SchemeError, Stepper, initial_state
from .verification import (SmoothFlowCase, convergence_study, error_norms,
                           initial_exact_state, make_config, step_count,
                           write_convergence_csv)

RHO_AMP, U_MAX = 0.3, 0.5     # perturbed start: relative density bump and peak speed


class ConfigError(ValueError):
    pass


class _OutOfRange(ValueError):
    pass


def _number(sign, kind=float):
    """Parser of a finite `kind` number that is "positive" (> 0) or "nonnegative" (>= 0)."""
    def parse(raw):
        value = kind(raw)
        if not 0.0 <= value < np.inf or (value == 0.0 and sign == "positive"):
            raise _OutOfRange(sign)
        return value
    return parse


def _optional(parse):
    return lambda raw: None if raw.lower() in ("none", "") else parse(raw)


def _list(parse):
    return _optional(lambda raw: [parse(v) for v in raw.split(";")])


def _choice(key, *names):
    def parse(raw):
        if raw not in names:
            raise ConfigError(f"unknown {key} '{raw}'")
        return raw
    return parse


def _parse_mesh(text):
    try:
        nx, ny = text.lower().split("x")
        nx, ny = int(nx), int(ny)
    except Exception:
        raise ConfigError(f"malformed mesh '{text}', expected like 20x20")
    if nx < 1 or ny < 1:
        raise ConfigError(f"mesh cell counts must be >= 1, got {text}")
    return nx, ny


def _parse_domain(text):
    try:
        x0, x1, y0, y1 = vals = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"malformed domain '{text}', expected x0,x1,y0,y1")
    if not (0.0 < x1 - x0 < np.inf and 0.0 < y1 - y0 < np.inf):
        raise ConfigError(f"degenerate, inverted or unbounded domain '{text}'")
    return vals


# key -> (parser of the raw text, default text, flag help); the flag of
# each key is its name with "-" for "_"
_KEYS = {
    "mesh": (_parse_mesh, "20x20", "cells, e.g. 20x20"),
    "domain": (_parse_domain, "0,1,-0.5,0.5", "x0,x1,y0,y1"),
    "dt": (_number("positive"), "0.025", "time step"),
    "t_end": (_number("positive"), "0.5", "final time"),
    "steps": (_optional(_number("positive", int)), "none", "number of steps (stability)"),
    "mu": (_number("nonnegative"), "1e-2", "viscosity"),
    "eos": (_choice("eos", "affine", "power", "linear"), "affine", "affine | power | linear"),
    "gamma": (_number("positive"), "1.4", "adiabatic exponent"),
    "mach": (_number("positive"), "0.5", "Mach parameter of the affine law"),
    "convection": (_choice("convection", "centered", "upwind"), "centered", "centered | upwind"),
    "proj_eps": (_number("positive"), "1e-8", "projection tolerance"),
    "alpha": (_number("positive"), "1.0", "projection relaxation in (0,1]"),
    "lin_tol": (_number("positive"), "1e-10", "linear solver tolerance"),
    "lin_maxit": (_optional(_number("positive", int)), "none", "linear solver iteration cap"),
    "outdir": (str, ".", "output directory"),
    "seed": (_number("nonnegative", int), "0", "perturbation seed (stability)"),
    "dt_list": (_list(_number("positive")), "none", "semicolon-separated dts (convergence)"),
    "mesh_list": (_list(_parse_mesh), "none", "semicolon-separated meshes (convergence)"),
}


def _parse_value(key, raw, where):
    try:
        return _KEYS[key][0](raw)
    except _OutOfRange as err:
        raise ConfigError(f"'{key}' must be {err} and finite{where}, got {raw}")
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"malformed value for '{key}'{where}: {raw!r}")


def parse_config(command, path=None, overrides=None):
    """Merge defaults, a key=value file and flag overrides (flags win), then
    parse the text each key ends with by its parser in `_KEYS`."""
    raw = {key: (text, "") for key, (_, text, _) in _KEYS.items()}
    entries = []
    if path is not None:
        try:
            with open(path) as fh:
                lines = fh.read().splitlines()
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}")
        for lineno, line in enumerate(lines, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"malformed line {lineno}: {line!r}")
            key, text = line.split("=", 1)
            entries.append((key.strip(), text, f" (line {lineno})"))
    entries += [(key, str(text), "") for key, text in (overrides or {}).items()
                if text is not None]
    for key, text, where in entries:
        if key not in _KEYS:
            raise ConfigError(f"unknown config key '{key}'{where}")
        raw[key] = (text.strip(), where)
    return argparse.Namespace(
        command=command, **{key: _parse_value(key, *raw[key]) for key in _KEYS})


_ROWS = 4096        # rows per formatted block: bounds the temporary Python objects


def _formatted(column):
    """The "%.17g" text of each value as shared references, formatted once per
    distinct bit pattern (not per value: 0.0 and -0.0 print differently)."""
    bits, rows = np.unique(column.view(np.int64), return_inverse=True)
    return np.array(["%.17g" % v for v in bits.view(np.float64)], dtype=object)[rows]


def _write_fields_csv(path, mesh, state):
    with open(path, "w") as fh:
        fh.write("kind,x,y,rho,p,u1,u2\n")
        for row, points, values in (
                ("cell,%s,%s,%.17g,%.17g,,\n", mesh.cell_centroids,
                 np.column_stack([state.rho, state.p])),
                ("edge,%s,%s,,,%.17g,%.17g\n", mesh.edge_midpoints, state.u)):
            x, y = _formatted(points[:, 0]), _formatted(points[:, 1])
            for i in range(0, len(values), _ROWS):
                block = np.column_stack([x[i:i + _ROWS], y[i:i + _ROWS], values[i:i + _ROWS]])
                fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _checked(fn, *args, **kwargs):
    """fn(*args, **kwargs), with the ValueError of a bad input raised as a ConfigError."""
    try:
        return fn(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(str(err))


def _settings(cfg):
    """The scheme settings of the config that every subcommand passes on."""
    return dict(lin=SolverConfig(rel_tol=cfg.lin_tol, max_iter=cfg.lin_maxit),
                proj_eps=cfg.proj_eps, convection=cfg.convection, alpha=cfg.alpha)


def _smooth_case(cfg):
    """The smooth exact-flow case of the config; it holds for the affine law only."""
    if cfg.eos != "affine":
        raise ConfigError(f"{cfg.command} runs the smooth exact-flow problem, "
                          "which is tied to eos = affine")
    return _checked(SmoothFlowCase, gamma=cfg.gamma, mach=cfg.mach, mu=cfg.mu)


def _advance_with_ledger(mesh, config, state, nsteps, outdir):
    """Advance `nsteps` steps and write the energy ledger to `outdir`.

    The energy bound applies to unforced runs only; under a forcing the
    ledger is still written, with empty margins.
    """
    stepper = Stepper(mesh, config)
    ledger = diag.EnergyLedger(mesh, config, stepper.stiffness)
    ledger.record_initial(state)
    state = stepper.run(state, nsteps,
                        on_step=lambda n, s, rep: ledger.record_step(n, s, rep.u_tilde))
    if config.forcing_rhs is None:
        ledger.fill_margins()
    os.makedirs(outdir, exist_ok=True)
    ledger.write_csv(os.path.join(outdir, "ledger.csv"))
    return state, ledger


def _cmd_simulate(cfg):
    case = _smooth_case(cfg)
    nx, ny = cfg.mesh
    mesh = build_rect_mesh(nx, ny, cfg.domain)
    config = make_config(case, cfg.dt, **_settings(cfg))
    state, _ = _advance_with_ledger(mesh, config, initial_exact_state(case, mesh),
                                    _checked(step_count, cfg.t_end, cfg.dt), cfg.outdir)
    _write_fields_csv(os.path.join(cfg.outdir, "fields.csv"), mesh, state)
    err_v, err_p = error_norms(mesh, state, case)
    print(f"simulate: {nx}x{ny}, dt={cfg.dt}, t_end={state.t}")
    print(f"errors at t={state.t}: velocity L2 {err_v:.6e}, pressure L2 {err_p:.6e}")
    return 0


def _cmd_convergence(cfg):
    case = _smooth_case(cfg)
    meshes = cfg.mesh_list or [cfg.mesh]
    dts = cfg.dt_list or [0.1, 0.05, 0.025, 0.0125]
    for dt in dts:
        _checked(step_count, cfg.t_end, dt)
    rows, orders = _checked(convergence_study, meshes, dts, t_end=cfg.t_end, case=case,
                            domain=cfg.domain, **_settings(cfg))
    os.makedirs(cfg.outdir, exist_ok=True)
    write_convergence_csv(os.path.join(cfg.outdir, "convergence.csv"), rows)
    for (nx, ny), fitted in orders.items():
        print(f"{nx}x{ny}: temporal order velocity {fitted['velocity']:.3f}, "
              f"pressure {fitted['pressure']:.3f}")
    return 0


def perturbed_initial_state(mesh, eos, seed):
    """Seeded smooth perturbation around rest, zero on the boundary."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=4)
    x0, x1, y0, y1 = mesh.domain
    lx, ly = x1 - x0, y1 - y0

    def bump(x):
        sx = np.sin(np.pi * (x[:, 0] - x0) / lx)
        sy = np.sin(np.pi * (x[:, 1] - y0) / ly)
        cx = np.cos(np.pi * (x[:, 0] - x0) / lx)
        cy = np.cos(np.pi * (x[:, 1] - y0) / ly)
        return sx, sy, cx, cy

    def rho0(x):
        sx, sy, cx, cy = bump(x)
        shape = a[0] * sx * sy + a[1] * sx * cy + a[2] * cx * sy + a[3] * cx * cy
        return 1.0 + RHO_AMP * shape / max(1.0, np.abs(shape).max())

    def u0(x):
        sx, sy, cx, cy = bump(x)
        return U_MAX * np.column_stack([sx * sy * cy, -sx * sy * cx])

    state = initial_state(mesh, eos, rho0(mesh.cell_centroids), ops.edge_mean(mesh, u0))
    u = state.u.copy()
    u[mesh.boundary_edges] = 0.0
    state.u = u
    return state


def _cmd_stability(cfg):
    eos = _checked(make_eos, cfg.eos, cfg.gamma, cfg.mach)
    nsteps = cfg.steps if cfg.steps is not None else _checked(step_count, cfg.t_end, cfg.dt)
    config = SchemeConfig(dt=cfg.dt, mu=cfg.mu, eos=eos, **_settings(cfg))
    mesh = build_rect_mesh(*cfg.mesh, cfg.domain)
    _, ledger = _advance_with_ledger(mesh, config, perturbed_initial_state(mesh, eos, cfg.seed),
                                     nsteps, cfg.outdir)
    ok, worst, step = diag.energy_bound_check(ledger)
    _, worst_dec, step_dec = diag.energy_decrement_check(ledger)
    print(f"stability: {nsteps} steps, dt={cfg.dt}, eos={cfg.eos}; "
          f"worst relative margin {worst:.3e} at step {step}; "
          f"worst per-step decrement margin {worst_dec:.3e} at step {step_dec}")
    if not ok:
        print("energy bound VIOLATED", file=sys.stderr)
        return 1
    print("energy bound holds at every step")
    return 0


_COMMANDS = {
    "simulate": (_cmd_simulate, "run the smooth exact-flow problem"),
    "convergence": (_cmd_convergence, "time/space convergence study"),
    "stability": (_cmd_stability, "zero-forcing energy-bound run"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="baropc",
        description="Pressure-correction solver for 2D compressible barotropic flow")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("-c", "--config", help="key=value config file")
        for key, (_, _, flag_help) in _KEYS.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=flag_help)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in _KEYS}
    try:
        return _COMMANDS[args.command][0](parse_config(args.command, args.config, overrides))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except SchemeError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
