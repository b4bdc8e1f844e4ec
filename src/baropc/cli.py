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
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics as diag
from .eos import make_eos
from .linsolve import SolverConfig
from .mesh import build_rect_mesh
from .scheme import SchemeConfig, SchemeError, Stepper, initial_state
from .verification import (SmoothFlowCase, convergence_study, error_norms,
                           initial_exact_state, make_config,
                           write_convergence_csv)


class ConfigError(ValueError):
    pass


_DEFAULTS = {
    "mesh": "20x20",
    "domain": "0,1,-0.5,0.5",
    "dt": 0.025,
    "t_end": 0.5,
    "steps": None,          # overrides t_end when given (stability)
    "mu": 1e-2,
    "eos": "affine",
    "gamma": 1.4,
    "mach": 0.5,
    "convection": "centered",
    "proj_eps": 1e-8,
    "alpha": 1.0,
    "lin_tol": 1e-10,
    "lin_maxit": None,
    "outdir": ".",
    "seed": 0,
    "dt_list": None,        # convergence study
    "mesh_list": None,
}

_INT_KEYS = {"steps", "seed", "lin_maxit"}
_FLOAT_KEYS = {"dt", "t_end", "mu", "gamma", "mach", "proj_eps", "alpha", "lin_tol"}
_POSITIVE = {"dt", "t_end", "mu", "gamma", "mach", "proj_eps", "alpha", "lin_tol"}


@dataclass
class RunConfig:
    command: str
    values: dict = field(default_factory=dict)

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key)


def _parse_value(key, raw, lineno=None):
    where = f" (line {lineno})" if lineno is not None else ""
    if key not in _DEFAULTS:
        raise ConfigError(f"unknown config key '{key}'{where}")
    raw = raw.strip()
    if raw.lower() in ("none", ""):
        return None
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            value = float(raw)
        else:
            value = raw
    except ValueError:
        raise ConfigError(f"malformed value for '{key}'{where}: {raw!r}")
    if key in _POSITIVE:
        if not np.isfinite(value) or value <= 0.0:
            raise ConfigError(f"'{key}' must be positive and finite{where}, got {raw}")
    return value


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
        vals = tuple(float(v) for v in text.split(","))
        assert len(vals) == 4
    except Exception:
        raise ConfigError(f"malformed domain '{text}', expected x0,x1,y0,y1")
    if not (vals[1] > vals[0] and vals[3] > vals[2]):
        raise ConfigError(f"degenerate or inverted domain '{text}'")
    return vals


def parse_config(command, path=None, overrides=None):
    """Merge defaults, a key=value file and flag overrides; flags win."""
    values = dict(_DEFAULTS)
    if path is not None:
        try:
            lines = open(path).read().splitlines()
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}")
        for lineno, line in enumerate(lines, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"malformed line {lineno}: {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            values[key] = _parse_value(key, raw, lineno)
    for key, raw in (overrides or {}).items():
        if raw is None:
            continue
        values[key] = _parse_value(key, str(raw))
    values["mesh"] = _parse_mesh(values["mesh"])
    values["domain"] = _parse_domain(values["domain"])
    if values["convection"] not in ("centered", "upwind"):
        raise ConfigError(f"unknown convection '{values['convection']}'")
    if values["eos"] not in ("affine", "power", "linear"):
        raise ConfigError(f"unknown eos '{values['eos']}'")
    if values["dt_list"] is not None and isinstance(values["dt_list"], str):
        values["dt_list"] = [
            _parse_value("dt", v) for v in values["dt_list"].split(";")]
    if values["mesh_list"] is not None and isinstance(values["mesh_list"], str):
        values["mesh_list"] = [_parse_mesh(v) for v in values["mesh_list"].split(";")]
    return RunConfig(command, values)


def _write_fields_csv(path, mesh, state):
    with open(path, "w") as fh:
        fh.write("kind,x,y,rho,p,u1,u2\n")
        f = lambda v: format(float(v), ".17g")
        for k in range(mesh.ncells):
            x, y = mesh.cell_centroids[k]
            fh.write(f"cell,{f(x)},{f(y)},{f(state.rho[k])},{f(state.p[k])},,\n")
        for e in range(mesh.nedges):
            x, y = mesh.edge_midpoints[e]
            fh.write(f"edge,{f(x)},{f(y)},,,{f(state.u[e,0])},{f(state.u[e,1])}\n")


def _cmd_simulate(cfg):
    if cfg.eos != "affine":
        raise ConfigError("simulate runs the smooth exact-flow problem, "
                          "which is tied to eos = affine")
    nx, ny = cfg.mesh
    case = SmoothFlowCase(gamma=cfg.gamma, mach=cfg.mach, mu=cfg.mu)
    mesh = build_rect_mesh(nx, ny, cfg.domain)
    config = make_config(case, cfg.dt, lin_tol=cfg.lin_tol,
                         proj_eps=cfg.proj_eps, convection=cfg.convection,
                         alpha=cfg.alpha)
    nsteps = int(round(cfg.t_end / cfg.dt))
    state = initial_exact_state(case, mesh)
    stepper = Stepper(mesh, config)
    ledger = diag.EnergyLedger(mesh, config, stepper.stiffness)
    ledger.record_initial(state)
    state = stepper.run(state, nsteps,
                        on_step=lambda n, s, rep: ledger.record_step(n, s, rep.u_tilde))
    # with the manufactured forcing the energy bound does not apply; the
    # ledger is still emitted with empty margins
    os.makedirs(cfg.outdir, exist_ok=True)
    ledger.write_csv(os.path.join(cfg.outdir, "ledger.csv"))
    _write_fields_csv(os.path.join(cfg.outdir, "fields.csv"), mesh, state)
    err_v, err_p = error_norms(mesh, state, case)
    print(f"simulate: {nx}x{ny}, dt={cfg.dt}, t_end={state.t}")
    print(f"errors at t={state.t}: velocity L2 {err_v:.6e}, pressure L2 {err_p:.6e}")
    return 0


def _cmd_convergence(cfg):
    case = SmoothFlowCase(gamma=cfg.gamma, mach=cfg.mach, mu=cfg.mu)
    meshes = cfg.mesh_list or [cfg.mesh]
    dts = cfg.dt_list or [0.1, 0.05, 0.025, 0.0125]
    rows, orders = convergence_study(
        meshes, dts, t_end=cfg.t_end, case=case, domain=cfg.domain,
        lin_tol=cfg.lin_tol, proj_eps=cfg.proj_eps, convection=cfg.convection,
        alpha=cfg.alpha)
    os.makedirs(cfg.outdir, exist_ok=True)
    write_convergence_csv(os.path.join(cfg.outdir, "convergence.csv"), rows)
    for (nx, ny), fitted in orders.items():
        print(f"{nx}x{ny}: temporal order velocity {fitted['velocity']:.3f}, "
              f"pressure {fitted['pressure']:.3f}")
    return 0


def perturbed_initial_state(mesh, eos, seed, rho_amp=0.3, u_max=0.5):
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
        return 1.0 + rho_amp * shape / max(1.0, np.abs(shape).max())

    def u0(x):
        sx, sy, cx, cy = bump(x)
        return u_max * np.column_stack([sx * sy * cy, -sx * sy * cx])

    state = initial_state(mesh, eos, rho0, u0)
    u = state.u.copy()
    u[mesh.boundary_edges] = 0.0
    state.u = u
    return state


def _cmd_stability(cfg):
    nx, ny = cfg.mesh
    mesh = build_rect_mesh(nx, ny, cfg.domain)
    eos = make_eos(cfg.eos, cfg.gamma, cfg.mach)
    config = SchemeConfig(dt=cfg.dt, mu=cfg.mu, eos=eos,
                          convection=cfg.convection, proj_eps=cfg.proj_eps, alpha=cfg.alpha,
                          lin=SolverConfig(rel_tol=cfg.lin_tol, abs_tol=1e-14,
                                           max_iter=cfg.lin_maxit))
    state = perturbed_initial_state(mesh, eos, cfg.seed)
    nsteps = cfg.steps if cfg.steps is not None else int(round(cfg.t_end / cfg.dt))
    stepper = Stepper(mesh, config)
    ledger = diag.EnergyLedger(mesh, config, stepper.stiffness)
    ledger.record_initial(state)
    stepper.run(state, nsteps,
                on_step=lambda n, s, rep: ledger.record_step(n, s, rep.u_tilde))
    ledger.fill_margins()
    os.makedirs(cfg.outdir, exist_ok=True)
    ledger.write_csv(os.path.join(cfg.outdir, "ledger.csv"))
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="baropc",
        description="Pressure-correction solver for 2D compressible barotropic flow")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (("simulate", "run the smooth exact-flow problem"),
                        ("convergence", "time/space convergence study"),
                        ("stability", "zero-forcing energy-bound run")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("-c", "--config", help="key=value config file")
        p.add_argument("--mesh", help="cells, e.g. 20x20")
        p.add_argument("--domain", help="x0,x1,y0,y1")
        p.add_argument("--dt", help="time step")
        p.add_argument("--t-end", dest="t_end", help="final time")
        p.add_argument("--steps", help="number of steps (stability)")
        p.add_argument("--mu", help="viscosity")
        p.add_argument("--eos", help="affine | power | linear")
        p.add_argument("--gamma", help="adiabatic exponent")
        p.add_argument("--mach", help="Mach parameter of the affine law")
        p.add_argument("--convection", help="centered | upwind")
        p.add_argument("--proj-eps", dest="proj_eps", help="projection tolerance")
        p.add_argument("--alpha", help="projection relaxation in (0,1]")
        p.add_argument("--lin-tol", dest="lin_tol", help="linear solver tolerance")
        p.add_argument("--lin-maxit", dest="lin_maxit", help="linear solver iteration cap")
        p.add_argument("--outdir", help="output directory")
        p.add_argument("--seed", help="perturbation seed (stability)")
        p.add_argument("--dt-list", dest="dt_list",
                       help="semicolon-separated dts (convergence)")
        p.add_argument("--mesh-list", dest="mesh_list",
                       help="semicolon-separated meshes (convergence)")
    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "convergence": _cmd_convergence,
    "stability": _cmd_stability,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config")}
    try:
        cfg = parse_config(args.command, args.config, overrides)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except SchemeError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
