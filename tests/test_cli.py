import argparse
import re
from types import SimpleNamespace

import numpy as np
import pytest

from baropc import operators as ops
from baropc import cli
from baropc import verification as ver
from baropc.cli import ConfigError, build_parser, main, parse_config, perturbed_initial_state
from baropc.eos import AffineLaw, PowerLaw
from baropc.mesh import build_rect_mesh


def test_parse_minimal_file_fills_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("mesh = 20x20\ndt = 0.025\n")
    cfg = parse_config("simulate", path)
    assert cfg.mesh == (20, 20)
    assert cfg.dt == 0.025
    assert cfg.alpha == 1.0
    assert cfg.proj_eps == 1e-8
    assert cfg.convection == "centered"
    assert cfg.domain == (0.0, 1.0, -0.5, 0.5)


def test_parse_comments_and_blank_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\n\nmesh = 4x3   # trailing\n")
    cfg = parse_config("simulate", path)
    assert cfg.mesh == (4, 3)


def test_negative_dt_names_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("dt = -1\n")
    with pytest.raises(ConfigError, match="'dt'"):
        parse_config("simulate", path)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("viscosity = 0.1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config("simulate", path)


def test_flag_overrides_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("dt = 0.1\nmesh = 8x8\n")
    cfg = parse_config("simulate", path, {"dt": "0.05"})
    assert cfg.dt == 0.05
    assert cfg.mesh == (8, 8)


def test_malformed_values(tmp_path):
    for text, match in [("mesh = twenty\n", "malformed mesh"),
                        ("domain = 0,1\n", "malformed domain"),
                        ("dt = fast\n", "malformed value"),
                        ("eos = stiffened\n", "unknown eos"),
                        ("convection = quick\n", "unknown convection"),
                        ("domain = 1,0,0,1\n", "inverted"),
                        ("domain = 0,inf,0,1\n", "unbounded"),
                        ("domain = 0,1,nan,1\n", "unbounded")]:
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=match):
            parse_config("simulate", path)


def test_parse_lists():
    cfg = parse_config("convergence", overrides={
        "dt_list": "0.1;0.05", "mesh_list": "4x4;8x8"})
    assert cfg.dt_list == [0.1, 0.05]
    assert cfg.mesh_list == [(4, 4), (8, 8)]


# (flag, config key, a valid text that differs from the default)
FLAGS = (("--mesh", "mesh", "4x3"), ("--domain", "domain", "0,2,0,1"),
         ("--dt", "dt", "0.5"), ("--t-end", "t_end", "2"), ("--steps", "steps", "3"),
         ("--mu", "mu", "0.5"), ("--eos", "eos", "power"), ("--gamma", "gamma", "1.6"),
         ("--mach", "mach", "0.1"), ("--convection", "convection", "upwind"),
         ("--proj-eps", "proj_eps", "1e-6"), ("--alpha", "alpha", "0.5"),
         ("--lin-tol", "lin_tol", "1e-8"), ("--lin-maxit", "lin_maxit", "40"),
         ("--outdir", "outdir", "runs"), ("--seed", "seed", "5"),
         ("--dt-list", "dt_list", "0.1;0.05"), ("--mesh-list", "mesh_list", "4x4;8x8"))


def test_flag_set_and_every_key_as_file_line_and_flag(tmp_path):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    expected = {flag for flag, _, _ in FLAGS} | {"-h", "--help", "-c", "--config"}
    assert len(expected) == 18 + 4
    for name in ("simulate", "convergence", "stability"):
        assert {s for a in sub.choices[name]._actions for s in a.option_strings} == expected
    default = parse_config("stability")
    for flag, key, text in FLAGS:
        path = tmp_path / "one.cfg"
        path.write_text(f"{key} = {text}\n")
        from_file = getattr(parse_config("stability", path), key)
        args = parser.parse_args(["stability", flag, text])
        overrides = {k: getattr(args, k) for _, k, _ in FLAGS}
        from_flag = getattr(parse_config("stability", overrides=overrides), key)
        assert from_file == from_flag != getattr(default, key), key


def test_perturbed_state_respects_bounds():
    mesh = build_rect_mesh(10, 10)
    for seed in (0, 1, 7):
        state = perturbed_initial_state(mesh, AffineLaw(), seed)
        assert np.abs(state.rho - 1.0).max() <= 0.3 + 1e-12
        assert state.rho.min() > 0.0
        assert np.abs(state.u).max() <= 0.5 + 1e-12
        np.testing.assert_allclose(state.u[mesh.boundary_edges], 0.0)
    a = perturbed_initial_state(mesh, PowerLaw(1.4), 3)
    b = perturbed_initial_state(mesh, PowerLaw(1.4), 3)
    assert np.array_equal(a.rho, b.rho) and np.array_equal(a.u, b.u)


def test_stability_command_exit_zero(tmp_path, capsys):
    rc = main(["stability", "--mesh", "6x6", "--dt", "0.2", "--steps", "6",
               "--lin-tol", "1e-12", "--proj-eps", "1e-10",
               "--outdir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "energy bound holds" in out
    assert "worst per-step decrement margin" in out
    lines = (tmp_path / "ledger.csv").read_text().splitlines()
    assert lines[0].startswith("step,time,kinetic")
    assert len(lines) == 8


def test_stability_tight_tolerance_at_large_step_exits_zero(tmp_path, capsys):
    # at lin_tol = 1e-12 the CG recurrence residual drifts below the target
    # while the true residual does not; CG must restart there and converge
    rc = main(["stability", "--mesh", "64x64", "--dt", "1.0", "--eos", "power",
               "--steps", "5", "--seed", "0", "--lin-tol", "1e-12",
               "--outdir", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err
    assert "energy bound holds" in capsys.readouterr().out


def test_stability_zero_viscosity_exits_zero(tmp_path, capsys):
    # the energy estimate holds for mu >= 0; only a negative mu is rejected
    rc = main(["stability", "--mesh", "12x12", "--dt", "1.0", "--eos", "power",
               "--mu", "0", "--steps", "5", "--seed", "0", "--outdir", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err
    out = capsys.readouterr().out
    assert "energy bound holds" in out
    assert float(re.search(r"decrement margin (\S+)", out).group(1)) > 0.0
    assert main(["stability", "--mu=-1e-3"]) == 2
    assert "'mu' must be nonnegative" in capsys.readouterr().err


def run_large_step(tmp_path, capsys, dt, eos):
    rc = main(["stability", "--mesh", "12x12", "--dt", dt, "--eos", eos,
               "--steps", "5", "--seed", "0", "--outdir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert rc == 0, err
    assert "energy bound holds" in out
    assert float(re.search(r"decrement margin (\S+)", out).group(1)) >= -1e-10


@pytest.mark.parametrize("eos", ["power", "affine"])
def test_stability_dt_10_exits_zero(tmp_path, capsys, eos):
    # the projection's Newton passes solve for a correction of the mass
    # residual, so the linear tolerance relative to |p| no longer floors it
    run_large_step(tmp_path, capsys, "10", eos)


@pytest.mark.parametrize("eos", ["power", "affine"])
def test_stability_dt_100_exits_zero(tmp_path, capsys, eos):
    # the carried increment q = p - p_tilde keeps the velocity update free of
    # the rounding in a difference of two O(1) pressures
    run_large_step(tmp_path, capsys, "100", eos)


def test_stability_dt_1000_affine_exits_zero(tmp_path, capsys):
    # the pass target follows the mass-balance tolerance, not CG's absolute floor
    run_large_step(tmp_path, capsys, "1000", "affine")


def test_stability_dt_1000_power_exits_zero(tmp_path, capsys):
    # the power law's Newton shift is tiny here; the projection converges only
    # with the constant part of q = p - p_tilde carried as a scalar
    run_large_step(tmp_path, capsys, "1000", "power")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="at mu = 0 on 64x64 the convection-dominated momentum system "
                   "defeats Jacobi-BiCGStab (1000 iterations)")
def test_stability_zero_viscosity_64_exits_zero(tmp_path, capsys):
    rc = main(["stability", "--mesh", "64x64", "--dt", "1.0", "--eos", "power",
               "--mu", "0", "--steps", "4", "--seed", "0", "--lin-maxit", "1000",
               "--outdir", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err


def test_stability_affine_small_viscosity_exits_zero(tmp_path):
    # the momentum Jacobi-BiCGStab breaks down here and must restart
    rc = main(["stability", "--mesh", "12x12", "--dt", "1.0", "--eos", "affine",
               "--mu", "1e-6", "--steps", "5", "--seed", "0", "--outdir", str(tmp_path)])
    assert rc == 0


def test_nonfinite_pressure_solve_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ops, "pressure_preconditioner",
                        lambda mesh, A, shift=None: lambda r: np.full_like(r, np.nan))
    rc = main(["stability", "--mesh", "6x6", "--dt", "0.2", "--steps", "2",
               "--outdir", str(tmp_path)])
    assert rc == 1
    assert "not finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_overflowing_stopping_target_exits_one(tmp_path, capsys):
    """At dt = 1e-160 the norm of the density system's right-hand side
    overflows, so its stopping target is nan: the solve fails before its
    first iteration and says why, instead of running its whole cap."""
    rc = main(["stability", "--mesh", "4x4", "--steps", "2", "--dt", "1e-160",
               "--outdir", str(tmp_path)])
    assert rc == 1
    assert ("numerical failure: density prediction solve failed: stopping target is not finite"
            in capsys.readouterr().err)


def test_stalled_projection_exits_one(tmp_path, capsys):
    # proj_eps below the rounding floor of this run's mass residual (about 2e-11)
    rc = main(["stability", "--mesh", "32x32", "--dt", "10", "--eos", "affine",
               "--proj-eps", "1e-12", "--steps", "4", "--seed", "3", "--outdir", str(tmp_path)])
    assert rc == 1
    assert re.search(r"projection did not converge in 100 iterations "
                     r"\(residual .*, target 1\.000e-12\)", capsys.readouterr().err)


def test_stability_deterministic_output(tmp_path):
    args = ["stability", "--mesh", "5x5", "--dt", "0.1", "--steps", "4",
            "--seed", "2", "--lin-tol", "1e-12", "--proj-eps", "1e-10"]
    assert main(args + ["--outdir", str(tmp_path / "a")]) == 0
    assert main(args + ["--outdir", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "ledger.csv").read_bytes() == \
           (tmp_path / "b" / "ledger.csv").read_bytes()


def test_simulate_writes_artifacts(tmp_path, capsys):
    rc = main(["simulate", "--mesh", "6x6", "--dt", "0.1", "--t-end", "0.2",
               "--outdir", str(tmp_path)])
    assert rc == 0
    ledger = (tmp_path / "ledger.csv").read_text().splitlines()
    assert ledger[0].startswith("step,time,")
    assert len(ledger) == 4
    # the energy bound does not apply under forcing: margins stay empty
    assert ledger[1].rsplit(",", 1)[1] == "nan"
    fields = (tmp_path / "fields.csv").read_text().splitlines()
    assert fields[0] == "kind,x,y,rho,p,u1,u2"
    ncells, nedges = 36, 2 * 6 * 7
    assert len(fields) == 1 + ncells + nedges
    # 17 significant digits: values round-trip through the text exactly
    rho_text = fields[1].split(",")[3]
    assert float(rho_text) == float(np.float64(rho_text))
    assert "e" in rho_text or "." in rho_text


def test_fields_csv_matches_per_value_formatting(tmp_path, rng):
    # more cells and edges than one formatted block, signed zeros included
    mesh = build_rect_mesh(70, 60)
    state = SimpleNamespace(rho=rng.uniform(0.5, 2.0, mesh.ncells),
                            p=rng.normal(size=mesh.ncells),
                            u=rng.normal(size=(mesh.nedges, 2))
                            * 10.0 ** rng.integers(-12, 4, size=(mesh.nedges, 2)))
    state.p[:3] = (0.0, -0.0, 1e300)
    state.u[:2, 0] = (-0.0, 0.0)
    assert mesh.ncells > cli._ROWS and mesh.nedges > 2 * cli._ROWS
    cli._write_fields_csv(tmp_path / "fields.csv", mesh, state)
    assert (tmp_path / "fields.csv").read_text() == _fields_reference(mesh, state)


def test_fields_csv_formats_each_coordinate_bit_pattern(tmp_path, rng):
    # coordinates repeat across blocks, and 0.0 sits beside -0.0: the
    # writer formats each distinct coordinate once, so it must tell them apart
    coords = np.array([0.0, -0.0, 0.5, -1e-300, 1.0 / 3.0, 2.0 ** -1074])
    n = 2 * cli._ROWS + 3
    mesh = SimpleNamespace(cell_centroids=rng.choice(coords, size=(n, 2)),
                           edge_midpoints=rng.choice(coords, size=(n + 5, 2)))
    for points in (mesh.cell_centroids, mesh.edge_midpoints):
        points[:2] = [[0.0, -0.0], [-0.0, 0.0]]
    state = SimpleNamespace(rho=rng.uniform(0.5, 2.0, n), p=rng.normal(size=n),
                            u=rng.normal(size=(n + 5, 2)))
    cli._write_fields_csv(tmp_path / "fields.csv", mesh, state)
    assert (tmp_path / "fields.csv").read_text() == _fields_reference(mesh, state)


def _fields_reference(mesh, state):
    """fields.csv formatted one value at a time."""
    f = lambda v: format(float(v), ".17g")
    ref = ["kind,x,y,rho,p,u1,u2"]
    ref += [f"cell,{f(x)},{f(y)},{f(r)},{f(p)},," for (x, y), r, p
            in zip(mesh.cell_centroids, state.rho, state.p)]
    ref += [f"edge,{f(x)},{f(y)},,,{f(u1)},{f(u2)}" for (x, y), (u1, u2)
            in zip(mesh.edge_midpoints, state.u)]
    return "\n".join(ref) + "\n"


def test_simulate_rejects_non_affine_eos(tmp_path, capsys):
    # convergence runs the same exact-flow problem and rejects the same laws
    for command in ("simulate", "convergence"):
        rc = main([command, "--mesh", "4x4", "--eos", "power", "--outdir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "affine" in err
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["simulate", "--mesh", "8x8", "--dt", "0.025", "--t-end", "0.05"],
    ["convergence", "--mesh", "4x4", "--dt-list", "0.1;0.05"],
])
def test_lin_maxit_caps_the_smooth_flow_solves(tmp_path, capsys, argv):
    # simulate and convergence pass lin_maxit on, as stability does
    rc = main([*argv, "--lin-maxit", "1", "--outdir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "did not converge in 1 iterations" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--mesh", "1x1", "--dt", "0.25", "--t-end", "0.5"],
    ["simulate", "--mesh", "1x1", "--dt", "0.025", "--t-end", "0.05"],
    ["convergence", "--mesh", "1x1", "--dt-list", "0.1;0.05"],
])
def test_smooth_flow_on_one_cell_exits_zero(tmp_path, capsys, argv):
    rc = main([*argv, "--outdir", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["1", "0.5"])
def test_power_law_gamma_at_most_one_is_a_config_error(tmp_path, capsys, gamma):
    rc = main(["stability", "--mesh", "4x4", "--eos", "power", "--gamma", gamma,
               "--steps", "1", "--outdir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "gamma > 1" in err
    assert not (tmp_path / "ledger.csv").exists()


@pytest.mark.parametrize("argv, t_end, dt", [
    (["convergence", "--dt-list", "0.3;0.15", "--t-end", "0.5"], "0.5", "0.3"),
    (["simulate", "--dt", "0.025", "--t-end", "0.01"], "0.01", "0.025"),
    (["simulate", "--dt", "0.03", "--t-end", "0.1"], "0.1", "0.03"),
    (["simulate", "--dt", "0.025", "--t-end", "1e-12"], "1e-12", "0.025"),
    (["stability", "--dt", "0.03", "--t-end", "0.1"], "0.1", "0.03"),
    (["stability", "--dt", "1e-300", "--t-end", "1e300"], "1e+300", "1e-300"),
    (["simulate", "--dt", "1e-300", "--t-end", "1e300"], "1e+300", "1e-300"),
    (["convergence", "--dt-list", "1e-300", "--t-end", "1e300"], "1e+300", "1e-300"),
])
def test_t_end_must_be_a_multiple_of_dt(tmp_path, capsys, argv, t_end, dt):
    rc = main([*argv, "--mesh", "4x4", "--outdir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"t_end {t_end}" in err and f"dt {dt}" in err
    assert not list(tmp_path.iterdir())


def test_simulate_steps_to_a_multiple_of_dt(tmp_path, capsys):
    rc = main(["simulate", "--mesh", "4x4", "--dt", "0.0125", "--t-end", "0.0375",
               "--outdir", str(tmp_path)])
    assert rc == 0
    ledger = (tmp_path / "ledger.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in ledger[1:]] == ["0", "1", "2", "3"]


@pytest.mark.parametrize("argv, message", [
    (["stability", "--mach", "1e200", "--steps", "2"], "gamma*Ma^2"),
    (["simulate", "--dt", "0.25", "--t-end", "0.5", "--mach", "1e200"], "gamma*Ma^2"),
    (["convergence", "--dt-list", "0.1;0.05", "--mach", "1e200"], "gamma*Ma^2"),
    (["stability", "--mach", "1e-200", "--steps", "2"], "gamma*Ma^2"),
    (["simulate", "--dt", "0.25", "--t-end", "0.5", "--mach", "1e-200"], "gamma*Ma^2"),
    (["convergence", "--dt-list", "0.1;0.05", "--mach", "1e-200"], "gamma*Ma^2"),
    (["stability", "--domain=0,inf,0,1", "--steps", "2"], "unbounded domain"),
    (["simulate", "--domain=-inf,1,0,1"], "unbounded domain"),
])
def test_affine_coefficient_and_domain_out_of_range_are_config_errors(tmp_path, capsys,
                                                                       argv, message):
    """An affine law whose gamma*Ma^2 over- or underflows, and a domain with a
    non-finite bound, stop every subcommand before it writes anything."""
    rc = main([*argv, "--mesh", "4x4", "--outdir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not list(tmp_path.iterdir())


def test_invalid_config_exit_code(capsys, tmp_path):
    assert main(["simulate", "--dt", "-3"]) == 2
    assert "config error" in capsys.readouterr().err
    missing = tmp_path / "nope.cfg"
    assert main(["simulate", "-c", str(missing)]) == 2


def test_convergence_command(tmp_path, capsys):
    rc = main(["convergence", "--mesh-list", "4x4;5x3", "--dt-list", "0.1;0.05",
               "--t-end", "0.2", "--outdir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[0].startswith("nx,ny,dt,")
    assert len(lines) == 5
    orders = [line for line in capsys.readouterr().out.splitlines() if "temporal order" in line]
    assert [line.split(":")[0] for line in orders] == ["4x4", "5x3"]


@pytest.mark.parametrize("lists, repeated", [
    (["--mesh-list", "8x8;8x8", "--dt-list", "0.1;0.05;0.025"], "mesh 8x8"),
    (["--mesh-list", "8x8", "--dt-list", "0.1;0.1;0.05;0.025"], "dt 0.1"),
])
def test_convergence_rejects_a_repeated_mesh_or_dt(tmp_path, capsys, monkeypatch, lists, repeated):
    """A repeated mesh would write its rows twice and a repeated dt stops the
    order fit at the equal pair (order nan): both are config errors, raised
    before any run starts."""
    monkeypatch.setattr(ver, "run_smooth_flow", lambda *a, **kw: pytest.fail("a run started"))
    rc = main(["convergence", *lists, "--outdir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: convergence study lists {repeated} twice\n"
    assert not (tmp_path / "convergence.csv").exists()


@pytest.mark.parametrize("flags, key, value", [
    (["--steps", "-3"], "'steps'", "-3"),
    (["--steps", "0"], "'steps'", "0"),
    (["--lin-maxit", "0"], "'lin_maxit'", "0"),
    (["--lin-maxit", "-5"], "'lin_maxit'", "-5"),
    (["--seed", "-1"], "'seed'", "-1"),
    (["--t-end", "0.4", "--dt", "1.0"], "t_end 0.4", "dt 1.0"),
])
def test_stability_rejects_bad_integers_and_no_steps(tmp_path, capsys, flags, key, value):
    rc = main(["stability", "--mesh", "4x4", "--outdir", str(tmp_path), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert key in err and value in err
    assert not (tmp_path / "ledger.csv").exists()
