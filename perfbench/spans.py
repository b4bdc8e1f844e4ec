"""Spans around calls into baropc's public functions, recorded from outside.

`Tracer` swaps module and class attributes for timing wrappers and puts
the originals back on `restore()`.  Each wrapped call appends one span
(name, start, end, parent index, iterations) to an in-memory list;
`layer_metrics` turns the spans of one CLI call into per-layer numbers.

Only the benchmark's own code is changed: the library sees the same
arguments and returns the same values, so traced and untraced runs
produce identical output files.
"""

import functools
import time

STAGES = {
    "scheme.predict_density": "density",
    "scheme.renormalize_pressure": "renorm",
    "scheme.predict_velocity": "momentum",
    "scheme.projection_step": "projection",
    "scheme.renormalize_velocity": "velocity_renorm",
}
SOLVE_STAGES = ("density", "renorm", "momentum", "projection")
STEP = "scheme.Stepper.step"
SOLVERS = ("scheme.bicgstab_solve", "scheme.neumann_solve", "scheme.cg_solve")
# cheap helpers whose time stays with their caller; only their calls count
TRANSPARENT = ("scheme.mass_fluxes", "operators.edge_density",
               "operators.subedge_velocity_coeffs")
EOS_METHODS = ("rho", "drho_dp", "pressure", "potential", "rho_potential_prime")
WRITERS = ("cli._write_fields_csv", "cli.write_convergence_csv",
           "diagnostics.EnergyLedger.write_csv")


class StepTimer:
    """Times every `Stepper.step` call: (stepper id, start, end)."""

    def __init__(self):
        self.steps = []

    def wrap(self, fn):
        steps = self.steps

        @functools.wraps(fn)
        def step(stepper, state):
            t0 = time.perf_counter()
            out = fn(stepper, state)
            steps.append((id(stepper), t0, time.perf_counter()))
            return out
        return step


class Patch:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def wrapped_targets(baropc):
    """(span name, owner, attribute) of every traced entry point.

    The Krylov solvers are imported by name into `scheme`, so they are
    wrapped there; `neumann_solve` reaches `cg_solve` through `linsolve`,
    which stays unwrapped so its iterations are not counted twice.
    `build_rect_mesh` is bound by name in `cli` and looked up in `mesh` by
    the convergence study, so both names are wrapped.
    """
    cli, diag, eos, mesh, ops, scheme, verif = (
        baropc.cli, baropc.diagnostics, baropc.eos, baropc.mesh,
        baropc.operators, baropc.scheme, baropc.verification)
    targets = [(name, scheme, name.split(".", 1)[1])
               for name in (*STAGES, *SOLVERS, "scheme.mass_fluxes")]
    targets += [
        (f"operators.{f}", ops, f)
        for f in ("edge_mean", "edge_density", "subedge_velocity_coeffs",
                  "pressure_laplacian", "convection_matrix", "viscous_stiffness")]
    targets += [
        ("verification.assemble_forcing", verif, "assemble_forcing"),
        ("diagnostics.EnergyLedger.record_step", diag.EnergyLedger, "record_step"),
        ("diagnostics.EnergyLedger.write_csv", diag.EnergyLedger, "write_csv"),
        ("diagnostics.energy_bound_check", diag, "energy_bound_check"),
        ("cli.parse_config", cli, "parse_config"),
        ("cli._write_fields_csv", cli, "_write_fields_csv"),
        ("cli.write_convergence_csv", cli, "write_convergence_csv"),
        ("mesh.build_rect_mesh", cli, "build_rect_mesh"),
        ("mesh.build_rect_mesh", mesh, "build_rect_mesh"),
    ]
    for law in (eos.PowerLaw, eos.LinearLaw, eos.AffineLaw):
        targets += [(f"eos.{m}", law, m) for m in EOS_METHODS]
    return targets


class Tracer:
    """Records a span per wrapped call, in memory; one tracer per CLI call."""

    def __init__(self):
        self.spans = []           # [name, start, end, parent, iterations]
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        solver = name in SOLVERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if solver:
                span[4] = (out[1].iterations, args[0].nnz)
            elif name == STEP:
                span[4] = out[1].inner_iterations
            return out
        return traced

    def install(self, baropc, patch, step_timer):
        for name, owner, attr in wrapped_targets(baropc):
            patch.set(owner, attr, self.wrap(name, owner.__dict__[attr]))
        step = baropc.scheme.Stepper.__dict__["step"]
        patch.set(baropc.scheme.Stepper, "step", self.wrap(STEP, step_timer.wrap(step)))


def _matvecs(solver, iterations):
    """Leading-order matrix-vector products of one Krylov solve.

    CG does one per iteration and BiCGStab two, each plus the initial
    residual; the final true-residual checks are not counted.
    """
    per_iter = 2 if solver == "scheme.bicgstab_solve" else 1
    return per_iter * iterations + 1


def layer_metrics(spans):
    """Per-layer numbers of one CLI call from its spans.

    In-step quantities are per `Stepper.step` and use exclusive time: a
    span's duration minus its direct child spans, with the time of
    TRANSPARENT helpers left in their caller, so the in-step times add up
    to the step time.  `scheme.step.s` is the self time of the step: the
    `advance` glue outside the five stages and the boundary-data call.
    Quantities outside the steps are inclusive times per CLI call.
    """
    n = len(spans)
    children = [0.0] * n
    in_step = [False] * n
    stage_of = [None] * n
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent] += t1 - t0
            in_step[i] = in_step[parent] or spans[parent][0] == STEP
            stage_of[i] = STAGES.get(spans[parent][0], stage_of[parent])
    for i in reversed(range(n)):    # a helper's own children are settled first
        name, t0, t1, parent, _ = spans[i]
        if name in TRANSPARENT and parent >= 0:
            children[parent] += children[i] - (t1 - t0)

    steps = [s for s in spans if s[0] == STEP]
    nsteps = max(len(steps), 1)
    step_time = sum(t1 - t0 for _, t0, t1, _, _ in steps)
    inner = [s[4] for s in steps] or [0]
    own = {}        # exclusive in-step time by span name
    calls = {}      # in-step calls by span name
    total = {}      # inclusive time outside steps by span name
    solve = {st: [0, 0, 0.0, 0.0] for st in SOLVE_STAGES}   # calls iters s flops
    direct = 0.0    # time of spans called straight from Stepper.step
    for i, (name, t0, t1, parent, extra) in enumerate(spans):
        if name == STEP:
            own[STEP] = own.get(STEP, 0.0) + (t1 - t0) - children[i]
            continue
        if not in_step[i]:
            total[name] = total.get(name, 0.0) + t1 - t0
            continue
        if spans[parent][0] == STEP:
            direct += t1 - t0
        calls[name] = calls.get(name, 0) + 1
        if name not in TRANSPARENT:
            own[name] = own.get(name, 0.0) + (t1 - t0) - children[i]
        if name in SOLVERS:
            iters, nnz = extra
            acc = solve[stage_of[i]]
            acc[0] += 1
            acc[1] += iters
            acc[2] += t1 - t0
            acc[3] += 2.0 * nnz * _matvecs(name, iters)

    def per_step(table, *names):
        return sum(table.get(k, 0) for k in names) / nsteps

    eos_names = [f"eos.{m}" for m in EOS_METHODS]
    m = {
        "scheme.step.s": per_step(own, STEP),
        "scheme.projection.inner_iters": sum(inner) / len(inner),
        "scheme.projection.inner_iters_max": float(max(inner)),
        "operators.pressure_laplacian.calls": per_step(calls, "operators.pressure_laplacian"),
        "operators.pressure_laplacian.s": per_step(own, "operators.pressure_laplacian"),
        "operators.convection_matrix.s": per_step(own, "operators.convection_matrix"),
        "operators.edge_density.calls": per_step(calls, "operators.edge_density"),
        "operators.subedge_velocity_coeffs.calls":
            per_step(calls, "operators.subedge_velocity_coeffs"),
        "operators.edge_mean.calls": per_step(calls, "operators.edge_mean"),
        "operators.edge_mean.s": per_step(own, "operators.edge_mean"),
        "verification.assemble_forcing.s": per_step(own, "verification.assemble_forcing"),
        "eos.calls": per_step(calls, *eos_names),
        "eos.s": per_step(own, *eos_names),
        "diagnostics.record_step.s":
            total.get("diagnostics.EnergyLedger.record_step", 0.0) / nsteps,
        "diagnostics.energy_bound_check.s": total.get("diagnostics.energy_bound_check", 0.0),
        "cli.parse_config.s": total.get("cli.parse_config", 0.0),
        "cli.write_outputs.s": sum(total.get(w, 0.0) for w in WRITERS),
        "mesh.build_rect_mesh.s": total.get("mesh.build_rect_mesh", 0.0),
        "operators.viscous_stiffness.s": total.get("operators.viscous_stiffness", 0.0),
        "trace.step_coverage": direct / step_time if step_time > 0 else 0.0,
    }
    for span_name, stage in STAGES.items():
        m[f"scheme.{stage}.s"] = per_step(own, span_name)
    for stage, (ncalls, iters, secs, flops) in solve.items():
        m[f"linsolve.{stage}.calls"] = ncalls / nsteps
        m[f"linsolve.{stage}.iters"] = iters / nsteps
        m[f"linsolve.{stage}.s"] = secs / nsteps
        m[f"linsolve.{stage}.spmv_flops"] = flops / nsteps
    return m
