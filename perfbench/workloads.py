"""The benchmark's workloads: CLI argument lists and output checks.

Each workload is one `baropc` subcommand at fixed settings.  `full` is the
measured size; `tiny` runs the same code path in well under a second and
serves as the warm-up call and the smoke tests' size.  Every check reads
the files and lines the CLI wrote and returns a list of problems, empty
when the output is correct.

Reference errors were printed by baropc 0.1.0 (commit 0554a86) at the CLI
defaults (lin_tol = 1e-10, proj_eps = 1e-8) with one BLAS thread.
"""

import math
import os
import re
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from baropc.mesh import build_rect_mesh
from baropc.verification import SmoothFlowCase, error_norms

REL_TOL = 1e-6            # allowed relative change of a reference error
ORDER_RANGE = (0.7, 1.3)  # fitted temporal order of the velocity error
ENERGY_SLACK = 1e-10      # relative, as diagnostics.energy_bound_check
MASS_DRIFT_PER_STEP = 1e-8  # the projection's mass-balance tolerance

SMOOTH_DT = 0.0125
STUDY_DTS = (0.1, 0.05, 0.025, 0.0125, 0.00625)
STUDY_T_END = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple               # CLI arguments without --outdir and --seed
    ncells: int
    steps: int                # Stepper.step calls per CLI call
    check: object             # check(self, stdout, outdir) -> [problem]
    outputs: tuple            # files the call writes into --outdir
    seeded: bool = False      # whether --seed selects the input
    errors: tuple = ()        # reference L2 errors the check compares against

    def argv(self, seed, outdir):
        tail = ["--seed", str(seed)] if self.seeded else []
        return [*self.args, *tail, "--outdir", outdir]

    def verify(self, stdout, outdir):
        return self.check(self, stdout, outdir)


def _close(value, ref):
    return abs(value - ref) <= REL_TOL * abs(ref)


def _check_smooth(wl, stdout, outdir):
    """Velocity/pressure L2 errors of fields.csv against the reference."""
    n = int(math.isqrt(wl.ncells))
    mesh = build_rect_mesh(n, n, SmoothFlowCase.domain)
    match = re.search(r"t_end=(\S+)", stdout)
    if match is None:
        return ["simulate printed no final time"]
    cells, edges = [], []
    with open(os.path.join(outdir, "fields.csv")) as fh:
        next(fh)
        for line in fh:
            kind, _, _, _, p, u1, u2 = line.rstrip("\n").split(",")
            if kind == "cell":
                cells.append(float(p))
            else:
                edges.append((float(u1), float(u2)))
    if len(cells) != mesh.ncells or len(edges) != mesh.nedges:
        return [f"fields.csv has {len(cells)} cells and {len(edges)} edges"]
    state = SimpleNamespace(t=float(match.group(1)), p=np.array(cells), u=np.array(edges))
    err_v, err_p = error_norms(mesh, state, SmoothFlowCase())
    ref_v, ref_p = wl.errors
    return [f"{what} L2 error {got:.9e}, reference {ref:.9e}"
            for what, got, ref in (("velocity", err_v, ref_v), ("pressure", err_p, ref_p))
            if not _close(got, ref)]


def _check_study(wl, stdout, outdir):
    """Per-(mesh, dt) errors against the reference and the fitted order."""
    problems = []
    with open(os.path.join(outdir, "convergence.csv")) as fh:
        header = next(fh).rstrip("\n").split(",")
        rows = [dict(zip(header, line.rstrip("\n").split(","))) for line in fh]
    if len(rows) != len(wl.errors):
        return [f"convergence.csv has {len(rows)} rows, expected {len(wl.errors)}"]
    for row, (ref_v, ref_p) in zip(rows, wl.errors):
        for col, ref in (("err_v_L2", ref_v), ("err_p_L2", ref_p)):
            if not _close(float(row[col]), ref):
                problems.append(f"dt={row['dt']}: {col} {row[col]}, reference {ref!r}")
    match = re.search(r"temporal order velocity (\S+),", stdout)
    order = float(match.group(1)) if match else float("nan")
    if not ORDER_RANGE[0] <= order <= ORDER_RANGE[1]:
        problems.append(f"fitted velocity order {order} outside {ORDER_RANGE}")
    return problems


def _check_stability(wl, stdout, outdir):
    """Energy bound over steps >= 1, total-mass drift and positivity."""
    d = np.genfromtxt(os.path.join(outdir, "ledger.csv"), delimiter=",", names=True)
    if d.size != wl.steps + 1:
        return [f"ledger.csv has {d.size} rows, expected {wl.steps + 1}"]
    problems = []
    lhs = d["kinetic"] + d["elastic"] + d["viscous_cum"] + d["psem"]
    rhs0 = d["kinetic"][0] + d["elastic"][0] + d["psem"][0]
    rel = (rhs0 - lhs[1:]) / np.maximum(np.abs(lhs[1:]), abs(rhs0))
    if not np.all(rel >= -ENERGY_SLACK):
        problems.append(f"energy bound violated: worst relative margin {rel.min():.3e} "
                        f"at step {int(np.argmin(rel)) + 1}")
    drift = np.max(np.abs(d["total_mass"] - d["total_mass"][0])) / d["total_mass"][0]
    if not drift <= MASS_DRIFT_PER_STEP * wl.steps:
        problems.append(f"total mass drifted by {drift:.3e} (relative)")
    if not np.all(d["min_density"] > 0.0):
        problems.append(f"density lost positivity (min {d['min_density'].min():.3e})")
    return problems


def smooth(n, steps, errors):
    t_end = f"{steps * SMOOTH_DT:g}"
    return Workload(
        name=f"smooth-{n}",
        args=("simulate", "--mesh", f"{n}x{n}", "--dt", repr(SMOOTH_DT), "--t-end", t_end),
        ncells=n * n, steps=steps, check=_check_smooth,
        outputs=("ledger.csv", "fields.csv"), errors=errors)


def stability(n, steps):
    return Workload(
        name=f"stability-{n}",
        args=("stability", "--mesh", f"{n}x{n}", "--dt", "1.0", "--eos", "power",
              "--steps", str(steps)),
        ncells=n * n, steps=steps, check=_check_stability,
        outputs=("ledger.csv",), seeded=True)


def study(n, dts, errors):
    return Workload(
        name=f"study-{n}",
        args=("convergence", "--mesh", f"{n}x{n}", "--dt-list", ";".join(map(repr, dts))),
        ncells=n * n, steps=sum(round(STUDY_T_END / dt) for dt in dts),
        check=_check_study, outputs=("convergence.csv",), errors=errors)


# name -> (full, tiny)
WORKLOADS = {
    "smooth-160": (
        smooth(160, 3, (0.0009030649308221423, 0.000618256266840771)),
        smooth(8, 2, (0.002232203159604573, 0.0006813934885927083))),
    "stability-64": (stability(64, 10), stability(8, 2)),
    "study-20": (
        study(20, STUDY_DTS, (
            (0.10059631794948791, 0.094234608568084188),
            (0.043159731764467975, 0.046491801895557197),
            (0.019414164107341061, 0.025365951823367171),
            (0.010016816025565771, 0.014253711583150549),
            (0.0061919136575879765, 0.0084010691015592165))),
        study(4, STUDY_DTS[:2], (
            (0.051946602655520362, 0.083115748177595011),
            (0.029608496904517344, 0.049090161278736735)))),
}


def sub_seed(seed, i):
    """Input seed of call `i` of a run with benchmark seed `seed`."""
    return 1000 * (seed % 2**31) + i


def differing_outputs(wl, dir_a, dir_b):
    """Names of output files that differ byte for byte between two calls.

    The convergence table's last column is wall time, so it is left out.
    """
    differ = []
    for name in wl.outputs:
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            a, b = fa.read(), fb.read()
        if name == "convergence.csv":
            a, b = (b"\n".join(line.rsplit(b",", 1)[0] for line in x.split(b"\n"))
                    for x in (a, b))
        if a != b:
            differ.append(name)
    return differ
