"""baropc benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload smooth-160 --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports baropc from its
`src/`.  One process calls `baropc.cli.main(argv)` repeatedly, one call at
a time, until the next call would overrun `--seconds`.  With `--trace 0`
only `Stepper.step` is timed and the end-to-end metrics are printed; with
`--trace 1` untraced and traced calls of the same input alternate, the
per-layer metrics come from the traced calls and the tracing overhead is
the difference of their median times to solution.  Human-readable lines
come first; the last line of stdout is one JSON object.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import Patch, StepTimer, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

# Pinned before numpy is first imported: the Krylov iteration counts are
# exact only with a fixed reduction order.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "BAROPC_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "step_s_p50": "s",
    "cell_steps_per_s": "cell-steps/s",
    "time_to_solution_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "scheme.step.s": "s/step",
    "scheme.density.s": "s/step",
    "scheme.renorm.s": "s/step",
    "scheme.momentum.s": "s/step",
    "scheme.projection.s": "s/step",
    "scheme.velocity_renorm.s": "s/step",
    "scheme.projection.inner_iters": "iters/step",
    "scheme.projection.inner_iters_max": "iters",
    **{f"linsolve.{stage}.{what}": unit
       for stage in ("density", "renorm", "momentum", "projection")
       for what, unit in (("calls", "calls/step"), ("iters", "iters/step"),
                          ("s", "s/step"), ("spmv_flops", "flop/step"))},
    "operators.pressure_laplacian.calls": "calls/step",
    "operators.pressure_laplacian.s": "s/step",
    "operators.convection_matrix.s": "s/step",
    "operators.edge_density.calls": "calls/step",
    "operators.subedge_velocity_coeffs.calls": "calls/step",
    "operators.edge_mean.calls": "calls/step",
    "operators.edge_mean.s": "s/step",
    "verification.assemble_forcing.s": "s/step",
    "eos.calls": "calls/step",
    "eos.s": "s/step",
    "diagnostics.record_step.s": "s/step",
    "diagnostics.energy_bound_check.s": "s/call",
    "cli.parse_config.s": "s/call",
    "cli.write_outputs.s": "s/call",
    "mesh.build_rect_mesh.s": "s/call",
    "operators.viscous_stiffness.s": "s/call",
    "trace.overhead_s": "s/call",
    "trace.step_coverage": "ratio",
}


def load_baropc():
    """Pin the environment and import baropc from this checkout's src/."""
    os.environ.update(PINNED_ENV)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import baropc
    import baropc.cli  # noqa: F401  (loads every module the CLI uses)
    if Path(baropc.__file__).resolve().parent.parent != src:
        raise ImportError(f"baropc imported from {baropc.__file__}, not from {src}")
    return baropc


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        **{k: os.environ[k] for k in PINNED_ENV},
    }


class Call:
    """Timings and outcome of one `cli.main` call."""

    def __init__(self, wl, steps, t_entry, t_exit, rc, problems, spans):
        self.tts = t_exit - t_entry
        self.step_times = [t1 - t0 for _, t0, t1 in steps]
        # main entry to the first step, plus the gap before each later
        # stepper's first step (one per run of a study)
        marks = [(None, t_entry, t_entry)] + steps
        self.setup = sum(b[1] - a[2] for a, b in zip(marks, marks[1:])
                         if a[0] != b[0]) if steps else self.tts
        self.problems = problems
        self.failed = wl.steps - len(steps) if rc != 0 else (wl.steps if problems else 0)
        self.spans = spans


def run_call(baropc, wl, seed, outdir, tracer=None):
    os.makedirs(outdir, exist_ok=True)
    timer, patch = StepTimer(), Patch()
    stepper = baropc.scheme.Stepper
    if tracer is None:
        patch.set(stepper, "step", timer.wrap(stepper.__dict__["step"]))
    else:
        tracer.install(baropc, patch, timer)
    out, err = io.StringIO(), io.StringIO()
    t_entry = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = baropc.cli.main(wl.argv(seed, str(outdir)))
    except Exception:          # a crash is a failed call, not a failed benchmark
        rc = None
        err.write(traceback.format_exc())
    finally:
        t_exit = time.perf_counter()
        patch.restore()
    spans = tracer.spans if tracer is not None else None
    if rc == 0:
        problems = wl.verify(out.getvalue(), outdir)
    else:
        problems = [f"exit code {rc}: {err.getvalue().strip()[-500:]}"]
    return Call(wl, timer.steps, t_entry, t_exit, rc, problems, spans)


def measure(baropc, full, tiny, seed, seconds, trace):
    """Calls of `full` until the next would overrun `seconds`; returns result."""
    from workloads import differing_outputs, sub_seed

    work = OUT / f"{full.name}-{os.getpid()}"
    try:
        run_call(baropc, tiny, seed, work / "warmup")     # lazy imports, caches
        calls, traced, problems = [], [], []
        start = time.perf_counter()
        i = 0
        while True:
            t_round = time.perf_counter()
            if trace:
                # the same input every round, so counts repeat exactly; the
                # order alternates so neither side always runs first
                pair = {}
                for kind in ("plain", "traced")[::1 if i % 2 == 0 else -1]:
                    tracer = Tracer() if kind == "traced" else None
                    pair[kind] = run_call(baropc, full, sub_seed(seed, 0), work / kind, tracer)
                plain, span = pair["plain"], pair["traced"]
                calls += [plain, span]
                traced.append(span)
                if not (plain.problems or span.problems):
                    problems += [f"traced output {name} differs from untraced" for name
                                 in differing_outputs(full, work / "plain", work / "traced")]
            else:
                calls.append(run_call(baropc, full, sub_seed(seed, i), work / f"call-{i}"))
                shutil.rmtree(work / f"call-{i}")
            i += 1
            now = time.perf_counter()
            if now - start + (now - t_round) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems += [p for c in calls for p in c.problems]
    attempted = len(calls) * full.steps
    failed = sum(c.failed for c in calls)
    step_times = [t for c in calls for t in c.step_times]
    report = {
        "workload": full.name, "seed": seed, "calls": len(calls),
        "steps_timed": len(step_times), "step_failure_ratio": failed / attempted,
        "problems": problems[:20],
    }
    if trace:
        per_call = [layer_metrics(c.spans) for c in traced]
        plain_tts = [c.tts for c in calls if c not in traced]
        metrics = {k: statistics.median(m[k] for m in per_call) for k in per_call[0]}
        metrics["trace.overhead_s"] = (statistics.median(c.tts for c in traced)
                                       - statistics.median(plain_tts))
        units = PER_LAYER
        report["spans"] = [c.spans for c in traced]
    else:
        step_total = sum(step_times)
        metrics = {           # a run without steps has failed; 0.0 keeps it JSON
            "setup_s": statistics.median(c.setup for c in calls),
            "step_s_p50": statistics.median(step_times) if step_times else 0.0,
            "cell_steps_per_s": (full.ncells * len(step_times) / step_total
                                 if step_total > 0 else 0.0),
            "time_to_solution_s": statistics.median(c.tts for c in calls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if len(step_times) >= 100:       # ten samples beyond the 90th percentile
            report["step_s_p90"] = statistics.quantiles(step_times, n=10)[-1]
        units = END_TO_END
    result = {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        baropc = load_baropc()
    except ImportError as err:
        print(f"cannot import baropc from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    full, tiny = WORKLOADS[args.workload]
    env = environment()
    result, report = measure(baropc, full, tiny, args.seed, args.seconds, args.trace)

    spans = report.pop("spans", None)
    if spans is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{full.name}-seed{args.seed}.json"
        path.write_text(json.dumps({"env": env, "report": report, "calls": spans}))
        report["spans_file"] = str(path.relative_to(ROOT))
    print("env: " + json.dumps(env))
    print("run: " + json.dumps(report))
    for name, m in result["metrics"].items():
        print(f"{full.name} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
