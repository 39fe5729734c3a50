"""basinwave benchmark: run one workload as a closed loop for a fixed time.

    python3 bench/run.py --workload column_default --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports basinwave from ``src``.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs each input twice, untraced and traced, and reports the per-layer
metrics. Human-readable lines come first; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import workloads  # first: pins BLAS/OpenMP threads before numpy and scipy load

import scipy
from speed import SpeedProbe
from tracing import Tracer
from workloads import SRC_DIR, Tally, np

#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_REPEATS = 5

#: What a user pays before the first result: interpreter start, imports,
#: parameter derivation, and the first banded solve and ODE integration.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from basinwave import asymptotics, core, pde
params = core.derive_params()
pde.run_simulation(params, core.RunConfig(n_nodes=1056, dt=2e-3, t_end=2e-3))
asymptotics.build_wave_profile(asymptotics.solve_c_consistent(params), params)
"""


def note_banded(args, kwargs, result):
    (lower, upper), ab = args[0], args[1]
    return (lower + upper + 1, ab.shape[1])


def note_nfev(args, kwargs, result):
    return result.nfev


def note_iterations(args, kwargs, result):
    return result.iterations


#: (module, attribute, span name, note) for every traced layer boundary.
TRACE_TARGETS = [
    ("pde", "run_simulation", "pde.driver", None),
    ("pde", "step_predictor_corrector", "pde.step", None),
    ("pde", "solve_banded", "pde.solve_banded", note_banded),
    ("core", "permeability_factor", "core.permeability_factor", None),
    ("core", "reaction_rate", "core.reaction_rate", None),
    ("asymptotics", "solve_c", "asymptotics.solve_c", note_iterations),
    ("asymptotics", "solve_c_consistent", "asymptotics.solve_c_consistent", note_iterations),
    ("asymptotics", "build_wave_profile", "asymptotics.build_wave_profile", None),
    ("asymptotics", "jump_residual", "asymptotics.jump_residual", None),
    ("asymptotics", "solve_ivp", "asymptotics.solve_ivp", note_nfev),
    ("verify", "residual_battery", "verify.residual_battery", None),
]

#: Figures from the ROADMAP baseline, printed beside the traced measurements.
ROADMAP_COUNTS = {"pde.step.count": 4000, "pde.step.rejected": 0,
                  "pde.solve_banded.count": 24000, "pde.solve_banded.bands": 4}
ROADMAP_DEFAULT_RUN_S = 5.9
ROADMAP_US = {"pde.solve_banded.us_p50": 153.0, "asymptotics.solve_c.us_p50": 155.0}


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def measure(workload, items: list, seconds: float, tally: Tally, tracer: Tracer | None = None):
    """Closed loop over ``items`` (cycled) until the next call would overrun
    ``seconds``; always makes at least one call.

    Returns the (start, end) of every untraced and every traced call. With
    a tracer, each item is run twice, untraced and traced, alternating which
    goes first so that drift and warm caches favour neither side.
    """
    plain: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    start = time.perf_counter()
    for visit, item in enumerate(itertools.cycle(items), 1):
        passes = (False,) if tracer is None else ((False, True) if visit % 2 else (True, False))
        for with_tracer in passes:
            if with_tracer:
                with tracer:
                    traced.append(timed(workload, item, tally))
            else:
                plain.append(timed(workload, item, tally))
        elapsed = time.perf_counter() - start
        if elapsed * (visit + 1) / visit > seconds:
            return plain, traced


def timed(workload, item, tally: Tally) -> tuple[float, float]:
    t0 = time.perf_counter()
    workload.run(item, tally)
    return t0, time.perf_counter()


def time_setup(probe: SpeedProbe) -> tuple[float, float]:
    probe.sample(3)
    t0 = time.perf_counter()
    # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms,
    # which would round the measurement up by as much
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC_DIR)], check=True, stdout=subprocess.DEVNULL
    )
    t1 = time.perf_counter()
    probe.sample(3)
    return t0, t1


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sources = sorted((SRC_DIR / "basinwave").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": git_commit(),
        "source_lines": sum(len(path.read_text().splitlines()) for path in sources),
    }


def git_commit() -> str:
    git = SRC_DIR.parent / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def end_to_end(workload, args, reference) -> tuple[Tally, dict]:
    probe = SpeedProbe()
    setups = [time_setup(probe) for _ in range(SETUP_REPEATS)]
    tally = Tally()
    with probe.ticking():
        calls, _ = measure(workload, workload.items(args.seed, reference), args.seconds, tally)
    setup_s = [probe.scaled(t0, t1) for t0, t1 in setups]
    wall_s = [probe.scaled(t0, t1) for t0, t1 in calls]
    raw = [t1 - t0 for t0, t1 in calls]
    kernel = [e - s for s, e in zip(probe.starts, probe.ends)]
    print(f"# {len(calls)} iterations; at nominal speed: wall_s p50 {median(wall_s):.6g} s "
          f"(min {min(wall_s):.6g}, max {max(wall_s):.6g}), setup_s "
          + " ".join(f"{s:.4f}" for s in setup_s))
    print(f"# as measured: wall p50 {median(raw):.6g} s (min {min(raw):.6g}, max {max(raw):.6g}), "
          f"setup " + " ".join(f"{t1 - t0:.4f}" for t0, t1 in setups)
          + f"; speed-probe kernel p50 {median(kernel) * 1e3:.3f} ms over {len(kernel)} samples "
          f"(min {min(kernel) * 1e3:.3f}, max {max(kernel) * 1e3:.3f})")
    metrics = {
        "wall_s": (median(wall_s), "s"),
        "setup_s": (median(setup_s), "s"),
        "ok_frac": (tally.ok / tally.attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return tally, metrics


def per_layer(workload, args, reference) -> tuple[Tally, dict]:
    tally = Tally()
    tracer = Tracer(TRACE_TARGETS)
    plain, traced = measure(workload, workload.items(args.seed, reference),
                            args.seconds, tally, tracer)
    plain_s = sum(t1 - t0 for t0, t1 in plain)
    traced_s = sum(t1 - t0 for t0, t1 in traced)
    k = len(traced)
    passes = len(plain) + k  # the tally covers both passes
    if tracer.missing:
        print("# not found, reported as 0: " + ", ".join(tracer.missing))

    spans = tracer.layers().__getitem__  # a name never traced gives an empty Layer

    def p50(name, scale, field="durations"):
        return median(getattr(spans(name), field)) * scale

    def per_iter(value):
        return value / k

    banded = spans("pde.solve_banded")
    band_notes = [n for n in banded.notes if n is not None]
    step = spans("pde.step")
    ivp = spans("asymptotics.solve_ivp")

    metrics = {
        "pde.solve_banded.count": (per_iter(len(banded.durations)), "count"),
        "pde.solve_banded.us_p50": (p50("pde.solve_banded", 1e6), "us"),
        "pde.solve_banded.share": (sum(banded.durations) / traced_s, "frac"),
        "pde.solve_banded.bands": (
            sum(b for b, _ in band_notes) / len(band_notes) if band_notes else 0.0, "count"),
        "pde.solve_banded.bytes_computed": (
            per_iter(sum(8.0 * n * (b + 2) for b, n in band_notes)), "bytes"),
        "pde.step.count": (per_iter(step.errors.count("")), "count"),
        "pde.step.rejected": (per_iter(step.errors.count("StepRejected")), "count"),
        "pde.step.ms_p50": (p50("pde.step", 1e3), "ms"),
        "pde.step.self_ms_p50": (p50("pde.step", 1e3, "self_times"), "ms"),
        "pde.driver.self_s": (p50("pde.driver", 1.0, "self_times"), "s"),
        "core.permeability_factor.count": (
            per_iter(len(spans("core.permeability_factor").durations)), "count"),
        "core.permeability_factor.s": (
            per_iter(sum(spans("core.permeability_factor").durations)), "s"),
        "core.reaction_rate.count": (per_iter(len(spans("core.reaction_rate").durations)), "count"),
        "core.reaction_rate.s": (per_iter(sum(spans("core.reaction_rate").durations)), "s"),
        "asymptotics.solve_c.us_p50": (p50("asymptotics.solve_c", 1e6), "us"),
        "asymptotics.solve_c.iterations": (
            median(n for n in spans("asymptotics.solve_c").notes if n is not None), "count"),
        "asymptotics.solve_c.below_floor": (tally.below_floor / passes, "count"),
        "asymptotics.solve_c_consistent.us_p50": (p50("asymptotics.solve_c_consistent", 1e6), "us"),
        "asymptotics.solve_c_consistent.iterations": (
            median(n for n in spans("asymptotics.solve_c_consistent").notes if n is not None),
            "count"),
        "asymptotics.build_wave_profile.ms_p50": (p50("asymptotics.build_wave_profile", 1e3), "ms"),
        "asymptotics.jump_residual.ms_p50": (p50("asymptotics.jump_residual", 1e3), "ms"),
        "asymptotics.solve_ivp.count": (per_iter(len(ivp.durations)), "count"),
        "asymptotics.solve_ivp.nfev": (
            per_iter(sum(n for n in ivp.notes if n is not None)), "count"),
        "asymptotics.solve_ivp.s": (per_iter(sum(ivp.durations)), "s"),
        "asymptotics.errors.typed": (tally.typed / passes, "count"),
        "asymptotics.errors.untyped": (tally.untyped / passes, "count"),
        "verify.residual_battery.ms_p50": (p50("verify.residual_battery", 1e3), "ms"),
        "verify.residual_battery.self_ms": (
            p50("verify.residual_battery", 1e3, "self_times"), "ms"),
        "verify.checks_failed": (tally.checks_failed / passes, "count"),
        "trace.overhead_frac": (traced_s / plain_s - 1.0, "frac"),
    }

    out = workloads.BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload.name}.csv"
    tracer.write(path)
    print(f"# {len(plain)} untraced + {k} traced iterations; {len(tracer.spans)} spans "
          f"written to {path.relative_to(SRC_DIR.parent)}")
    roadmap_report(workload.name, metrics, median(t1 - t0 for t0, t1 in plain))
    return tally, metrics


def roadmap_report(name: str, metrics: dict, untraced_wall: float) -> None:
    """Print the traced figures beside the ROADMAP baseline."""
    figures = [(key, metrics[key][0], roadmap, "us") for key, roadmap in ROADMAP_US.items()]
    if name == "column_default":
        pairs = [(key, metrics[key][0], want) for key, want in ROADMAP_COUNTS.items()]
        same = all(got == want for _, got, want in pairs)
        print("# ROADMAP baseline counts " + ("match" if same else "DIFFER") + ": "
              + ", ".join(f"{key} {got:g} (ROADMAP {want})" for key, got, want in pairs))
        figures.insert(0, ("default run", untraced_wall, ROADMAP_DEFAULT_RUN_S, "s"))
    for key, value, roadmap, unit in figures:
        if value:
            print(f"# {key}: {value:.4g} {unit} here as measured, {roadmap:g} {unit} in ROADMAP "
                  f"({(value / roadmap - 1.0) * 100.0:+.0f}%)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()
    print("# machine " + json.dumps(machine()))
    run = per_layer if args.trace else end_to_end
    tally, metrics = run(workload, args, reference)

    for key, count in sorted(tally.errors.items()):
        print(f"# error {key} x{count}")
    for key, count in sorted(tally.changed.items()):
        print(f"# error type changed from the recorded one: {key} x{count}")
    for key, count in sorted(tally.recovered.items()):
        print(f"# result where the recorded call raised: {key} x{count}")
    for key, count in sorted(tally.wrong.items()):
        print(f"# WRONG {key} x{count}")
    print(f"# attempted {tally.attempted}, raised {tally.raised} "
          f"(typed {tally.typed}, untyped {tally.untyped}), "
          f"failed {tally.failed} (raised where the recorded call did not, "
          f"or wrong outputs: {sum(tally.wrong.values())})")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
