"""The benchmark's workloads: seeded inputs, one iteration each, and the
checks that every output is correct.

Importing this module pins BLAS/OpenMP to one thread and imports basinwave
from the ``src`` directory of the checkout this file sits in.

Inputs come from fixed pools stored in ``reference.json`` together with the
outputs the code gave when the pools were recorded (``make_reference.py``).
A seed chooses which pool points a run visits and in what order; the pools
are what let every output be checked against a recorded value.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"

if not (SRC_DIR / "basinwave" / "__init__.py").is_file():
    raise SystemExit(f"bench: no basinwave package under {SRC_DIR}")
sys.path.insert(0, str(SRC_DIR))

import numpy as np  # noqa: E402

from basinwave import asymptotics, core, pde, verify  # noqa: E402
from basinwave.errors import BasinwaveError  # noqa: E402

#: The ROADMAP end-to-end run, every RunConfig field that matters pinned.
DEFAULT_CONFIG = dict(n_nodes=1056, dt=2e-3, t_end=8.0, h0=0.1, output_every=0.05)
SPEED_WINDOW = 0.3

#: Ensemble runs stop just after the reaction switches on (h passes zstar=1).
ENSEMBLE_T_END = 2.0

#: The ROADMAP accuracy gate for simulated outputs.
REL_TOL_COLUMN = 1e-4
#: Matching roots are solved to a residual of 1e-12; leave room for reordering.
REL_TOL_ROOT = 1e-9

#: The ensemble pool is split by node count into this many strata, and a
#: run visits it in blocks of one point per stratum, so that a run of a few
#: dozen points holds the same mix of problem sizes whatever the seed.
ENSEMBLE_STRATA = 16


def box_point(rng: random.Random) -> dict:
    """One parameter point from the validated box (m 7-20, beta 10-60,
    phi0 0.3-0.6, psi0 <= min(0.4, 1 - phi0), sdot 0.5-1.5)."""
    phi0 = rng.uniform(0.3, 0.6)
    return {
        "m": rng.randint(7, 20),
        "beta": rng.uniform(10.0, 60.0),
        "phi0": phi0,
        "psi0": rng.uniform(0.0, min(0.4, 1.0 - phi0)),
        "sdot": rng.uniform(0.5, 1.5),
    }


def resolution_nodes(point: dict) -> int:
    """Reaction-layer rule n = ceil(8 beta (h0 + sdot t_end))."""
    return math.ceil(8.0 * point["beta"] * (DEFAULT_CONFIG["h0"] + point["sdot"] * ENSEMBLE_T_END))


def ensemble_config(n_nodes: int) -> core.RunConfig:
    return core.RunConfig(
        n_nodes=n_nodes, dt=DEFAULT_CONFIG["dt"], t_end=ENSEMBLE_T_END,
        h0=DEFAULT_CONFIG["h0"], output_every=DEFAULT_CONFIG["output_every"],
    )


class Tally:
    """Operations attempted and failed in one pass.

    Every exception an operation raises is recorded by operation and type,
    counted as typed (a ``BasinwaveError``) or untyped, and counted in
    ``raised``; nothing is filtered out. An operation *fails* when its
    outcome is worse than the one recorded for its input: it raises where
    the recorded call returned a result, or its output fails a check. An
    exception the recorded call raised too is the code's known behaviour on
    that input, so it is counted and reported but does not fail the run;
    one of another type is listed in ``changed``, a result where the
    recorded call raised in ``recovered``.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.raised = 0
        self.typed = 0
        self.untyped = 0
        self.errors: Counter = Counter()
        self.wrong: Counter = Counter()
        self.changed: Counter = Counter()
        self.recovered: Counter = Counter()
        self.below_floor = 0
        self.checks_failed = 0

    @property
    def ok(self) -> int:
        """Calls that neither raised nor failed a check."""
        return self.attempted - self.raised - sum(self.wrong.values())

    def call(self, operation: str, fn: Callable, *args, recorded: str | None = None):
        """Run one operation whose recorded call raised ``recorded`` (an
        exception type name, or None when it returned a result); returns
        the result, or None when it raised."""
        self.attempted += 1
        try:
            result = fn(*args)
        except Exception as exc:  # every exception is recorded, never filtered
            name = type(exc).__name__
            self.raised += 1
            if isinstance(exc, BasinwaveError):
                self.typed += 1
            else:
                self.untyped += 1
            self.errors[f"{operation}:{name}"] += 1
            if recorded is None:
                self.failed += 1
            elif name != recorded:
                self.changed[f"{operation}: {recorded} -> {name}"] += 1
            return None
        if recorded is not None:
            self.recovered[f"{operation}: {recorded}"] += 1
        return result

    def verify(self, operation: str, problems: list[str]) -> None:
        """Count an operation whose output failed a check as failed."""
        if problems:
            self.failed += 1
            for problem in problems:
                self.wrong[f"{operation}: {problem}"] += 1


def close(label: str, value: float, expected: float | None, rel_tol: float) -> list[str]:
    """Problem list for a value that must match its recorded one."""
    if expected is None or abs(value - expected) <= rel_tol * abs(expected):
        return []
    return [f"{label} {value!r} differs from recorded {expected!r} by more than {rel_tol:g} relative"]


def state_problems(state, params) -> list[str]:
    """Positivity and exact top data of a final state."""
    problems = []
    if not np.all(state.phi > 0.0):
        problems.append("phi not positive everywhere")
    if not np.all(state.psi >= 0.0):
        problems.append("psi negative somewhere")
    if state.phi[-1] != params.phi0 or state.psi[-1] != params.psi0:
        problems.append("top node does not carry phi0, psi0 exactly")
    return problems


def run_default(expected: dict, tally: Tally) -> None:
    params = core.derive_params()
    series = tally.call(
        "run_simulation", pde.run_simulation, params, core.RunConfig(**DEFAULT_CONFIG)
    )
    if series is None:
        return
    tally.verify(
        "run_simulation",
        state_problems(series.final_state, params)
        + close("h(t_end)", float(series.h[-1]), expected["h_end"], REL_TOL_COLUMN),
    )
    fit = tally.call("estimate_wave_speed", pde.estimate_wave_speed, series, SPEED_WINDOW)
    if fit is not None:
        tally.verify("estimate_wave_speed", close("c_num", fit[0], expected["c_num"], REL_TOL_COLUMN))


def run_ensemble(point: dict, tally: Tally) -> None:
    params = core.derive_params(**point["params"])
    series = tally.call(
        "run_simulation", pde.run_simulation, params, ensemble_config(point["n_nodes"]),
        recorded=point["error"],
    )
    if series is None:
        return
    tally.verify(
        "run_simulation",
        state_problems(series.final_state, params)
        + close("h(t_end)", float(series.h[-1]), point["h_end"], REL_TOL_COLUMN),
    )


def run_match(point: dict, tally: Tally) -> None:
    params = core.derive_params(**point["params"])
    floor = params.sdot * (1.0 - params.phi0)
    roots = []
    for operation, key in (("solve_c", "c"), ("solve_c_consistent", "c_consistent")):
        match = tally.call(
            operation, getattr(asymptotics, operation), params, recorded=point[f"{key}_error"]
        )
        if match is None:
            continue
        problems = close(key, match.c, point[key], REL_TOL_ROOT)
        if match.c < floor:
            if operation == "solve_c":
                # the documented model discrepancy: reported, not a failure
                tally.below_floor += 1
            else:
                problems.append(f"root {match.c!r} below the budget floor {floor!r}")
        tally.verify(operation, problems)
        roots.append((key, match))
    for key, match in roots:
        tally.call(
            "build_wave_profile", asymptotics.build_wave_profile, match, params,
            recorded=point.get(f"{key}_profile_error"),
        )
    report = tally.call(
        "residual_battery", verify.residual_battery, params, recorded=point["battery_error"]
    )
    if report is not None:
        tally.checks_failed += len(report.failures())


def default_items(seed: int, reference: dict) -> list:
    # The ROADMAP run has no free inputs; the seed changes nothing.
    return [reference["column_default"]]


def ensemble_items(seed: int, reference: dict) -> list:
    """The pool in blocks of one point from each node-count stratum."""
    rng = random.Random(seed)
    pool = sorted(reference["column_ensemble"], key=lambda point: point["n_nodes"])
    size = len(pool) // ENSEMBLE_STRATA
    strata = [rng.sample(pool[i * size : (i + 1) * size], size) for i in range(ENSEMBLE_STRATA)]
    return [
        strata[j][block]
        for block in range(size)
        for j in rng.sample(range(ENSEMBLE_STRATA), ENSEMBLE_STRATA)
    ]


def match_items(seed: int, reference: dict) -> list:
    return random.Random(seed).sample(reference["match_box"], len(reference["match_box"]))


@dataclass(frozen=True)
class Workload:
    """``items(seed, reference)`` lists a run's inputs in visiting order
    (cycled if a run outlasts them); ``run`` is one iteration."""

    name: str
    items: Callable[[int, dict], list]
    run: Callable[[object, Tally], None]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("column_default", default_items, run_default),
        Workload("column_ensemble", ensemble_items, run_ensemble),
        Workload("match_box", match_items, run_match),
    )
}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)
