"""Record the benchmark's input pools and the outputs the code gives on them.

    python3 bench/make_reference.py

Rewrites ``bench/reference.json``. The benchmark checks every run against
these values, so re-record only when an output is meant to change, and say
so where the change is described.
"""

from __future__ import annotations

import json
import random

import workloads
from workloads import asymptotics, core, pde, verify

POOL_SEED = 2010
ENSEMBLE_POOL = 64
MATCH_POOL = 2048


def outcome(fn, *args):
    """(result, exception type name or None)."""
    try:
        return fn(*args), None
    except Exception as exc:
        return None, type(exc).__name__


def record_default() -> dict:
    params = core.derive_params()
    series = pde.run_simulation(params, core.RunConfig(**workloads.DEFAULT_CONFIG))
    c_num, _ = pde.estimate_wave_speed(series, workloads.SPEED_WINDOW)
    return {"h_end": float(series.h[-1]), "c_num": c_num}


def record_ensemble(rng: random.Random) -> list[dict]:
    pool = []
    for _ in range(ENSEMBLE_POOL):
        point = workloads.box_point(rng)
        n_nodes = workloads.resolution_nodes(point)
        series, error = outcome(
            pde.run_simulation, core.derive_params(**point), workloads.ensemble_config(n_nodes)
        )
        h_end = None if series is None else float(series.h[-1])
        pool.append({"params": point, "n_nodes": n_nodes, "h_end": h_end, "error": error})
    return pool


def record_match(rng: random.Random) -> list[dict]:
    pool = []
    for _ in range(MATCH_POOL):
        point = workloads.box_point(rng)
        params = core.derive_params(**point)
        entry = {"params": point}
        roots = []
        for operation, key in (("solve_c", "c"), ("solve_c_consistent", "c_consistent")):
            match, error = outcome(getattr(asymptotics, operation), params)
            entry[key] = None if match is None else match.c
            entry[f"{key}_error"] = error
            if match is not None:
                roots.append((key, match))
        for key, match in roots:
            _, entry[f"{key}_profile_error"] = outcome(
                asymptotics.build_wave_profile, match, params
            )
        _, entry["battery_error"] = outcome(verify.residual_battery, params)
        pool.append(entry)
    return pool


def main() -> None:
    rng = random.Random(POOL_SEED)
    reference = {
        "column_default": record_default(),
        "column_ensemble": record_ensemble(rng),
        "match_box": record_match(rng),
    }
    with open(workloads.REFERENCE_PATH, "w") as handle:
        handle.write(dump_lines(reference))


def dump_lines(reference: dict) -> str:
    """JSON with one pool point per line, so a re-record diffs point by point."""
    parts = []
    for key, value in reference.items():
        if isinstance(value, list):
            body = ",\n".join("  " + json.dumps(item) for item in value)
            parts.append(f' "{key}": [\n{body}\n ]')
        else:
            parts.append(f' "{key}": {json.dumps(value)}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    main()
