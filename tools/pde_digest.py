"""Print one SHA-256 over the outputs of a fixed set of simulations.

Two trees whose digests agree on one machine produce bit-identical
simulation outputs there, so a refactor of ``basinwave.pde`` that claims
unchanged outputs can show it by running this script on the parent and on
the change. The bytes depend on the numpy and LAPACK builds, so the digest
is only comparable between runs on the same installation.

For each run, in order, the hash is fed the bytes of ``t``, ``h``,
``hdot`` and the final phi and psi, then ``repr((final t, final h,
stats))``. The runs are the default ``run_simulation``, the four configs
the CI workflow simulates (coarse, oversized, sim and verify) at the
default parameters, and the 64 ``column_ensemble`` points of
``bench/reference.json`` with dt 2e-3, t_end 2, h0 0.1 and output_every
0.05.

Run from the repository root: ``PYTHONPATH=src python tools/pde_digest.py``.
It takes 3-4 s on two cores (3.1 s and 3.8 s measured).
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path

from basinwave.core import RunConfig, derive_params
from basinwave.pde import run_simulation

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"

# (n_nodes, dt, t_end, output_every) of the CI workflow's simulate configs
CI_CONFIGS = {
    "coarse": (64, 0.05, 1.0, 0.25),
    "oversized": (288, 1.0, 2.0, 1.0),
    "sim": (96, 0.005, 0.5, 0.1),
    "verify": (288, 0.002, 2.0, 0.05),
}


def runs():
    """(params, config) of every digested run, in digest order."""
    yield derive_params(), RunConfig()
    for n_nodes, dt, t_end, output_every in CI_CONFIGS.values():
        yield derive_params(), RunConfig(n_nodes=n_nodes, dt=dt, t_end=t_end, output_every=output_every)
    for point in json.loads(REFERENCE.read_text())["column_ensemble"]:
        config = RunConfig(n_nodes=point["n_nodes"], dt=2e-3, t_end=2.0, h0=0.1, output_every=0.05)
        yield derive_params(**point["params"]), config


def digest() -> str:
    sha = hashlib.sha256()
    for params, config in runs():
        with warnings.catch_warnings():
            # runs below the resolution rule warn that the layer is under-resolved
            warnings.simplefilter("ignore", UserWarning)
            series = run_simulation(params, config)
        final = series.final_state
        for array in (series.t, series.h, series.hdot, final.phi, final.psi):
            sha.update(array.tobytes())
        sha.update(repr((final.t, final.h, series.stats)).encode())
    return sha.hexdigest()


if __name__ == "__main__":
    print(digest())
