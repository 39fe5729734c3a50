"""Print one SHA-256 over the matching side's outcomes on the benchmark pool.

Two trees whose digests agree on one machine give bit-identical wave
speeds, wave profiles, outer profiles and residual batteries, and raise
the same errors, on all 2048 ``match_box`` points of
``bench/reference.json``, so a refactor of ``basinwave.asymptotics`` that
claims unchanged outcomes can show it by running this script on the parent
and on the change. The bytes depend on the numpy build, so the digest is
only comparable between runs on the same installation. The reference file
is read, never written.

For each point, in pool order, and for each of ``solve_c`` and
``solve_c_consistent``, the hash is fed the ``MatchResult`` repr, or the
error's type and message. Where that root exists it is then fed
``build_wave_profile``'s zeta, phi and psi bytes and the repr of its region
list, or its error, then ``solve_outer``'s four arrays, or its error.
Last, per point, it is fed ``repr(residual_battery(params).checks)``, or
its error.

Before the digest it prints one line per operation and outcome, with its
count over the pool: "result" or the error's type. The profile and outer
operations are named with the root they ran at. A change that is meant to
move some outcomes shows which ones here, where the digest only differs.

Run from the repository root: ``PYTHONPATH=src python tools/match_digest.py``.
It takes about 4 s on two cores.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from collections import Counter
from pathlib import Path

from basinwave import asymptotics
from basinwave.core import derive_params
from basinwave.errors import BasinwaveError
from basinwave.verify import residual_battery

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"


def _feed(sha, outcomes, operation, fn, *args, encode):
    """Feed ``encode(fn(*args))``, or the package error it raises, count the
    outcome under ``operation``, and return the result, or None on an error."""
    try:
        result = fn(*args)
    except BasinwaveError as exc:
        sha.update(f"{type(exc).__name__}: {exc}".encode())
        outcomes[operation, type(exc).__name__] += 1
        return None
    outcomes[operation, "result"] += 1
    for chunk in encode(result):
        sha.update(chunk)
    return result


def _profile_bytes(profile):
    yield from (profile.zeta.tobytes(), profile.phi.tobytes(), profile.psi.tobytes())
    yield repr(profile.region.tolist()).encode()


def _outer_bytes(outer):
    yield from (outer.zeta.tobytes(), outer.phi.tobytes(), outer.psi.tobytes(), outer.phi_zeta.tobytes())


def digest() -> tuple[str, Counter]:
    """The SHA-256 and the count of each (operation, outcome) pair."""
    sha = hashlib.sha256()
    outcomes = Counter()
    for point in json.loads(REFERENCE.read_text())["match_box"]:
        with warnings.catch_warnings():
            # points with a small beta warn that the thin-zone analysis is stretched
            warnings.simplefilter("ignore", UserWarning)
            params = derive_params(**point["params"])
            for solve in (asymptotics.solve_c, asymptotics.solve_c_consistent):
                root = solve.__name__
                match = _feed(sha, outcomes, root, solve, params, encode=lambda m: [repr(m).encode()])
                if match is not None:
                    _feed(sha, outcomes, f"build_wave_profile at {root}",
                          asymptotics.build_wave_profile, match, params, encode=_profile_bytes)
                    _feed(sha, outcomes, f"solve_outer at {root}",
                          asymptotics.solve_outer, match.c, params, encode=_outer_bytes)
            _feed(sha, outcomes, "residual_battery", residual_battery, params,
                  encode=lambda report: [repr(report.checks).encode()])
    return sha.hexdigest(), outcomes


if __name__ == "__main__":
    hexdigest, outcomes = digest()
    for (operation, outcome), count in sorted(outcomes.items()):
        print(f"{operation}: {outcome} x{count}")
    print(hexdigest)
