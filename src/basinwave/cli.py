"""Command-line driver: config ingestion, batch execution, CSV serialization,
manifest bookkeeping, and gnuplot script emission.

Subcommands: simulate | wave | speed | verify | sweep. Exit codes: 0 ok,
1 config/validation error, 2 solver failure, 3 verification failure.

Output files carry a schema-version comment line and contain no wall-clock
data; timestamps live only in the run manifest, so identical manifests
reproduce outputs byte for byte.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, asymptotics, pde, verify
from .core import BasinParams, RunConfig, resolution_nodes
from .errors import BasinwaveError, SolverError, ValidationError

PARAM_KEYS = {
    "lambda": "lam",
    "beta": "beta",
    "m": "m",
    "phi0": "phi0",
    "psi0": "psi0",
    "a0": "a0",
    "zstar": "zstar",
    "sdot": "sdot",
}
RUN_KEYS = ("n_nodes", "dt", "t_end", "h0", "output_every")


def parse_config(text: str) -> tuple[BasinParams, RunConfig]:
    """Parse a JSON configuration document.

    Missing keys take the documented defaults (lambda=1, beta=21, m=7,
    phi0=0.5, psi0=0.3, a0=1, zstar=1, sdot=1; run controls from
    :class:`RunConfig`). n_nodes defaults to the reaction-layer resolution
    rule 8*beta*(h0 + sdot*t_end). Unknown keys are rejected here; the
    values are checked by :class:`BasinParams` and :class:`RunConfig`.
    """
    try:
        doc = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("config document must be a JSON object")

    unknown = sorted(set(doc) - set(PARAM_KEYS) - set(RUN_KEYS))
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")

    params = BasinParams(**{attr: doc[key] for key, attr in PARAM_KEYS.items() if key in doc})

    run_kwargs = {k: doc[k] for k in RUN_KEYS if k in doc}
    if "n_nodes" in run_kwargs:
        # a config may write 1e3 or 1000.0 for 1000; a fractional n_nodes
        # reaches RunConfig and is refused there, never truncated
        n_nodes = run_kwargs["n_nodes"]
        if isinstance(n_nodes, float) and n_nodes.is_integer():
            run_kwargs["n_nodes"] = int(n_nodes)
    else:
        # validates h0 and t_end before they enter the resolution rule
        probe = RunConfig(n_nodes=16, **run_kwargs)
        run_kwargs["n_nodes"] = max(16, resolution_nodes(params, probe))
    return params, RunConfig(**run_kwargs)


def params_doc(params: BasinParams) -> dict:
    return {key: getattr(params, attr) for key, attr in PARAM_KEYS.items()}


def load_manifest(path: Path) -> tuple[BasinParams, RunConfig]:
    """Resolved inputs of a previous run; a malformed manifest is a ValidationError."""
    try:
        doc = json.loads(path.read_text())
        params = BasinParams(**{attr: doc["params"][key] for key, attr in PARAM_KEYS.items()})
        return params, RunConfig(**doc["config"])
    except OSError as exc:
        raise ValidationError(f"cannot read manifest: {exc}") from exc
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValidationError(f"malformed manifest: {exc!r}") from exc


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, schema_name: str, columns, rows) -> Path:
    lines = [f"# basinwave {schema_name} schema v1", ",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    return path


def _record(out_dir: Path, subcommand: str, params, config, tables, plot=None, stats=None) -> None:
    """Write each ``(file name, schema, columns, rows)`` table as a CSV, then
    ``plot.gp`` from the gnuplot stanzas in ``plot`` if given, then
    ``manifest.json``: the fully resolved inputs and the outputs they
    produced, in that order, and the run's :class:`pde.RunStats` if given.
    The stats never enter a CSV, so replayed CSVs stay byte-identical."""
    outputs = [
        write_csv(out_dir / name, schema, columns, rows)
        for name, schema, columns, rows in tables
    ]
    if plot:
        path = out_dir / "plot.gp"
        lines = [
            "# gnuplot script; run: gnuplot -p plot.gp",
            'set datafile separator ","',
            "set key autotitle columnhead",
            *plot,
        ]
        path.write_text("\n".join(lines) + "\n")
        outputs.append(path)
    doc = {
        "tool": "basinwave",
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "subcommand": subcommand,
        "params": params_doc(params),
        "config": asdict(config),
        "outputs": [p.name for p in outputs],
    }
    if stats is not None:
        doc["stats"] = asdict(stats)
    (out_dir / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_simulate(args, params, config, out_dir: Path) -> int:
    series = pde.run_simulation(params, config)
    final = series.final_state
    z = np.linspace(0.0, 1.0, config.n_nodes) * final.h
    tables = [
        ("timeseries.csv", "timeseries", ("t", "h", "hdot"), zip(series.t, series.h, series.hdot)),
        ("profile.csv", "profile", ("z", "phi", "psi"), zip(z, final.phi, final.psi)),
    ]
    plot = [
        'set xlabel "t"',
        'plot "timeseries.csv" using 1:2 with lines title "h(t)", \\',
        '     "timeseries.csv" using 1:3 with lines title "dh/dt"',
    ]
    _record(out_dir, "simulate", params, config, tables, plot if args.plot else None, series.stats)
    return 0


def cmd_wave(args, params, config, out_dir: Path) -> int:
    match = asymptotics.solve_c(params)
    profile = asymptotics.build_wave_profile(match, params)
    rows = zip(profile.zeta, profile.phi, profile.psi, profile.region)
    plot = [
        'set xlabel "zeta"',
        'plot "profile.csv" using 1:2 with lines title "phi", \\',
        '     "profile.csv" using 1:3 with lines title "psi"',
    ]
    table = ("profile.csv", "wave-profile", ("zeta", "phi", "psi", "region"), rows)
    _record(out_dir, "wave", params, config, [table], plot if args.plot else None)
    return 0


def _speed_table(match) -> tuple:
    columns = ("c", "phi_inf", "C", "residual", "iterations")
    rows = [(match.c, match.Phi_inf, match.C, match.residual, match.iterations)]
    return ("speed.csv", "speed", columns, rows)


def cmd_speed(args, params, config, out_dir: Path) -> int:
    _record(out_dir, "speed", params, config, [_speed_table(asymptotics.solve_c(params))])
    return 0


def cmd_verify(args, params, config, out_dir: Path) -> int:
    # a horizon with too few samples for the speed fit is refused before any solve
    pde.speed_window(pde.sample_bound(config))
    report = verify.residual_battery(params)
    report.extend(verify.cross_validate_speed(params, config))
    table = ("report.csv", "report", ("check", "value", "tolerance", "pass"), report.rows())
    _record(out_dir, "verify", params, config, [table])
    print(report)
    if not report.all_passed():
        failed = ", ".join(c.name for c in report.failures())
        print(f"verification failed: {failed}", file=sys.stderr)
        return 3
    return 0


def _parse_sweep_axes(specs: list[str]) -> dict[str, list[float]]:
    axes = {}
    for axis in specs:
        key, _, values = axis.partition("=")
        key = key.strip()
        if key not in PARAM_KEYS:
            raise ValidationError(
                f"cannot sweep '{key}': axes are the physical parameters "
                + ", ".join(PARAM_KEYS)
            )
        if key in axes:
            raise ValidationError(f"sweep axis '{key}' is given more than once")
        if not values:
            raise ValidationError(f"sweep axis '{axis}' has no values")
        try:
            axes[key] = [
                int(v) if key == "m" else float(v)
                for v in values.split(",")
            ]
        except ValueError as exc:
            raise ValidationError(f"sweep axis '{axis}': {exc}") from exc
    return axes


def cmd_sweep(args, params, config, out_dir: Path) -> int:
    if not args.sweep:
        raise ValidationError("sweep needs at least one --sweep key=v1,v2,... axis")
    axes = _parse_sweep_axes(args.sweep)

    rows = []
    keys = list(axes)
    for index, combo in enumerate(itertools.product(*axes.values())):
        p_i = replace(params, **{PARAM_KEYS[k]: v for k, v in zip(keys, combo)})
        match = asymptotics.solve_c(p_i)
        point_dir = out_dir / f"point_{index:03d}"
        point_dir.mkdir(parents=True, exist_ok=True)
        _record(point_dir, "speed", p_i, config, [_speed_table(match)])
        rows.append((*combo, match.c, match.residual, match.iterations))

    table = ("sweep.csv", "sweep", (*keys, "c", "residual", "iterations"), rows)
    plot = [
        f'set xlabel "{keys[0]}"',
        f'plot "sweep.csv" using 1:{len(keys) + 1} with linespoints title "c"',
    ]
    _record(out_dir, "sweep", params, config, [table], plot if args.plot else None)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like every other config error, since exit 2
    means a solver failure."""

    def error(self, message):
        self.exit(1, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="basinwave",
        description="Reactive compaction in a sedimenting porous column: "
        "moving-boundary simulation and traveling-wave analysis.",
    )
    parser.add_argument("--version", action="version", version=f"basinwave {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="JSON configuration file")
    common.add_argument(
        "--out", type=Path, default=Path("basinwave_out"), help="output directory"
    )
    common.add_argument(
        "--seed-manifest", type=Path, help="re-run from a previous manifest.json"
    )

    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, func, desc in (
        ("simulate", cmd_simulate, "run the moving-boundary solver"),
        ("wave", cmd_wave, "build the traveling-wave profile"),
        ("speed", cmd_speed, "solve the wave-speed matching equation"),
        ("verify", cmd_verify, "run the verification battery"),
        ("sweep", cmd_sweep, "cartesian parameter sweep of the wave speed"),
    ):
        p = sub.add_parser(name, parents=[common], help=desc)
        p.set_defaults(func=func)
        if name in ("simulate", "wave", "sweep"):
            p.add_argument("--plot", action="store_true", help="emit a gnuplot script")
        if name == "sweep":
            p.add_argument(
                "--sweep",
                action="append",
                metavar="KEY=V1,V2,...",
                help="sweep axis (repeatable; cartesian product)",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed_manifest is not None:
            if args.config is not None:
                raise ValidationError("give either --config or --seed-manifest, not both")
            params, config = load_manifest(args.seed_manifest)
        elif args.config is not None:
            try:
                text = args.config.read_text()
            except OSError as exc:
                raise ValidationError(f"cannot read config: {exc}") from exc
            params, config = parse_config(text)
        else:
            params, config = parse_config("{}")
        args.out.mkdir(parents=True, exist_ok=True)
        return args.func(args, params, config, args.out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except BasinwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
