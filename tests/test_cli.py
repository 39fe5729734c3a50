import json
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from basinwave import pde, verify
from basinwave.cli import main, params_doc, parse_config
from basinwave.core import RunConfig, derive_params
from basinwave.errors import ValidationError
from conftest import alter_corrector


def assert_replay_identical(first, second):
    # every CSV and plot.gp byte for byte; manifests up to their timestamp
    files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    for rel in files:
        a, b = first / rel, second / rel
        if rel.name == "manifest.json":
            doc_a, doc_b = json.loads(a.read_text()), json.loads(b.read_text())
            del doc_a["created_utc"], doc_b["created_utc"]
            assert doc_a == doc_b
        else:
            assert a.read_bytes() == b.read_bytes(), rel


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# basinwave ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        params, config = parse_config("{}")
        assert params.lam == 1.0
        assert params.beta == 21.0
        assert params.m == 7
        assert params.phi0 == 0.5
        assert params.psi0 == 0.3
        assert params.a0 == 1.0
        assert params.zstar == 1.0
        assert params.sdot == 1.0
        defaults = RunConfig(n_nodes=16)
        assert config.dt == defaults.dt
        assert config.t_end == defaults.t_end
        # resolution rule: 8 * beta * (h0 + sdot * t_end)
        assert config.n_nodes == 1361

    def test_partial_override(self):
        params, _ = parse_config('{"sdot": 2.0}')
        assert params.sdot == 2.0
        assert params.beta == 21.0

    def test_minimum_permeability_exponent(self):
        with pytest.raises(ValidationError):
            parse_config('{"m": 5}')

    def test_unknown_keys_listed(self):
        with pytest.raises(ValidationError, match="bogus"):
            parse_config('{"bogus": 1, "sdot": 1.0}')

    def test_removed_exp_clamp_key_rejected(self):
        # the reaction-kernel clamp is a fixed solver constant
        with pytest.raises(ValidationError, match="unknown config keys: exp_clamp"):
            parse_config('{"exp_clamp": 50.0}')

    def test_type_mismatch_names_key(self):
        with pytest.raises(ValidationError, match="sdot"):
            parse_config('{"sdot": "fast"}')
        with pytest.raises(ValidationError, match="n_nodes"):
            parse_config('{"n_nodes": 100.5}')
        with pytest.raises(ValidationError, match="a0"):
            parse_config('{"a0": true}')

    def test_explicit_low_resolution_does_not_warn(self, tmp_path):
        # the grid is judged by the run that builds it, not at parse time
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n_nodes": 64}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse_config(cfg.read_text())
            assert main(["speed", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


class TestSpeedCommand:
    def test_written_schema_and_values(self, tmp_path):
        out = tmp_path / "run"
        assert main(["speed", "--out", str(out)]) == 0
        header, rows = read_csv(out / "speed.csv")
        assert header == ["c", "phi_inf", "C", "residual", "iterations"]
        c, phi_inf, C, residual, iterations = rows[0]
        assert abs(float(c) - 0.2494496288213327) <= 1e-6
        assert abs(float(residual)) <= 1e-10
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "speed"
        assert manifest["outputs"] == ["speed.csv"]

    def test_manifest_replay_is_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(["speed", "--out", str(first)]) == 0
        assert main(
            ["speed", "--seed-manifest", str(first / "manifest.json"), "--out", str(second)]
        ) == 0
        assert (first / "speed.csv").read_bytes() == (second / "speed.csv").read_bytes()

    def test_config_and_manifest_are_exclusive(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{}")
        code = main(
            ["speed", "--config", str(cfg), "--seed-manifest", str(cfg), "--out", str(tmp_path / "x")]
        )
        assert code == 1


class TestSweepCommand:
    def test_monotone_speeds_and_point_dirs(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--sweep", "sdot=0.5,1.0,2.0", "--out", str(out)]) == 0
        header, rows = read_csv(out / "sweep.csv")
        assert header == ["sdot", "c", "residual", "iterations"]
        speeds = [float(r[1]) for r in rows]
        assert len(speeds) == 3
        assert speeds[0] < speeds[1] < speeds[2]
        for k in range(3):
            assert (out / f"point_{k:03d}" / "speed.csv").exists()
            assert (out / f"point_{k:03d}" / "manifest.json").exists()

    def test_missing_axis_is_config_error(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path / "s")]) == 1

    # a run control cannot change the swept matching speed, and a repeated
    # key would give one column per copy but rows at its last value only
    @pytest.mark.parametrize(
        "axes",
        [["zz=1,2"], ["n_nodes=100,2000"], ["sdot=0.5,1.0", "sdot=2.0"]],
        ids=["unknown", "run-control", "repeated"],
    )
    def test_unknown_axis_rejected(self, tmp_path, capsys, axes):
        argv = ["sweep", "--out", str(tmp_path / "s")]
        for axis in axes:
            argv += ["--sweep", axis]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")


    # m = 7.0 is the m = 7 a config accepts; BasinParams stores both as 7
    @pytest.mark.parametrize(
        "axes, written",
        [
            (["m=7,9", "sdot=0.5,1"], [["7", "0.5"], ["7", "1.0"], ["9", "0.5"], ["9", "1.0"]]),
            (["m=7.0,1e1"], [["7"], ["10"]]),
        ],
        ids=["integers", "float-literals"],
    )
    def test_m_axis_is_written_as_stored(self, tmp_path, axes, written):
        out = tmp_path / "s"
        argv = ["sweep", "--out", str(out)]
        for axis in axes:
            argv += ["--sweep", axis]
        assert main(argv) == 0
        _, rows = read_csv(out / "sweep.csv")
        assert [r[: len(axes)] for r in rows] == written
        manifest = json.loads((out / "point_001" / "manifest.json").read_text())
        assert manifest["params"]["m"] == int(written[1][0])

    def test_fractional_m_axis_is_config_error(self, tmp_path, capsys):
        assert main(["sweep", "--sweep", "m=7.5", "--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err.startswith(
            "error: permeability exponent m must be an integer, got 7.5"
        )


class TestWaveCommand:
    def test_profile_csv(self, tmp_path):
        out = tmp_path / "wave"
        assert main(["wave", "--out", str(out), "--plot"]) == 0
        header, rows = read_csv(out / "profile.csv")
        assert header == ["zeta", "phi", "psi", "region"]
        regions = {r[3] for r in rows}
        assert regions == {"outer-above", "inner", "below"}
        assert (out / "plot.gp").read_text().count("profile.csv") >= 1


class TestSimulateCommand:
    def test_outputs_and_plot(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"t_end": 0.5, "dt": 0.005, "n_nodes": 96, "output_every": 0.1}')
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--plot"]) == 0
        header, rows = read_csv(out / "timeseries.csv")
        assert header == ["t", "h", "hdot"]
        assert float(rows[0][0]) == 0.0
        header, rows = read_csv(out / "profile.csv")
        assert header == ["z", "phi", "psi"]
        assert len(rows) == 96
        assert "timeseries.csv" in (out / "plot.gp").read_text()

    def test_manifest_carries_the_run_stats(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # 0.0725 is 14.5 steps of dt, so steps landing on a sample are shorter
        cfg.write_text('{"t_end": 1.0, "dt": 0.005, "n_nodes": 64, "output_every": 0.0725}')
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        stats = json.loads((out / "manifest.json").read_text())["stats"]
        _, config = parse_config(cfg.read_text())
        assert stats == asdict(pde.run_simulation(derive_params(), config).stats)
        assert stats["steps_rejected"] == 0
        assert stats["dt_min"] < config.dt < stats["dt_max"]
        # the start-up transient's estimates are above the growth limit,
        # which keeps the first steps at config.dt
        assert stats["estimate_max"] > pde._DT_GROWTH_LIMIT
        assert read_csv(out / "timeseries.csv")[0] == ["t", "h", "hdot"]

    def test_simulate_replay_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"t_end": 0.5, "dt": 0.005, "n_nodes": 256, "output_every": 0.1}')
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["simulate", "--seed-manifest", str(a / "manifest.json"), "--out", str(b)]) == 0
        assert (a / "timeseries.csv").read_bytes() == (b / "timeseries.csv").read_bytes()
        assert (a / "profile.csv").read_bytes() == (b / "profile.csv").read_bytes()


class TestReplay:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["wave", "--plot"], 0),
            (["verify"], 3),
            (["sweep", "--plot", "--sweep", "sdot=0.5,1.0", "--sweep", "beta=21,30"], 0),
        ],
        ids=["wave", "verify", "sweep"],
    )
    def test_replay_is_byte_identical(self, tmp_path, argv, code):
        # the 288-node verify run fails its speed gap on both runs; the
        # sweep manifest does not record the axes, so they are given again
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"t_end": 2.0, "dt": 0.002, "n_nodes": 288, "output_every": 0.05}')
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([*argv, "--config", str(cfg), "--out", str(a)]) == code
        assert main([*argv, "--seed-manifest", str(a / "manifest.json"), "--out", str(b)]) == code
        assert_replay_identical(a, b)

    def test_whole_float_n_nodes_manifest_replays(self, tmp_path):
        # a manifest resolves n_nodes = 96.0 as a config does
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"t_end": 0.5, "dt": 0.005, "n_nodes": 96.0, "output_every": 0.1}')
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
        doc = json.loads((a / "manifest.json").read_text())
        assert doc["config"]["n_nodes"] == 96
        doc["config"]["n_nodes"] = 96.0
        manifest = tmp_path / "float.json"
        manifest.write_text(json.dumps(doc))
        assert main(["simulate", "--seed-manifest", str(manifest), "--out", str(b)]) == 0
        assert_replay_identical(a, b)

    def test_sweep_point_replays_through_speed(self, tmp_path):
        sweep, point = tmp_path / "sweep", tmp_path / "point"
        assert main(["sweep", "--sweep", "sdot=0.5,1.0", "--out", str(sweep)]) == 0
        manifest = sweep / "point_001" / "manifest.json"
        assert main(["speed", "--seed-manifest", str(manifest), "--out", str(point)]) == 0
        assert_replay_identical(sweep / "point_001", point)


class TestResolutionWarning:
    # the first step that takes the layer into the column (h > zstar) ends
    # at t = 1.15, where 8*beta*h = 171 exceeds the 160 nodes
    CONFIG = '{"n_nodes": 160, "dt": 0.005, "t_end": 1.2, "output_every": 0.1}'

    def test_simulate_warns_once_layer_is_in_column(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(self.CONFIG)
        with pytest.warns(UserWarning, match=r"reaction layer under-resolved at t = 1\.15: .* = 171$"):
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_speed_ignores_n_nodes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(self.CONFIG)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["speed", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


class TestExitCodes:
    def test_validation_error_is_1(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"m": 5}')
        assert main(["speed", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("command", ["speed", "wave", "simulate"])
    def test_zero_beta_is_1(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"beta": 0}')
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: activation energy beta must be > 0")

    @pytest.mark.parametrize(
        "text, message",
        [("{not json", "config is not valid JSON"), ("[1, 2]", "config document must be a JSON object")],
        ids=["not-json", "array"],
    )
    def test_undecodable_config_document_is_1(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["speed", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "axis, message",
        [
            ("sdot=", "sweep axis 'sdot=' has no values"),
            ("sdot=abc", "sweep axis 'sdot=abc': could not convert string to float: 'abc'"),
        ],
        ids=["no-values", "not-a-number"],
    )
    def test_malformed_sweep_axis_is_1(self, tmp_path, capsys, axis, message):
        assert main(["sweep", "--sweep", axis, "--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_unreadable_config_is_1(self, tmp_path):
        assert main(["speed", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("flag, what", [("--config", "config"), ("--seed-manifest", "manifest")])
    def test_non_utf8_input_is_1(self, tmp_path, capsys, flag, what):
        path = tmp_path / "input.json"
        path.write_bytes(b'{"m": 7\xff}')
        assert main(["speed", flag, str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {what}: 'utf-8' codec can't decode")

    # an --out under a regular file, one that is a regular file, and one
    # where an output file's name is taken by a directory
    @pytest.mark.parametrize("out", ["file/sub", "file", "taken"], ids=["under-file", "is-file", "csv-is-dir"])
    def test_unwritable_out_is_1(self, tmp_path, capsys, out):
        (tmp_path / "file").write_text("")
        (tmp_path / "taken" / "speed.csv").mkdir(parents=True)
        assert main(["speed", "--out", str(tmp_path / out)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write output: ")

    @pytest.mark.parametrize(
        "text",
        [
            '{"m": NaN}',
            '{"m": Infinity}',
            '{"n_nodes": Infinity}',
            '{"beta": NaN}',
            '{"sdot": Infinity, "n_nodes": 2000}',
            '{"lambda": NaN, "n_nodes": 2000}',
            '{"t_end": Infinity}',
            '{"h0": NaN}',
        ],
        ids=["m-nan", "m-inf", "n_nodes-inf", "beta-nan", "sdot-inf", "lambda-nan", "t_end-inf", "h0-nan"],
    )
    def test_nonfinite_config_is_1(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["speed", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("text", ['{"sdot": 1e308}'], ids=["default-n_nodes"])
    def test_resolution_rule_overflow_is_1(self, tmp_path, capsys, text):
        # finite inputs whose 8*beta*(h0 + sdot*t_end) overflows to inf
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["speed", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "command, message",
        [
            ("speed", "no sign change"),
            ("wave", "no sign change"),
            ("verify", "no sign change"),
            ("simulate", "advection hdot/(2 h dx) is not finite at t = 0"),
        ],
        ids=["speed", "wave", "verify", "simulate"],
    )
    @pytest.mark.filterwarnings("error")
    def test_huge_sdot_with_given_n_nodes_is_2(self, tmp_path, capsys, command, message):
        # an explicit n_nodes skips the resolution rule, so the solvers meet
        # the overflowing sedimentation rate and fail with a typed error and
        # no numpy warning; no time step makes the simulation's advection finite
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"sdot": 1e308, "n_nodes": 2000}')
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"solver failure: {message}")

    @pytest.mark.parametrize(
        "text",
        [
            None,
            "{not json",
            json.dumps({"config": asdict(RunConfig())}),
            json.dumps(
                {
                    "params": params_doc(derive_params()),
                    "config": {**asdict(RunConfig()), "newton_max": 25},
                }
            ),
            json.dumps(
                {
                    "params": params_doc(derive_params()),
                    "config": {**asdict(RunConfig()), "corrector_iters": 2, "newton_tol": 1e-10},
                }
            ),
            json.dumps(
                {
                    "params": {**params_doc(derive_params()), "m": "abc"},
                    "config": asdict(RunConfig()),
                }
            ),
            json.dumps(
                {
                    "params": params_doc(derive_params()),
                    "config": {**asdict(RunConfig()), "exp_clamp": 50.0},
                }
            ),
            json.dumps(
                {
                    "params": {**params_doc(derive_params()), "exp_clamp": 50.0},
                    "config": asdict(RunConfig()),
                }
            ),
            json.dumps(
                {
                    "params": params_doc(derive_params()),
                    "config": {k: v for k, v in asdict(RunConfig()).items() if k != "dt"},
                }
            ),
            json.dumps(
                {
                    "params": params_doc(derive_params()),
                    "config": {**asdict(RunConfig()), "n_nodes": 100.5},
                }
            ),
            json.dumps(
                {
                    "params": params_doc(derive_params()),
                    "config": {**asdict(RunConfig()), "dt": True},
                }
            ),
            json.dumps(
                {
                    "params": {**params_doc(derive_params()), "a0": True},
                    "config": asdict(RunConfig()),
                }
            ),
        ],
        ids=[
            "missing-file",
            "not-json",
            "missing-key",
            "unknown-config-key",
            "removed-corrector-keys",
            "non-numeric-param",
            "removed-exp-clamp-key",
            "unknown-param-key",
            "missing-run-key",
            "float-n-nodes",
            "bool-dt",
            "bool-param",
        ],
    )
    def test_malformed_manifest_is_1(self, tmp_path, capsys, text):
        manifest = tmp_path / "manifest.json"
        if text is not None:
            manifest.write_text(text)
        code = main(["speed", "--seed-manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [["speed", "--plot"], ["verify", "--plot"], ["speed", "--bogus"], []],
        ids=["speed-plot", "verify-plot", "unknown-flag", "no-subcommand"],
    )
    def test_usage_error_is_1(self, tmp_path, capsys, argv):
        # exit 2 is the solver-failure code, so argparse's own 2 is not used
        argv = argv and [*argv, "--out", str(tmp_path / "o")]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_solver_failure_is_2(self, tmp_path):
        cfg = tmp_path / "env.json"
        cfg.write_text('{"sdot": 0.0}')
        assert main(["speed", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_diverged_corrector_is_2(self, tmp_path, capsys, monkeypatch):
        alter_corrector(monkeypatch, lambda phi, psi: (10.0 * phi, psi))
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n_nodes": 64, "t_end": 0.01}')
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(
            "solver failure: time step collapsed below 1.953e-06 at t = 0: corrector update "
        )

    def test_collapsed_time_step_is_2(self, tmp_path, capsys):
        # the coarse grid keeps rejecting steps once the layer is in the
        # column; the run must stop at the dt/1024 floor instead of crawling
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n_nodes": 64, "t_end": 1.5}')
        with pytest.warns(UserWarning, match="under-resolved at t = 1.15"):
            code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "solver failure: time step collapsed below 1.953e-06 at t = 1.46419: "
            "reactant went negative"
        )

    def test_verify_too_short_for_speed_fit_is_1_before_any_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        # t_end / output_every allows at most 21 samples, 7 in the 0.3 window
        def unreachable(*args, **kwargs):
            raise AssertionError("solver reached")

        monkeypatch.setattr(verify, "residual_battery", unreachable)
        monkeypatch.setattr(pde, "run_simulation", unreachable)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"t_end": 1.0, "dt": 0.002, "n_nodes": 288, "output_every": 0.05}')
        out = tmp_path / "v"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: speed fit needs >= 10 samples in the window, got 7 (21 total"
        )
        assert not (out / "report.csv").exists()

    def test_unallocatable_n_nodes_is_1(self, tmp_path, capsys):
        # numpy refuses 1e20 nodes without trying to allocate them
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n_nodes": 1e20, "t_end": 0.01}')
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: n_nodes = 100000000000000000000 ")

    def test_verify_failure_is_3(self, tmp_path, capsys):
        # a short horizon leaves the boundary speed far from the matching
        # root, so the primary gap check fails and verify exits 3
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"t_end": 2.0, "dt": 0.002, "n_nodes": 288, "output_every": 0.05}'
        )
        out = tmp_path / "v"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
        header, rows = read_csv(out / "report.csv")
        assert header == ["check", "value", "tolerance", "pass"]
        assert any(r[0] == "speed_gap_matched" and r[3] == "false" for r in rows)
        assert "verification failed" in capsys.readouterr().err
