import json

import numpy as np
import pytest

from socmorse.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    RunConfig,
    build_transfer_spec,
    cmd_scan,
    config_to_text,
    main,
    parse_config_text,
)
from socmorse.errors import ConfigError
from socmorse.morse import MorseSpec, matrix_elements

def read_csv(path):
    """Header line and the numeric rows of a CLI CSV artifact."""
    header, *lines = path.read_text().splitlines()
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines])
    return header, rows


CANONICAL = """
# canonical transfer problem
transfer.depth_A = 8
transfer.alpha = 1.6
transfer.t_f = 10
design.c = 0.1
"""


class TestConfigParsing:
    def test_defaults(self):
        cfg = parse_config_text("")
        assert cfg == RunConfig()
        assert cfg.depth_A == 8.0
        assert cfg.scheme == "raman"

    def test_comments_and_values(self):
        cfg = parse_config_text(CANONICAL)
        assert cfg.depth_A == 8.0
        assert cfg.c == 0.1

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("transfer.mass = 1")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("design.c = 0.1\ndesign.c = 0.2")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("grid.points = many")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just some text")

    def test_range_grid(self):
        cfg = parse_config_text("noise.lambda = 0:1:0.5")
        assert cfg.lambda_grid == (0.0, 0.5, 1.0)

    def test_list_grid(self):
        cfg = parse_config_text("noise.lambda_prime = 0.1, 0.4, 0.9")
        assert cfg.lambda_prime_grid == (0.1, 0.4, 0.9)

    def test_snapshot_round_trip(self):
        cfg = parse_config_text(CANONICAL)
        again = parse_config_text(config_to_text(cfg))
        assert again == cfg

    def test_interacting_default_couplings(self):
        cfg = parse_config_text("transfer.scheme = so_direction_interacting")
        spec = build_transfer_spec(cfg)
        assert spec.g11 == pytest.approx(0.3, rel=1e-10)
        assert spec.g22 == pytest.approx(0.2, abs=0.005)
        assert spec.g12 == pytest.approx(0.115, abs=0.005)


class TestCommands:
    def test_design_artifacts_and_endpoints(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["design", "--out-dir", str(out)])
        assert code == EXIT_OK
        sidecar = json.loads((out / "schedule.json").read_text())
        assert sidecar["endpoints"]["b_start"] == pytest.approx(2.85, abs=1e-9)
        assert sidecar["endpoints"]["b_end"] == pytest.approx(3.15, abs=1e-9)
        assert sidecar["delta_e"] == pytest.approx(0.15)
        manifest = json.loads((out / "manifest.json").read_text())
        emitted = {p.name for p in out.iterdir()} - {"manifest.json"}
        listed = {path.rsplit("/", 1)[-1] for path in manifest["artifacts"]}
        assert emitted == listed  # every emitted file is in the manifest

    def test_design_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["design", "--out-dir", str(out1)]) == EXIT_OK
        assert main(["design", "--out-dir", str(out2)]) == EXIT_OK
        assert (out1 / "schedule.csv").read_bytes() == (out2 / "schedule.csv").read_bytes()
        assert (out1 / "config_snapshot.txt").read_bytes() == \
            (out2 / "config_snapshot.txt").read_bytes()

    def test_design_wide_gap_sidecar(self, tmp_path):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("design.c = 1.5\n")
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        sidecar = json.loads((out / "schedule.json").read_text())
        assert sidecar["delta_e"] == pytest.approx(2.25)

    def test_simulate_twolevel(self, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--engine", "twolevel", "--out-dir", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["final_fidelity"] >= 1 - 1e-6
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header.startswith("t,re_c1,im_c1,re_c2,im_c2,Px,Py,Pz")

    def test_simulate_grid_small(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("grid.points = 1024\ngrid.dt = 0.002\n")
        out = tmp_path / "out"
        code = main(["simulate", "--engine", "grid", "--config", str(cfg),
                     "--out-dir", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["final_fidelity"] == pytest.approx(0.9966, abs=0.003)
        assert report["Pz_end"] == pytest.approx(-1.0, abs=0.01)
        density = (out / "final_density.csv").read_text().splitlines()
        assert density[0] == "x,dens_up,dens_down,dens_target"

    def test_simulate_grid_deterministic(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("grid.points = 1024\ngrid.dt = 0.002\n")
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["simulate", "--engine", "grid", "--config", str(cfg),
                         "--out-dir", str(out)]) == EXIT_OK
        for name in ("grid_report.csv", "final_density.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_simulate_grid_raman_mean_field(self, tmp_path):
        # a Raman config with a raw coupling runs the grid engine's
        # per-point mean-field step
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("transfer.scheme = raman\ninteraction.g_uu = 0.1\n"
                       "grid.points = 512\ntransfer.t_f = 1\n")
        out = tmp_path / "out"
        code = main(["simulate", "--engine", "grid", "--config", str(cfg),
                     "--out-dir", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert np.isfinite(report["final_fidelity"])

    def test_negative_grid_dt_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("grid.dt = -0.001\n")
        code = main(["simulate", "--engine", "grid", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")])
        assert code != EXIT_OK
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command, setting", [
        (["design"], "transfer.t_f = -1"),
        (["simulate", "--engine", "twolevel"], "transfer.t_f = -1"),
        (["simulate", "--engine", "grid"], "grid.points = 1000"),
        (["design"], "design.sample_count = 8"),
        (["simulate", "--engine", "grid"], "grid.dt = inf"),
        (["simulate", "--engine", "twolevel"], "grid.dt = inf"),
        (["simulate", "--engine", "twolevel"], "transfer.t_f = 1e150"),  # step count
        (["simulate", "--engine", "twolevel"], "transfer.t_f = 1e7"),
        (["inspect"], "transfer.depth_A = 1e300"),  # eta above MAX_ETA
        (["design"], "transfer.depth_A = 1e300"),
    ])
    def test_config_domain_error_exits_config(self, tmp_path, capsys, command, setting):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(setting + "\n")
        code = main(command + ["--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["design", "inspect"])
    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "1e308"])
    def test_non_finite_alpha_exits_config(self, tmp_path, capsys, command, alpha):
        cfg = tmp_path / "alpha.cfg"
        cfg.write_text(f"transfer.alpha = {alpha}\n")
        code = main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "alpha" in err

    @pytest.mark.parametrize("depth", ["inf", "1e308"])
    def test_infinite_depth_exits_config(self, tmp_path, capsys, depth):
        cfg = tmp_path / "depth.cfg"
        cfg.write_text(f"transfer.depth_A = {depth}\n")
        code = main(["design", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "depth" in err

    @pytest.mark.parametrize("setting", ["grid.x_min = -inf", "grid.x_max = inf",
                                         "grid.x_max = 1e308"])
    def test_non_finite_grid_bounds_exit_config(self, tmp_path, capsys, setting):
        # 1e308 passes the grid's own checks; the state it gives is not finite
        cfg = tmp_path / "bounds.cfg"
        cfg.write_text(setting + "\n")
        code = main(["simulate", "--engine", "grid", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("t_f", ["inf", "1e200", "1e308"])
    def test_huge_t_f_exits_config(self, tmp_path, capsys, t_f):
        cfg = tmp_path / "t_f.cfg"
        cfg.write_text(f"transfer.t_f = {t_f}\n")
        code = main(["design", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "t_f" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind, settings", [
        ("systematic", "noise.lambda = -0.2:0.2:0.1\n"),
        ("noise", "noise.lambda_prime = 0, 0.5\nnoise.trajectories = 100\n"),
    ])
    def test_scan_deterministic(self, tmp_path, kind, settings):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("transfer.scheme = so_direction_interacting\ntransfer.t_f = 4\n"
                       + settings)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["scan", "--config", str(cfg), "--kind", kind,
                         "--out-dir", str(out)]) == EXIT_OK
        for suffix in ("_noninteracting", "_interacting"):
            name = f"scan_{kind}{suffix}.csv"
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("trajectories", [50, -1])
    def test_too_few_trajectories_rejected_before_scan(self, tmp_path, capsys, trajectories):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("transfer.scheme = so_direction\ntransfer.t_f = 4\n"
                       f"noise.lambda_prime = 0, 0.5\nnoise.trajectories = {trajectories}\n")
        out = tmp_path / "out"
        code = main(["scan", "--config", str(cfg), "--kind", "noise", "--out-dir", str(out)])
        assert code == EXIT_CONFIG
        assert "noise.trajectories" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("via", ["config", "flag"])
    def test_negative_seed_rejected_before_scan(self, tmp_path, capsys, via):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("transfer.scheme = so_direction\ntransfer.t_f = 4\n"
                       "noise.lambda_prime = 0, 0.5\nnoise.trajectories = 100\n"
                       + ("noise.seed = -1\n" if via == "config" else ""))
        out = tmp_path / "out"
        flag = ["--seed", "-1"] if via == "flag" else []
        code = main(["scan", "--config", str(cfg), "--kind", "noise", *flag,
                     "--out-dir", str(out)])
        assert code == EXIT_CONFIG
        assert "noise.seed" in capsys.readouterr().err
        assert not out.exists()

    def test_scan_seed_override_in_manifest(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("transfer.scheme = so_direction\ntransfer.t_f = 4\n"
                       "noise.lambda_prime = 0, 0.5\nnoise.trajectories = 100\n")
        out = tmp_path / "out"
        assert main(["scan", "--config", str(cfg), "--kind", "noise", "--seed", "7",
                     "--out-dir", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["noise.seed"] == 7
        assert "noise.seed = 7\n" in (out / "config_snapshot.txt").read_text()

    def test_diverging_noise_point_counted(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("transfer.scheme = so_direction\ntransfer.t_f = 4\n"
                       "noise.lambda_prime = 0, 1e200, 0.1\n")
        out = tmp_path / "out"
        main(["scan", "--config", str(cfg), "--kind", "noise", "--out-dir", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scalars"]["failed_points"] == 1

    def test_scan_grid_engine_rejected_for_noise(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("transfer.scheme = so_direction\n")
        code = main(["scan", "--config", str(cfg), "--kind", "noise",
                     "--engine", "grid", "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG

    def test_systematic_scan_curvature_scalar(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("transfer.scheme = so_direction\nnoise.lambda = -0.15:0.15:0.05\n")
        out = tmp_path / "out"
        code = main(["scan", "--config", str(cfg), "--kind", "systematic",
                     "--out-dir", str(out)])
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scalars"]["curvature_at_zero"] < 0.0

    def test_scan_requires_tilt_scheme(self, tmp_path):
        out = tmp_path / "out"
        code = main(["scan", "--kind", "systematic", "--out-dir", str(out)])
        assert code == EXIT_CONFIG

    def test_scan_systematic(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("transfer.scheme = so_direction\nnoise.lambda = -0.2:0.2:0.2\n")
        out = tmp_path / "out"
        code = main(["scan", "--config", str(cfg), "--kind", "systematic",
                     "--out-dir", str(out)])
        assert code == EXIT_OK
        lines = (out / "scan_systematic.csv").read_text().splitlines()
        assert lines[0] == "lambda,fidelity"
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert rows.shape == (3, 2)
        assert rows[1, 1] == max(rows[:, 1])  # peak at zero error

    def test_scan_noise_with_oracle_column(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "transfer.scheme = so_direction\n"
            "noise.lambda_prime = 0.0, 0.5\n"
            "noise.trajectories = 150\n"
        )
        out = tmp_path / "out"
        code = main(["scan", "--config", str(cfg), "--kind", "noise",
                     "--out-dir", str(out)])
        assert code == EXIT_OK
        lines = (out / "scan_noise.csv").read_text().splitlines()
        assert lines[0] == "lambda_prime,fidelity,oracle_fidelity,oracle_stderr"
        first = [float(v) for v in lines[1].split(",")]
        assert abs(first[1] - first[2]) <= 1e-6  # no noise: oracle is exact

    def test_empty_scan_grid_is_config_error(self, ctx, tmp_path):
        from dataclasses import replace

        cfg = replace(RunConfig(), scheme="so_direction", lambda_grid=())
        with pytest.raises(ConfigError):
            cmd_scan(cfg, "systematic", str(tmp_path / "out"))

    def test_missing_config_file(self, tmp_path):
        code = main(["design", "--config", str(tmp_path / "nope.cfg"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG

    def test_infeasible_design_exit_code(self, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("transfer.alpha = 0\n")
        code = main(["design", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG

    def test_inspect_runs(self, capsys, tmp_path):
        code = main(["inspect", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert "bound states" in captured
        info = json.loads((tmp_path / "inspect.json").read_text())
        assert info["bound_count"] == 4
        assert info["levels"][0]["energy"] == -6.125


_TWOLEVEL = ["simulate", "--engine", "twolevel"]
_GRID = ["simulate", "--engine", "grid"]
_SYSTEMATIC = ["scan", "--kind", "systematic"]
_NOISE = ["scan", "--kind", "noise"]

# Every numeric config key: the command that reads it, the settings it runs
# with (the interaction keys under each of the three schemes) and its exit
# code at 1e308.  At 1e308 the interaction constants, the step and the scan
# values pass every check and the run then fails numerically (exit 2);
# every other key rejects the value (exit 1).
_NUMERIC_KEYS = [
    ("transfer.depth_A", _TWOLEVEL, "", 1),
    ("transfer.n", _TWOLEVEL, "", 1),
    ("transfer.l", _TWOLEVEL, "", 1),
    ("transfer.alpha", _TWOLEVEL, "", 1),
    ("transfer.t_f", _TWOLEVEL, "", 1),
    ("design.c", _TWOLEVEL, "", 1),
    ("design.sample_count", _TWOLEVEL, "", 1),
    ("interaction.g_uu", _TWOLEVEL, "transfer.scheme = so_direction", 2),
    ("interaction.g_dd", _TWOLEVEL, "transfer.scheme = so_direction", 2),
    ("interaction.g_ud", _TWOLEVEL, "transfer.scheme = so_direction_interacting", 2),
    ("interaction.g_du", _TWOLEVEL, "transfer.scheme = raman", 2),
    ("grid.x_min", _GRID, "grid.points = 512", 1),
    ("grid.x_max", _GRID, "grid.points = 512", 1),
    ("grid.points", _GRID, "", 1),
    ("grid.dt", _TWOLEVEL, "", 2),
    ("noise.lambda", _SYSTEMATIC, "transfer.scheme = so_direction", 2),
    ("noise.lambda_prime", _NOISE, "transfer.scheme = so_direction", 2),
    ("noise.trajectories", _NOISE, "transfer.scheme = so_direction", 1),
    ("noise.seed", _NOISE, "transfer.scheme = so_direction", 1),
]


class TestNumericKeys:
    """No numeric value escapes ``main`` as an exception: a non-finite one
    is always rejected with exit 1."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e308"])
    @pytest.mark.parametrize("key, command, settings, code_at_1e308", _NUMERIC_KEYS,
                             ids=[row[0] for row in _NUMERIC_KEYS])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_value_through_main(self, tmp_path, capsys, key, command, settings,
                                code_at_1e308, value):
        short = "" if key == "transfer.t_f" else "transfer.t_f = 2\n"
        cfg = tmp_path / "fuzz.cfg"
        cfg.write_text(f"{short}{settings}\n{key} = {value}\n")
        code = main(command + ["--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == (code_at_1e308 if value == "1e308" else EXIT_CONFIG)
        err = capsys.readouterr().err
        assert err.startswith("error:" if code == EXIT_CONFIG else ("numerical", "scan failed"))


class TestReproduce:
    def test_fig2_shared_detuning(self, tmp_path):
        out = tmp_path / "out"
        code = main(["reproduce", "--figure", "fig2", "--out-dir", str(out)])
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scalars"]["max_delta_spread"] <= 1e-10
        header = (out / "fig2.csv").read_text().splitlines()[0]
        assert header == "t,Omega_alpha0.8,Omega_alpha1.2,Omega_alpha1.6,Omega_alpha2,Delta"

    def test_fig3_ends_at_target_position(self, tmp_path):
        out = tmp_path / "out"
        code = main(["reproduce", "--figure", "fig3", "--out-dir", str(out)])
        assert code == EXIT_OK
        header, rows = read_csv(out / "fig3.csv")
        assert header == "t,x_expect,x_expect_over_lc"
        assert rows.shape == (1001, 3)
        # the transfer ends in |1>, so <x> ends at its diagonal moment
        me = matrix_elements(0, 1, 1.6, MorseSpec(8.0))
        assert rows[-1, 1] == pytest.approx(me.x_diag_l, abs=1e-5)

    def test_fig4_polarization_endpoints(self, tmp_path):
        out = tmp_path / "out"
        code = main(["reproduce", "--figure", "fig4", "--out-dir", str(out)])
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scalars"]["Pz_start"] == pytest.approx(1.0, abs=1e-9)
        assert manifest["scalars"]["Pz_end"] == pytest.approx(-1.0, abs=0.01)

    def test_fig7_compensation_curves(self, tmp_path):
        out = tmp_path / "out"
        code = main(["reproduce", "--figure", "fig7", "--out-dir", str(out)])
        assert code == EXIT_OK
        lines = (out / "fig7.csv").read_text().splitlines()
        assert lines[0] == "t,theta1,beta_noninteracting,beta_interacting"
        first = [float(v) for v in lines[1].split(",")]
        # the interacting Zeeman channel starts shifted by -g11 + g21, with
        # the constants derived from the density overlaps (close to -0.185)
        from dataclasses import replace

        spec = build_transfer_spec(replace(RunConfig(), scheme="so_direction_interacting"))
        assert first[3] - first[2] == pytest.approx(-spec.g11 + spec.g21, abs=1e-9)
        assert first[3] - first[2] == pytest.approx(-0.185, abs=0.002)

    def test_fig6_density_panels(self, tmp_path):
        out = tmp_path / "out"
        code = main(["reproduce", "--figure", "fig6", "--out-dir", str(out)])
        assert code == EXIT_OK
        for panel in ("a", "b"):
            header, rows = read_csv(out / f"fig6{panel}.csv")
            assert header == "x,dens_up,dens_down,dens_target"
            assert rows.shape == (2048, 4)
        manifest = json.loads((out / "manifest.json").read_text())
        # criterion 6's window around the paper's grid fidelity
        assert abs(manifest["scalars"]["fidelity_c0.1"] - 0.9966) <= 0.003

    def test_fig8_peaks_at_zero_error(self, tmp_path):
        out = tmp_path / "out"
        code = main(["reproduce", "--figure", "fig8", "--out-dir", str(out)])
        assert code == EXIT_OK
        header, rows = read_csv(out / "fig8.csv")
        assert header == "lambda,fidelity_noninteracting,fidelity_interacting"
        assert rows.shape == (21, 3)
        for col in (1, 2):
            assert rows[np.argmax(rows[:, col]), 0] == 0.0

    @pytest.mark.parametrize("figure", ["fig8", "fig9"])
    def test_scan_figure_deterministic(self, tmp_path, figure):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["reproduce", "--figure", figure, "--out-dir", str(out)]) == EXIT_OK
        first, second = ((out / f"{figure}.csv").read_bytes() for out in outs)
        assert first == second

    def test_fig9_fidelity_falls_with_noise(self, tmp_path):
        out = tmp_path / "out"
        code = main(["reproduce", "--figure", "fig9", "--out-dir", str(out)])
        assert code == EXIT_OK
        header, rows = read_csv(out / "fig9.csv")
        assert header == "lambda_prime,fidelity_noninteracting,fidelity_interacting"
        assert rows.shape == (21, 3)
        for col in (1, 2):
            assert np.all(np.diff(rows[:, col]) <= 0.0)
