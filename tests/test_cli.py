"""End-to-end command tests: config resolution, artifact formats, exit codes."""

import csv
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from shakerbeam import cli, phi
from shakerbeam.cli import load_config, main
from shakerbeam.roots import closed_form_roots_half


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


HALF_CFG = """
l = 2 m
l0 = 1 m
rho = 0.6075 kg/m
E = 6.9e10 Pa
I = 1.6875e-10 m^4
m = 0.1 kg
kappa = 7000 N/m
mu_max = 16
"""


@pytest.fixture()
def half_cfg(tmp_path):
    path = tmp_path / "half.cfg"
    path.write_text(HALF_CFG)
    return str(path)


class TestConfig:
    def test_defaults_match_measured_beam(self):
        cfg = load_config()
        assert cfg.params.linear_density == pytest.approx(0.6075, rel=1e-12)
        assert cfg.params.spring_stiffness == pytest.approx(7000.0, rel=1e-12)
        assert cfg.params.length == 1.905
        assert (cfg.mu_min, cfg.mu_max) == (0.1, 38.5)
        assert (cfg.epsilon, cfg.threshold_M) == (0.35, 10.0)

    def test_stiffness_unit_conversion(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("kappa = 7 N/mm\n")
        assert load_config(str(path)).params.spring_stiffness == pytest.approx(7000.0)
        path.write_text("kappa = 7000 N/m\n")
        assert load_config(str(path)).params.spring_stiffness == pytest.approx(7000.0)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# heading\n\nm = 0.2 kg  # inline\n")
        assert load_config(str(path)).params.shaker_mass == pytest.approx(0.2)

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("l0 = 1.4 m\n")
        cfg = load_config(str(path), overrides={"l0": 0.9})
        assert cfg.params.attachment_point == pytest.approx(0.9)

    def test_direct_rho_replaces_composite(self, half_cfg):
        cfg = load_config(half_cfg)
        assert cfg.params.linear_density == pytest.approx(0.6075)
        assert cfg.params.length == 2.0

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("wobble = 3\n")
        assert main(["--config", str(path), "--out", str(tmp_path), "roots"]) == 1
        assert "wobble" in capsys.readouterr().err

    def test_malformed_line_exits_1(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("just some words\n")
        assert main(["--config", str(path), "--out", str(tmp_path), "roots"]) == 1

    def test_duplicate_key_exits_1(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("m = 0.1 kg\nm = 0.2 kg\n")
        assert main(["--config", str(path), "--out", str(tmp_path), "roots"]) == 1

    def test_bad_window_exits_1(self, tmp_path):
        assert main(["--out", str(tmp_path), "roots", "--mu-min", "5", "--mu-max", "2"]) == 1

    def test_direct_rho_wins_over_malformed_composite(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("rho = 0.6075 kg/m\nrho0 = 12 parsecs\n")
        assert load_config(str(path)).params.linear_density == pytest.approx(0.6075)

    # a value off the default for every setting that has a flag
    FLAG_VALUES = {
        "l0": "0.9",
        "n_roots": "3",
        "mu_min": "0.5",
        "mu_max": "20",
        "step": "0.01",
        "epsilon": "0.2",
        "threshold_M": "12",
    }

    def test_every_flag_has_a_value_here(self):
        flagged = {key for key, (_, flag, _) in cli._SETTINGS.items() if flag is not None}
        assert flagged == set(self.FLAG_VALUES)

    @pytest.mark.parametrize("key", sorted(FLAG_VALUES))
    def test_flag_and_config_key_agree(self, key, tmp_path, monkeypatch):
        flag, value = cli._SETTINGS[key][1], self.FLAG_VALUES[key]
        seen = []

        def recording_load_config(*args, **kwargs):
            seen.append(load_config(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(cli, "load_config", recording_load_config)
        assert main(["--out", str(tmp_path), "--quiet", "roots", flag, value]) == 0
        path = tmp_path / "c.cfg"
        path.write_text(f"{key} = {value}\nout = {tmp_path}\n")
        from_file = load_config(str(path), quiet=True)
        assert seen == [from_file]
        assert from_file != load_config(overrides={"out": str(tmp_path)}, quiet=True)

    def test_mode_samples_is_file_only(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("mode_samples = 51\n")
        assert load_config(str(path)).mode_samples == 51
        assert main(["--out", str(tmp_path), "modes", "--mode-samples", "51"]) == 1

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["roots", "--mu-max", "inf"], 1),
            (["verify", "--mu-max", "inf"], 1),
            (["roots", "--step", "nan"], 1),
            (["verify", "--epsilon", "nan"], 4),
            (["roots", "--step", "1e-320"], 1),
        ],
    )
    def test_non_finite_setting_exits_without_traceback(self, argv, code, tmp_path, capfd):
        assert main(["--out", str(tmp_path), "--quiet", *argv]) == code
        err = capfd.readouterr().err
        assert err and "Traceback" not in err


class TestRootsCommand:
    def test_default_table_layout(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "roots"]) == 0
        rows = read_csv(tmp_path / "roots.csv")
        exact_rows = [r for r in rows if r["mu"]]
        assert len(exact_rows) == 23
        first = rows[0]
        assert float(first["mu_bar"]) == pytest.approx(2.616, abs=5e-4)
        assert float(first["mu"]) == pytest.approx(2.552, abs=5e-4)
        assert float(first["nu_bar_hz"]) == pytest.approx(4.767, abs=5e-3)
        assert float(first["nu_hz"]) == pytest.approx(4.537, abs=5e-3)
        assert first["pairing_status"] == "paired"
        third = rows[2]
        assert third["mu_bar"] == "" and third["nu_bar_hz"] == ""
        assert float(third["mu"]) == pytest.approx(5.618, abs=5e-4)
        assert third["pairing_status"] == "exact_only"
        tail = [r for r in rows if not r["mu"]]
        assert len(tail) == 1
        assert float(tail[0]["mu_bar"]) == pytest.approx(0.9949, abs=1e-3)
        assert tail[0]["pairing_status"] == "truncated_only"
        assert tail[0]["j"] == ""

    def test_sub_fundamental_window(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "roots", "--mu-min", "0.1", "--mu-max", "1.5"]) == 0
        rows = read_csv(tmp_path / "roots.csv")
        assert len(rows) == 1
        assert rows[0]["mu"] == ""
        assert float(rows[0]["mu_bar"]) == pytest.approx(0.9949, abs=1e-3)

    def test_global_flags_accepted_after_command(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["--out", str(out_a), "--quiet", "roots"]) == 0
        assert main(["roots", "--out", str(out_b), "--quiet"]) == 0
        assert (out_a / "roots.csv").read_bytes() == (out_b / "roots.csv").read_bytes()

    def test_config_accepted_after_command(self, tmp_path, half_cfg):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", half_cfg, "--out", str(out_a), "--quiet", "roots"]) == 0
        assert main(["roots", "--config", half_cfg, "--out", str(out_b), "--quiet"]) == 0
        assert main(["roots", "--out", str(tmp_path / "c"), "--quiet"]) == 0
        table = (out_b / "roots.csv").read_bytes()
        assert table == (out_a / "roots.csv").read_bytes()
        assert table != (tmp_path / "c" / "roots.csv").read_bytes()

    def test_runs_are_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["--out", str(out_a), "--quiet", "roots"]) == 0
        assert main(["--out", str(out_b), "--quiet", "roots"]) == 0
        assert (out_a / "roots.csv").read_bytes() == (out_b / "roots.csv").read_bytes()

    def test_printed_roots_round_trip(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "roots"]) == 0
        cfg = load_config()
        for row in read_csv(tmp_path / "roots.csv"):
            if row["mu"]:
                assert abs(phi(float(row["mu"]), cfg.params)) <= 2e-6

    def test_n_roots_controls_count(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "roots", "--n-roots", "5"]) == 0
        rows = read_csv(tmp_path / "roots.csv")
        assert len([r for r in rows if r["mu"]]) == 5

    def test_empty_window_exits_3(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "--quiet", "roots", "--mu-min", "0.2", "--mu-max", "0.5"])
        assert code == 3
        assert "no roots" in capsys.readouterr().err

    def test_csv_lf_only(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "roots"]) == 0
        data = (tmp_path / "roots.csv").read_bytes()
        assert b"\r" not in data
        assert data.decode().startswith("j,mu_bar,mu,nu_bar_hz,nu_hz,pairing_status,abs_gap\n")


class TestVerifyCommand:
    def test_default_verdict_false_exits_6(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "verify"]) == 6
        report = json.loads((tmp_path / "localization.json").read_text())
        assert report["verdict"] is False
        assert report["epsilon"] == 0.35
        assert report["threshold_M"] == 10
        statuses = {p["status"] for p in report["pairings"]}
        assert "no_exact_root_in_neighborhood" in statuses
        assert report["stray_exact_roots"]

    def test_higher_threshold_exits_0(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "verify", "--threshold", "15"]) == 0
        report = json.loads((tmp_path / "localization.json").read_text())
        assert report["verdict"] is True
        assert all(p["status"] == "paired_unique" for p in report["pairings"])
        assert report["rational_attachment_ratio"] == {"p": 280, "q": 381}
        assert report["margins"]["min_abs_phi0_complement"] > 0

    def test_overlapping_epsilon_exits_4(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "--quiet", "verify", "--epsilon", "0.9"]) == 4
        assert "precondition" in capsys.readouterr().err

    def test_vacuous_threshold_warns_and_exits_0(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "verify", "--threshold", "40"]) == 0
        err = capsys.readouterr().err
        assert "warning" in err and "vacuous" in err
        report = json.loads((tmp_path / "localization.json").read_text())
        assert report["pairings"] == []
        assert report["warning"]


    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_exits_1(self, threshold, tmp_path, capfd):
        assert main(["--out", str(tmp_path), "--quiet", "verify", f"--threshold={threshold}"]) == 1
        err = capfd.readouterr().err
        assert "threshold" in err and "Traceback" not in err
        assert not (tmp_path / "localization.json").exists()

    def test_non_finite_field_is_never_written(self, tmp_path, monkeypatch):
        real = cli.verify_localization

        def nan_margin(*args):
            return dataclasses.replace(real(*args), min_abs_phi0_complement=math.nan)

        monkeypatch.setattr(cli, "verify_localization", nan_margin)
        with pytest.raises(ValueError):
            main(["--out", str(tmp_path), "--quiet", "verify", "--threshold", "15"])
        assert not (tmp_path / "localization.json").exists()

    def test_window_at_limit_accepted(self, tmp_path):
        # the exact-root scan runs epsilon past mu_max = 1e6
        argv = ["--out", str(tmp_path), "--quiet", "verify", "--threshold", "999980"]
        assert main(argv + ["--mu-max", "1e6"]) == 0
        report = json.loads((tmp_path / "localization.json").read_text())
        assert report["verdict"] is True and report["pairings"]
        assert main(argv + ["--mu-max", "1000001"]) == 1


class TestWindowLimit:
    @pytest.mark.parametrize(
        "argv",
        [
            ["roots", "--mu-max", "1e7"],
            ["roots", "--n-roots", "1000000000"],
            ["modes", "1", "--mu-max", "1e7"],
            ["growth", "--mu-max", "1e7"],
            ["verify", "--mu-max", "1e7"],
        ],
    )
    def test_above_limit_exits_1_at_once(self, argv, tmp_path, capfd):
        tracemalloc.start()
        try:
            assert main(["--out", str(tmp_path), "--quiet", *argv]) == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        err = capfd.readouterr().err
        assert "limit" in err and "Traceback" not in err


class TestModesCommand:
    def test_default_four_modes(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "modes"]) == 0
        for j in (1, 2, 3, 4):
            rows = read_csv(tmp_path / f"mode_{j}.csv")
            assert len(rows) == 401
            xs = np.array([float(r["x"]) for r in rows])
            us = np.array([float(r["u"]) for r in rows])
            assert us[0] == 0.0 and us[-1] == 0.0
            assert np.trapezoid(us * us, xs) == pytest.approx(1.0, abs=1e-6)
        svg = (tmp_path / "modes.svg").read_text()
        assert svg.count("<polyline") == 4
        assert "mode 1" in svg and "mode 4" in svg

    def test_requested_indices_only(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "modes", "2", "7"]) == 0
        assert (tmp_path / "mode_2.csv").exists()
        assert (tmp_path / "mode_7.csv").exists()
        assert not (tmp_path / "mode_1.csv").exists()

    def test_out_of_range_index_exits_1(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "--quiet", "modes", "99"]) == 1
        assert "99" in capsys.readouterr().err

    def test_midspan_symmetry_from_csv(self, tmp_path, half_cfg):
        assert main(["--config", half_cfg, "--out", str(tmp_path), "--quiet", "modes", "1", "2"]) == 0
        u1 = np.array([float(r["u"]) for r in read_csv(tmp_path / "mode_1.csv")])
        u2 = np.array([float(r["u"]) for r in read_csv(tmp_path / "mode_2.csv")])
        assert np.max(np.abs(u1 + u1[::-1])) <= 1e-6 * np.max(np.abs(u1))
        assert np.max(np.abs(u2 - u2[::-1])) <= 1e-6 * np.max(np.abs(u2))

    def test_mode_above_mu_1e5(self, tmp_path):
        argv = ["--out", str(tmp_path), "--quiet", "modes", "1"]
        assert main(argv + ["--mu-min", "100000", "--mu-max", "100003"]) == 0
        rows = read_csv(tmp_path / "mode_1.csv")
        assert len(rows) == 401
        assert all(math.isfinite(float(r["x"])) and math.isfinite(float(r["u"])) for r in rows)

    def test_degenerate_mode_exits_5(self, tmp_path, monkeypatch):
        from shakerbeam.modes import DegenerateModeError

        def boom(root, params):
            raise DegenerateModeError("forced for the exit-code contract", nullspace_ratio=0.5)

        monkeypatch.setattr(cli, "solve_mode", boom)
        assert main(["--out", str(tmp_path), "--quiet", "modes", "1"]) == 5

    def test_custom_sampling_resolution(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("mode_samples = 51\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path), "--quiet", "modes", "1"]) == 0
        assert len(read_csv(tmp_path / "mode_1.csv")) == 51


class TestGrowthCommand:
    def test_default_growth_table(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "growth"]) == 0
        rows = read_csv(tmp_path / "growth.csv")
        assert len(rows) == 23
        mus = [float(r["mu"]) for r in rows if r["mu"]]
        assert all(b > a for a, b in zip(mus, mus[1:]))
        svg = (tmp_path / "growth.svg").read_text()
        assert "exact" in svg and "truncated" in svg

    def test_midspan_overlay_matches_closed_form(self, tmp_path, half_cfg):
        assert main(["--config", half_cfg, "--out", str(tmp_path), "--quiet", "growth"]) == 0
        rows = read_csv(tmp_path / "growth.csv")
        scanned = [float(r["mu_bar"]) for r in rows if r["mu_bar"]]
        closed = closed_form_roots_half(2.0, len(scanned))
        for got, want in zip(scanned, closed):
            # printed at 9 significant digits, so allow the quantization step
            assert abs(got - want) <= 5e-9 * max(1.0, want)
        assert "closed form" in (tmp_path / "growth.svg").read_text()

    def test_no_overlay_off_midspan(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "growth"]) == 0
        assert "closed form" not in (tmp_path / "growth.svg").read_text()

    def test_single_root_plot(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "growth", "--n-roots", "1"]) == 0
        rows = read_csv(tmp_path / "growth.csv")
        assert len(rows) >= 1
        assert float(rows[0]["mu"]) == pytest.approx(2.552, abs=5e-4)

    def test_slope_stable_across_windows(self, tmp_path):
        slopes = []
        for n in (18, 23):
            out = tmp_path / f"w{n}"
            assert main(["--out", str(out), "--quiet", "growth", "--n-roots", str(n)]) == 0
            rows = read_csv(out / "growth.csv")
            mus = [float(r["mu"]) for r in rows if r["mu"]]
            js = np.arange(10, len(mus) + 1)
            slope = np.polyfit(js, mus[9:], 1)[0]
            slopes.append(slope)
        assert abs(slopes[1] - slopes[0]) <= 0.15 * slopes[0]


class TestExitCodes:
    def test_io_failure_exits_2(self, tmp_path):
        target = tmp_path / "file"
        target.write_text("occupied")
        assert main(["--out", str(target / "sub"), "--quiet", "roots"]) == 2

    def test_unknown_command_exits_1(self):
        assert main(["frobnicate"]) == 1

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "--quiet", "roots"]) == 0
        assert capsys.readouterr().out == ""

    def test_progress_message_by_default(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "roots"]) == 0
        assert "roots.csv" in capsys.readouterr().out
