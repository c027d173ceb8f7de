"""End-to-end command tests: config resolution, artifact formats, exit codes."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import pathlib
import random
import re
import runpy
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from shakerbeam import cli, phi
from shakerbeam.cli import load_config, main
from shakerbeam.modes import evaluate_mode
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

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["roots", "--n-roots", "0"], ""),
            (["growth", "--n-roots", "0"], ""),
            (["modes", "1", "--n-roots", "0"], ""),
            (["modes", "1"], "mode_samples = 1\n"),
        ],
        ids=["roots-n_roots", "growth-n_roots", "modes-n_roots", "modes-mode_samples"],
    )
    def test_commands_check_the_settings_they_read(self, argv, text, tmp_path, capfd):
        path = tmp_path / "c.cfg"
        path.write_text(text)
        assert main(["--config", str(path), "--out", str(tmp_path), *argv]) == 1
        err = capfd.readouterr().err
        assert "must be >= " in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["c.cfg"]

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--threshold", "0", "--mu-max", "1e-3"],  # below the default mu_min
            ["--threshold", "15", "--mu-min", "50"],  # above the default mu_max
            ["--threshold", "15", "--n-roots", "0"],
        ],
        ids=["mu_max-below-mu_min", "mu_min-above-mu_max", "n_roots-0"],
    )
    def test_settings_it_does_not_read_are_not_checked(self, argv, tmp_path, capfd):
        assert main(["--out", str(tmp_path), "--quiet", "verify", *argv]) == 0
        assert json.loads((tmp_path / "localization.json").read_text())["verdict"] is True
        assert capfd.readouterr().err == ""

    def test_window_at_limit_accepted(self, tmp_path):
        # the exact-root scan runs epsilon past mu_max = 1e6
        argv = ["--out", str(tmp_path), "--quiet", "verify", "--threshold", "999980"]
        assert main(argv + ["--mu-max", "1e6"]) == 0
        report = json.loads((tmp_path / "localization.json").read_text())
        assert report["verdict"] is True and report["pairings"]
        assert main(argv + ["--mu-max", "1000001"]) == 1

    def test_exact_window_past_limit_exits_after_precondition(self, tmp_path, capfd):
        # the exact roots are scanned to mu_max + epsilon = 1002000, past the
        # limit: exit 1 naming that sum, unless the precondition fails first
        argv = ["--out", str(tmp_path), "--quiet", "verify", "--mu-max", "1e6", "--epsilon", "2000"]
        assert main(argv + ["--threshold", "999999.5"]) == 1  # one anchor: no gap to violate
        err = capfd.readouterr().err
        assert "mu_max + epsilon = 1002000.0 is above the window limit" in err and "Traceback" not in err
        assert main(argv + ["--threshold", "999000"]) == 4
        assert "localization precondition" in capfd.readouterr().err
        assert not (tmp_path / "localization.json").exists()


class TestParserReuse:
    """main builds its argparse parser once per process, and no call leaves
    state behind for the next."""

    def test_parser_built_once(self, tmp_path):
        cli._build_parser.cache_clear()
        for argv in (["roots"], ["verify", "--threshold", "15"], ["modes", "1"], ["growth"]):
            assert main(["--out", str(tmp_path), "--quiet", *argv]) == 0
        assert cli._build_parser.cache_info().misses == 1
        assert cli._build_parser() is cli._build_parser()

    def test_no_state_leaks_between_calls(self, tmp_path, capsys):
        def run(name, *argv):
            out = tmp_path / name
            return main(["--out", str(out), "--quiet", *argv]), out

        code, out = run("m56", "modes", "5", "6")
        assert code == 0 and sorted(p.name for p in out.glob("mode_*.csv")) == ["mode_5.csv", "mode_6.csv"]
        code, out = run("m", "modes")
        assert code == 0 and sorted(p.name for p in out.glob("mode_*.csv")) == [f"mode_{j}.csv" for j in range(1, 5)]
        assert run("v15", "verify", "--threshold", "15")[0] == 0
        code, out = run("v", "verify")  # the config's threshold, 10: verdict false
        assert code == 6 and json.loads((out / "localization.json").read_text())["threshold_M"] == 10.0
        assert run("bad", "roots", "--mu-max")[0] == 1
        assert run("good", "roots")[0] == 0
        for argv in (["--help"], ["verify", "--help"]):
            assert main(argv) == 0
        assert "usage: shakerbeam verify" in capsys.readouterr().out
        assert run("after", "growth")[0] == 0


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

    @pytest.mark.parametrize("command", ["roots", "growth", "modes"])
    def test_window_ends_at_the_limit(self, command, tmp_path, capfd, monkeypatch):
        # only verify's exact scan, to mu_max + epsilon, may end past 1e6
        argv = ["--out", str(tmp_path), "--quiet", command, "--mu-min", "999990"]
        assert main(argv + ["--mu-max", "1e6"]) == 0
        monkeypatch.setattr(cli, "scan_roots", None)  # a scan would raise TypeError
        monkeypatch.setattr(cli, "_scan", None)
        assert main(argv + ["--mu-max", "1000500"]) == 1
        assert "mu_max = 1000500.0 is above the window limit 1e+06" in capfd.readouterr().err
        # five roots from 999990 need the window (999990, 1000000.88...]
        assert main(argv + ["--n-roots", "5"]) == 1
        err = capfd.readouterr().err
        assert "is above the window limit 1e+06" in err and "Traceback" not in err

    def test_tiny_step_exits_1_at_once(self, tmp_path, capfd):
        # 1e-300 and 1e-12 give 3.8e301 and 3.8e13 grid points; above mu* there
        # is no grid, but 5e-324 overflows the window's nominal point count
        above = ["--mu-min", "200", "--mu-max", "1e4", "--step", "5e-324"]
        for args in (["--step", "1e-300"], ["--step", "1e-12"], above):
            tracemalloc.start()
            try:
                assert main(["--out", str(tmp_path), "--quiet", "roots", *args]) == 1
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1e6
            err = capfd.readouterr().err
            assert "configuration error" in err and "Traceback" not in err

    def test_huge_mode_samples_exits_1_at_once(self, tmp_path, capfd):
        path = tmp_path / "c.cfg"
        path.write_text("mode_samples = 1000000000000000\n")
        tracemalloc.start()
        try:
            assert main(["--config", str(path), "--out", str(tmp_path), "--quiet", "modes"]) == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        err = capfd.readouterr().err
        assert "mode_samples" in err and "Traceback" not in err
        assert not (tmp_path / "mode_1.csv").exists()

    def test_below_floor_exits_1_without_warning(self, tmp_path, capfd):
        # phi is NaN on the whole grid below mu ~ 1e-77: nothing is scanned
        argv = ["--out", str(tmp_path), "roots", "--mu-min", "1e-200", "--mu-max", "1e-100"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        err = capfd.readouterr().err
        assert "mu_min" in err and "Traceback" not in err
        assert not (tmp_path / "roots.csv").exists()


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

    # 2**16 // 7 + 1 samples put 6 modes in each evaluation chunk: 6, 6, 6 and 2
    @pytest.mark.parametrize("samples", [2, 2**16 // 7 + 1])
    def test_every_mode_equals_evaluate_mode_bit_for_bit(self, samples, tmp_path, monkeypatch):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"mode_samples = {samples}\n")
        shapes, columns = [], []
        normalize, csv_text = cli.normalize_L2, cli._csv

        def keep_shape(mode):
            shapes.append(normalize(mode))
            return shapes[-1]

        def keep_columns(header, *cols):
            columns.append(cols)
            return csv_text(header, *cols)

        monkeypatch.setattr(cli, "normalize_L2", keep_shape)
        monkeypatch.setattr(cli, "_csv", keep_columns)
        argv = ["--config", str(cfg), "--out", str(tmp_path), "--quiet", "modes", *map(str, range(1, 21))]
        assert main(argv) == 0
        xs = np.linspace(0.0, load_config().params.length, samples)
        assert len(shapes) == len(columns) == 20
        for mode, (x_text, u) in zip(shapes, columns):
            assert x_text.tolist() == [cli.fmt9(x) for x in xs]
            assert u.tobytes() == evaluate_mode(mode, xs).tobytes()

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


SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


class TestScripts:
    @staticmethod
    def run_script(name, argv, monkeypatch):
        monkeypatch.setattr(sys, "argv", [name, *argv])
        with pytest.raises(SystemExit) as exc_info:
            runpy.run_path(str(SCRIPTS / name), run_name="__main__")
        return exc_info.value.code

    def assert_same_files(self, a, b):
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @pytest.mark.parametrize("options", [[], ["--n-roots=6", "--l0", "1.2"]])
    def test_make_figures_passes_mode_indices_to_modes_only(self, options, tmp_path, monkeypatch, half_cfg):
        script, cli_out = tmp_path / "script", tmp_path / "cli"
        shared = ["--config", half_cfg, "--quiet", *options]
        argv = ["--out", str(script), *shared, "1", "3"]
        assert self.run_script("make_figures.py", argv, monkeypatch) == 0
        assert main(["--out", str(cli_out), *shared[:3], "modes", *shared[3:], "1", "3"]) == 0
        assert main(["--out", str(cli_out), *shared[:3], "growth", *shared[3:]]) == 0
        self.assert_same_files(script, cli_out)
        assert sorted(p.name for p in script.iterdir()) == [
            "growth.csv", "growth.svg", "mode_1.csv", "mode_3.csv", "modes.svg"
        ]

    def test_make_figures_stops_at_a_failing_modes_run(self, tmp_path, monkeypatch):
        assert self.run_script("make_figures.py", ["--out", str(tmp_path), "--quiet", "99"], monkeypatch) == 1
        assert not (tmp_path / "growth.csv").exists()

    def test_reproduce_table_writes_the_roots_table(self, tmp_path, monkeypatch):
        argv = ["--out", str(tmp_path / "script"), "--quiet", "--mu-max", "20"]
        assert self.run_script("reproduce_table.py", argv, monkeypatch) == 0
        assert main(["--out", str(tmp_path / "cli"), "--quiet", "roots", "--mu-max", "20"]) == 0
        self.assert_same_files(tmp_path / "script", tmp_path / "cli")


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


CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
# sha256 and exit code of every artifact of both shipped configs, recorded with
# the value-by-value writer that the column writer replaced; "_1e5" runs add
# --mu-max 1e5, so their CSVs span many chunks; "verify15_1e4" reaches far
# above mu*, where the half-period edges are the brackets
GOLDEN = json.loads(pathlib.Path(__file__).with_name("golden_artifacts.json").read_text())
GOLDEN_ARGS = {
    "roots": ["roots"],
    "verify10": ["verify", "--threshold", "10"],
    "verify15": ["verify", "--threshold", "15"],
    "modes": ["modes", *map(str, range(1, 21))],
    "growth": ["growth"],
    "roots_1e5": ["roots", "--mu-max", "1e5"],
    "growth_1e5": ["growth", "--mu-max", "1e5"],
    "verify15_1e4": ["verify", "--mu-max", "1e4", "--threshold", "15"],
}


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_artifacts_are_byte_identical_to_recorded_digests(run, tmp_path):
    config, tag = run.split("/")
    argv = ["--config", str(CONFIG_DIR / f"{config}.cfg"), "--out", str(tmp_path), "--quiet"]
    assert main(argv + GOLDEN_ARGS[tag]) == GOLDEN[run]["exit"]
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == GOLDEN[run]["sha256"]


def csv_value_by_value(header, rows) -> str:
    """The writer the column writer replaced: every cell on its own, through fmt9."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None else (v if isinstance(v, str) else cli.fmt9(v)) for v in row))
    return "\n".join(lines) + "\n"


def seeded_floats(n, seed):
    """Finite doubles of every exponent and both signs: subnormals, +-0.0,
    the largest double (1.8e308 as a literal is inf) and integral values."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
    values = np.where(np.isfinite(bits), bits, rng.uniform(-1.0, 1.0, n))
    top, tiny = 1.7976931348623157e308, 2.2250738585072014e-308
    special = [5e-324, -5e-324, 0.0, -0.0, top, -top, tiny, -tiny, 1.0, -3.0, 1e16, 2.0**53]
    values[: len(special)] = special
    integral = values[len(special) :: 5]
    integral[:] = rng.integers(-(2**53), 2**53, integral.size) >> rng.integers(0, 53, integral.size)
    return values


class TestArtifactWriter:
    def test_float_columns_match_fmt9(self):
        x, u = seeded_floats(3 * cli._BLOCK + 17, 1), seeded_floats(3 * cli._BLOCK + 17, 2)
        text = "".join(cli._csv(("x", "u"), x, u))
        assert text == csv_value_by_value(("x", "u"), zip(x, u))

    def test_none_and_str_cells_match_the_old_rules(self):
        # the shapes of roots.csv rows: paired, exact-only and truncated-only
        rng = random.Random(12)
        v = seeded_floats(3000, 3).tolist()
        rows = []
        for k in range(0, len(v) - 5, 5):
            shape = rng.choice(("paired", "exact_only", "truncated_only"))
            if shape == "paired":
                rows.append((str(k), v[k], v[k + 1], v[k + 2], v[k + 3], shape, v[k + 4]))
            elif shape == "exact_only":
                rows.append((str(k), None, v[k + 1], None, v[k + 3], shape, None))
            else:
                rows.append(("", v[k], None, v[k + 2], None, shape, None))
        rows.append(("100%s", None, None, None, None, "%.9g,%", None))  # % in a str is no format
        header = ("j", "mu_bar", "mu", "nu_bar_hz", "nu_hz", "pairing_status", "abs_gap")
        text = "".join(cli._csv(header, *map(list, zip(*rows))))
        assert text == csv_value_by_value(header, rows)

    @pytest.mark.parametrize("arrays", [True, False])
    def test_chunks_join_to_the_text_written_in_one_piece(self, arrays, monkeypatch):
        x, u = seeded_floats(1000, 4), seeded_floats(1000, 5)
        columns = (x, u) if arrays else (x.tolist(), [None if k % 3 else str(k) for k in range(1000)])
        monkeypatch.setattr(cli, "_BLOCK", 10**6)
        whole = list(cli._csv(("x", "u"), *columns))
        monkeypatch.setattr(cli, "_BLOCK", 97)
        chunked = list(cli._csv(("x", "u"), *columns))
        assert len(whole) == 2 and len(chunked) == 1 + math.ceil(1000 / 97)
        assert "".join(chunked) == "".join(whole)

    def test_svg_coordinates_match_per_point_fstrings(self):
        rng = np.random.default_rng(6)
        xs = np.sort(rng.uniform(-3.0, 1e4, 500))
        ys = rng.normal(0.0, 1e3, 500)
        xp, yp = np.arange(1.0, 41.0), rng.uniform(1.0, 200.0, 40)
        svg = cli._svg("t", "x", "y", [("line", xs, ys, "a", "#000"), ("points", xp, yp, "b", "#111")])
        # the scale of cli._svg, applied one numpy scalar at a time as before
        m, w, h = 60, 720, 480
        x0, x1 = float(min(xs.min(), xp.min())), float(max(xs.max(), xp.max()))
        y0, y1 = float(min(ys.min(), yp.min())), float(max(ys.max(), yp.max()))
        pad_x, pad_y = 0.04 * (x1 - x0), 0.06 * (y1 - y0)
        x0, x1, y0, y1 = x0 - pad_x, x1 + pad_x, y0 - pad_y, y1 + pad_y

        def px(x):
            return m + (x - x0) / (x1 - x0) * (w - 2 * m)

        def py(y):
            return h - m - (y - y0) / (y1 - y0) * (h - 2 * m)

        line = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        assert re.search(r'<polyline points="([^"]*)"', svg).group(1) == line
        circles = [f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="#111"/>' for x, y in zip(xp, yp)]
        assert [s for s in svg.split("\n") if s.startswith("<circle")] == circles

    def test_shared_text_column_matches_value_by_value(self):
        n = 3 * cli._BLOCK + 17
        x, u, v = seeded_floats(n, 7), seeded_floats(n, 8), seeded_floats(n, 9)
        x_text = cli._text_column(x)  # -0.0, subnormals and the largest double among them
        assert x_text.tolist() == [cli.fmt9(value) for value in x]
        assert "".join(cli._csv(("x", "u"), x_text, u)) == csv_value_by_value(("x", "u"), zip(x, u))
        # the text column in any place, and alone
        text = "".join(cli._csv(("u", "x", "v"), u, x_text, v))
        assert text == csv_value_by_value(("u", "x", "v"), zip(u, x, v))
        assert "".join(cli._csv(("x",), x_text)) == csv_value_by_value(("x",), zip(x))

    def test_svg_shared_x_and_markers_match_per_point_fstrings(self):
        # the data span [0, 30] x [-3, 3], so the scale is fixed before the
        # points that land on exact %.2f ties (x.xx5 in binary) are chosen
        m, w, h = 60, 720, 480
        pad_x, pad_y = 0.04 * (30.0 - 0.0), 0.06 * (3.0 - -3.0)
        x0, x1, y0, y1 = 0.0 - pad_x, 30.0 + pad_x, -3.0 - pad_y, 3.0 + pad_y

        def px(x):
            return m + (x - x0) / (x1 - x0) * (w - 2 * m)

        def py(y):
            return h - m - (y - y0) / (y1 - y0) * (h - 2 * m)

        def value_at_pixel(scale, pixel, lo, hi):
            up = scale(hi) > scale(lo)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if scale(mid) == pixel:
                    return mid
                lo, hi = (mid, hi) if (scale(mid) < pixel) == up else (lo, mid)
            raise AssertionError(f"no value lands on pixel {pixel}")

        ties = [100.125, 150.375, 200.625, 250.875]  # %.2f: 100.12, 150.38, 200.62, 250.88
        rng = np.random.default_rng(16)
        xs = np.concatenate([[0.0, 30.0], [value_at_pixel(px, t, 0.0, 30.0) for t in ties]])
        xs = np.concatenate([xs, np.sort(rng.uniform(0.0, 30.0, 394))])
        ys = [rng.uniform(-3.0, 3.0, xs.size) for _ in range(3)]
        ys[0][:8] = [-3.0, 3.0, -0.0, 0.0, 0.125, 0.375, -0.125, -0.375]
        ys[1][:4] = [value_at_pixel(py, t, -3.0, 3.0) for t in ties]
        assert [f"{px(x):.2f}" for x in xs[2:6]] == ["100.12", "150.38", "200.62", "250.88"]
        # the growth plot's two marker sets: equal x values in separate arrays
        xp = [np.arange(1.0, 24.0), np.arange(1.0, 24.0)]
        yp = [rng.uniform(-3.0, 3.0, 23), np.array([value_at_pixel(py, t, -3.0, 3.0) for t in ties] * 5 + [0.0] * 3)]
        series = [("line", xs, y, f"mode {k}", "#00000%d" % k) for k, y in enumerate(ys)]
        series += [("points", x, y, f"set {k}", "#11111%d" % k) for k, (x, y) in enumerate(zip(xp, yp))]
        svg = cli._svg("t", "x", "y", series)
        lines = [" ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, y)) for y in ys]
        assert re.findall(r'<polyline points="([^"]*)"', svg) == lines
        circles = [
            f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="#11111{k}"/>'
            for k, (xk, yk) in enumerate(zip(xp, yp))
            for x, y in zip(xk, yk)
        ]
        assert [s for s in svg.split("\n") if s.startswith("<circle")] == circles

    def test_output_directory_made_once_per_command(self, tmp_path, monkeypatch):
        calls = []
        makedirs = os.makedirs
        monkeypatch.setattr(cli.os, "makedirs", lambda *a, **k: calls.append(a) or makedirs(*a, **k))
        assert main(["--out", str(tmp_path / "new"), "--quiet", "modes", *map(str, range(1, 21))]) == 0
        assert len(calls) == 1 and len(list((tmp_path / "new").iterdir())) == 21
