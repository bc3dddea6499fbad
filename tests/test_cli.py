"""Command line behavior: grids, config files, subcommands."""

import pytest

from mzf.cli import load_config_file, main, parse_snr_grid


class TestSnrGrid:
    def test_range_form(self):
        assert parse_snr_grid("0:2:6") == (0.0, 2.0, 4.0, 6.0)

    def test_range_inclusive_endpoint(self):
        assert parse_snr_grid("0:2.5:5") == (0.0, 2.5, 5.0)

    def test_list_form(self):
        assert parse_snr_grid("1, 3.5, 9") == (1.0, 3.5, 9.0)

    def test_rejects_bad_forms(self):
        with pytest.raises(ValueError):
            parse_snr_grid("0:2")
        with pytest.raises(ValueError):
            parse_snr_grid("0:-1:5")


class TestConfigFile:
    def test_parse_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("trials = 9\n# comment\nmod=16  # inline\n\nseed=3\n")
        assert load_config_file(str(path)) == {"trials": "9", "mod": "16", "seed": "3"}

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n")
        with pytest.raises(ValueError):
            load_config_file(str(path))


class TestMain:
    def test_ber_subcommand_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        rc = main(
            [
                "ber", "--kc", "2", "--mod", "4", "--snr", "0:5:10",
                "--trials", "5", "--detectors", "zf", "--seed", "1",
                "--out", str(out), "--no-timing",
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("detector,snr_db")
        assert len(lines) == 1 + 3 * 2  # three SNR points, layer row + all row

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials=50\nmod=16\nkc=2\nsnr=6\ndetectors=zf\nseed=9\n")
        out = tmp_path / "run.csv"
        rc = main(
            ["ber", "--config", str(cfg), "--trials", "4", "--out", str(out), "--no-timing"]
        )
        assert rc == 0
        body = out.read_text().splitlines()[1]
        assert body.split(",")[6] == "4"  # trials column reflects the flag

    def test_json_output_by_extension(self, tmp_path):
        out = tmp_path / "run.json"
        rc = main(
            ["ber", "--kc", "2", "--snr", "8", "--trials", "3",
             "--detectors", "zf", "--out", str(out), "--no-timing"]
        )
        assert rc == 0
        assert out.read_text().lstrip().startswith("[")

    def test_example_subcommand_passes(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "worked example: PASS" in out
        assert out.count("NOTE") == 2

    def test_example_literal_mode(self, capsys):
        assert main(["example", "--parity", "paper-literal"]) == 0

    def test_snrgain_writes_per_order_files(self, tmp_path, capsys):
        out = tmp_path / "gains.csv"
        rc = main(
            ["snrgain", "--dim", "4", "--mods", "4,16", "--trials", "3",
             "--seed", "2", "--out", str(out)]
        )
        assert rc == 0
        assert (tmp_path / "gains_m4.csv").exists()
        assert (tmp_path / "gains_m16.csv").exists()

    def _usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        return capsys.readouterr().err

    def test_unknown_detector_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        err = self._usage_error(
            ["ber", "--kc", "2", "--trials", "3", "--detectors", "bogus", "--out", str(out)],
            capsys,
        )
        assert "mzf: error: unknown detector kind 'bogus'" in err
        assert not out.exists()

    def test_malformed_thread_cap_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MZF_THREADS", "two")
        out = tmp_path / "run.csv"
        err = self._usage_error(
            ["ber", "--kc", "2", "--trials", "3", "--workers", "2", "--out", str(out)],
            capsys,
        )
        assert "mzf: error: MZF_THREADS must be an integer, got 'two'" in err
        assert not out.exists()

    def test_snrgain_needs_a_modulus_detector(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        err = self._usage_error(
            ["snrgain", "--kc", "2", "--trials", "2", "--detector", "zf", "--out", str(out)],
            capsys,
        )
        assert "mzf: error: gain experiments need a modulus detector" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--lll-delta", "2"], "lll_delta must lie in (0.25, 1], got 2.0"),
            (["--sd-budget", "0"], "sd_budget must be >= 1, got 0"),
            (
                ["--detectors", "mzf:brute", "--brute-bound", "-3"],
                "brute_bound must be >= 0, got -3",
            ),
            (["--snr", "nan"], "snr_db must be finite"),
        ],
    )
    def test_bad_option_value_is_a_usage_error(self, flags, message, tmp_path, capsys):
        out = tmp_path / "run.csv"
        argv = ["ber", "--kc", "2", "--trials", "2", *flags, "--out", str(out)]
        err = self._usage_error(argv, capsys)
        assert f"mzf: error: {message}" in err
        assert not out.exists()

    def test_bad_config_file_value_is_a_usage_error(self, tmp_path, capsys):
        # checked although no listed detector reads the option
        cfg = tmp_path / "run.cfg"
        cfg.write_text("noise-weighting=bogus\n")
        out = tmp_path / "run.csv"
        argv = ["ber", "--config", str(cfg), "--kc", "2", "--trials", "2",
                "--detectors", "zf", "--out", str(out)]
        err = self._usage_error(argv, capsys)
        assert "mzf: error: noise_weighting must be one of" in err
        assert not out.exists()
