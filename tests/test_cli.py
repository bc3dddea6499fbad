"""Command line behavior: grids, config files, subcommands."""

import dataclasses

import pytest

from mzf import cli
from mzf.cli import load_config_file, main, parse_snr_grid
from mzf.simulate import SimConfig


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


@pytest.fixture
def built_config(monkeypatch):
    """The SimConfig `mzf ber` builds from its arguments, caught in place of
    the run."""
    seen = []
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: seen.append(cfg) or [])
    monkeypatch.setattr(cli, "emit", lambda records, fmt, path: None)

    def build(argv):
        assert main(["ber", *argv, "--out", "unused.csv"]) == 0
        return seen.pop()

    return build


class TestOptionSources:
    @pytest.mark.parametrize(
        "entries, flags",
        [
            (
                "kc=2\nsnr=0:5:10\ndetectors=zf, ml\n",
                ["--kc", "2", "--snr", "0:5:10", "--detectors", "zf, ml"],
            ),
            (
                "dim=3\nmod=16\ntrials=7\nseed=4\nlll-delta=0.9\nsd-budget=500\n"
                "brute-bound=3\nparity=paper-literal\nlar-mode=literal\n"
                "noise-weighting=physical\nworkers=2\ntiming=no\n",
                ["--dim", "3", "--mod", "16", "--trials", "7", "--seed", "4",
                 "--lll-delta", "0.9", "--sd-budget", "500", "--brute-bound", "3",
                 "--parity", "paper-literal", "--lar-mode", "literal",
                 "--noise-weighting", "physical", "--workers", "2", "--no-timing"],
            ),
        ],
        ids=["lists", "every-key"],
    )
    def test_config_file_entries_parse_like_flags(self, entries, flags, tmp_path, built_config):
        path = tmp_path / "run.cfg"
        path.write_text(entries)
        from_file = built_config(["--config", str(path)])
        assert from_file == built_config(flags)
        assert from_file != SimConfig()

    def test_unset_options_keep_the_simconfig_defaults(self, built_config):
        assert built_config(["--kc", "2"]) == dataclasses.replace(SimConfig(), kc=2)


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

    def test_selftest_subcommand_is_gone(self, capsys):
        err = self._usage_error(["selftest"], capsys)
        assert "invalid choice: 'selftest'" in err

    def test_snrgain_writes_per_order_files(self, tmp_path, capsys):
        out = tmp_path / "gains.csv"
        rc = main(
            ["snrgain", "--dim", "4", "--mods", "4,16", "--trials", "3",
             "--seed", "2", "--out", str(out)]
        )
        assert rc == 0
        assert (tmp_path / "gains_m4.csv").exists()
        assert (tmp_path / "gains_m16.csv").exists()

    def test_snrgain_samples_the_config_files_detectors(self, tmp_path):
        cfg = tmp_path / "gain.cfg"
        cfg.write_text("detectors=mzf-ext2:sd\nkc=2\nmod=16\ntrials=3\n")
        from_file, from_flag = tmp_path / "file.csv", tmp_path / "flag.csv"
        assert main(["snrgain", "--config", str(cfg), "--out", str(from_file)]) == 0
        argv = ["snrgain", "--detector", "mzf-ext2:sd", "--kc", "2", "--mod", "16",
                "--trials", "3", "--out", str(from_flag)]
        assert main(argv) == 0
        assert from_file.read_bytes() == from_flag.read_bytes()
        assert len(from_file.read_bytes().splitlines()) == 1 + 24  # two stages per layer

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
            (["--seed", "-1"], "seed must be >= 0, got -1"),
            (["--detectors", "zf:lll"], "detector 'zf' takes no solver suffix"),
            (["--snr=4000"], "snr_db 4000.0 gives no finite noise density"),
            (["--snr=-4000"], "snr_db -4000.0 gives no finite noise density"),
            (["--snr=-3080"], "snr_db -3080.0 gives no finite noise density"),
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

    def test_unknown_config_key_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trails=3\nkc=2\n")
        out = tmp_path / "run.csv"
        err = self._usage_error(["ber", "--config", str(cfg), "--out", str(out)], capsys)
        assert "mzf: error: unknown config keys ['trails']" in err
        assert "valid keys are [" in err and "'trials'" in err
        assert not out.exists()
