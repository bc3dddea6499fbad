"""Monte Carlo runner tests: determinism, pairing, record emission."""

import collections
import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from mzf import detect, intsearch
from mzf.alphabet import make_alphabet, random_symbols, symbol_to_bits
from mzf.channel import embed_complex, generate_channel
from mzf.detect import MimoDetector, ZFDetector
from mzf.metrics import snr_to_n0
from mzf.simulate import (
    CSV_COLUMNS,
    SimConfig,
    SimRecord,
    _draw,
    emit,
    parse_detector_spec,
    run_experiment,
    run_gain_experiment,
)

BASE = SimConfig(
    modulation=4,
    kc=2,
    snr_db=(4.0, 10.0),
    trials=12,
    detectors=("zf", "mzf:sd"),
    seed=5,
    timing=False,
)


class TestDetectorSpecs:
    def test_plain_kinds(self):
        spec = parse_detector_spec("zf")
        assert (spec.kind, spec.equalizer, spec.solver) == ("zf", "zf", "sd")
        assert spec.label == "zf"

    def test_full_grammar(self):
        spec = parse_detector_spec("mzf-ext2+lmmse:lll")
        assert (spec.kind, spec.equalizer, spec.solver) == ("mzf-ext2", "lmmse", "lll")
        assert spec.label == "mzf-ext2+lmmse:lll"

    def test_mzf_label_is_canonical(self):
        assert parse_detector_spec("mzf").label == "mzf:sd"

    @pytest.mark.parametrize(
        "bad", ["zfx", "mzf:fast", "mzf+mmse", "zf+lmmse", "zf:lll", "ml:brute"]
    )
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            parse_detector_spec(bad)

    def test_parsed_once_and_refused_every_time(self):
        assert parse_detector_spec("mzf-ext2:sd") is parse_detector_spec("mzf-ext2:sd")
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown solver"):
                parse_detector_spec("mzf:fast")


class TestConfigValidation:
    def test_valid_config_passes(self):
        BASE.validate()

    @pytest.mark.parametrize(
        "kwargs,err_match",
        [
            ({"trials": 0}, "trials"),
            ({"snr_db": ()}, "snr_db"),
            ({"kc": None}, "kc"),
            ({"kc": 2, "k_real": 4}, "kc"),
            ({"detectors": ()}, "detectors"),
            ({"parity_mode": "other"}, "parity_mode"),
            ({"lar_mode": "other"}, "lar_mode"),
            ({"workers": 0}, "workers"),
            ({"modulation": 8}, "modulation"),
            ({"detectors": ("zf", "nope")}, "kind"),
            ({"snr_db": (10.0, float("nan"))}, "snr_db must be finite"),
            ({"snr_db": (float("inf"),)}, "snr_db must be finite"),
            ({"noise_weighting": "other"}, "noise_weighting"),
            ({"lll_delta": 2.0}, "lll_delta"),
            ({"sd_budget": 0}, "sd_budget"),
            ({"brute_bound": -1}, "brute_bound"),
            ({"trials": True}, "trials must be an integer, got True"),
            ({"kc": 1.5}, "kc must be an integer, got 1.5"),
            ({"kc": None, "k_real": 2.5}, "k_real must be an integer, got 2.5"),
            ({"workers": 2.0}, "workers must be an integer, got 2.0"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
        ],
    )
    def test_invalid_configs_name_the_field(self, kwargs, err_match):
        cfg = dataclasses.replace(BASE, **kwargs)
        with pytest.raises(ValueError, match=err_match):
            cfg.validate()

    def test_rejects_float_modulation_order(self):
        # the per-order alphabet memo must never be keyed on 16.0
        cfg = dataclasses.replace(BASE, modulation=16.0)
        with pytest.raises(ValueError, match="modulation must be an integer, got 16.0"):
            cfg.validate()


class TestRunExperiment:
    def test_repeat_runs_identical(self, tmp_path):
        r1 = run_experiment(BASE)
        r2 = run_experiment(BASE)
        assert r1 == r2

    def test_worker_count_does_not_change_output(self, tmp_path):
        files = []
        for workers in (1, 2, 3):
            cfg = dataclasses.replace(BASE, workers=workers)
            path = tmp_path / f"w{workers}.csv"
            emit(run_experiment(cfg), "csv", str(path))
            files.append(path.read_bytes())
        assert files[0] == files[1] == files[2]

    def test_worker_count_does_not_change_merged_counts(self, tmp_path):
        # ML, and detectors fitted once per SNR point whose gain sums and
        # counts differ per cell; 7 trials split unevenly over 2 and 3 parts
        cfg = dataclasses.replace(
            BASE, trials=7, detectors=("ml", "lmmse", "mzf+lmmse:sd", "mzf-ext2:sd")
        )
        files = []
        for workers in (1, 2, 3):
            path = tmp_path / f"w{workers}.csv"
            emit(run_experiment(dataclasses.replace(cfg, workers=workers)), "csv", str(path))
            files.append(path.read_bytes())
        assert files[0] == files[1] == files[2]

    def test_rates_match_a_hand_count(self):
        # the draws of every trial in their order, detected and counted here
        # one observation at a time
        cfg = dataclasses.replace(BASE, modulation=16, trials=6, detectors=("zf",))
        alphabet = make_alphabet(16)
        errors = np.zeros((len(cfg.snr_db), 3), dtype=np.int64)  # symbols, bit layers
        for trial in range(cfg.trials):
            rng = np.random.default_rng([cfg.seed, trial])
            h = embed_complex(generate_channel(rng, cfg.kc))
            det = ZFDetector(16).fit(h)
            for s, snr in enumerate(cfg.snr_db):
                x = random_symbols(rng, alphabet, 4)
                sigma = np.sqrt(snr_to_n0(snr, alphabet).n0 / 2.0)
                got = det.predict(h @ x + sigma * rng.standard_normal(4))
                errors[s, 0] += np.sum(got != x)
                errors[s, 1:] += np.sum(symbol_to_bits(got, 2) != symbol_to_bits(x, 2), axis=0)
        n = cfg.trials * 4
        records = run_experiment(cfg)
        assert errors[:, 1:].min() > 0
        for s, (low, high, both) in enumerate(zip(*[iter(records)] * 3)):
            assert low.ser == high.ser == both.ser == errors[s, 0] / n
            assert (low.ber, high.ber) == (errors[s, 1] / n, errors[s, 2] / n)
            assert both.ber == (errors[s, 1] + errors[s, 2]) / (2 * n)

    def test_noiseless_limit_has_zero_errors(self):
        cfg = dataclasses.replace(
            BASE, snr_db=(60.0,), trials=100, detectors=("zf",)
        )
        records = run_experiment(cfg)
        assert all(r.ber == 0.0 and r.ser == 0.0 for r in records)

    def test_record_layout(self):
        records = run_experiment(BASE)
        # per detector and SNR point: one row per bit layer plus one "all"
        assert len(records) == 2 * 2 * 2
        assert [r.bit_layer for r in records[:2]] == ["1", "all"]
        assert records[0].trials == BASE.trials

    def test_records_hold_python_scalars(self):
        cfg = dataclasses.replace(BASE, modulation=16, timing=True)
        records = run_experiment(cfg)
        types = (str, float, str, float, float, float, int, int)
        for r in records:
            assert type(r) is SimRecord and len(r) == 8 and r == SimRecord(*r)
            assert tuple(map(type, r)) == types

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shared_bits_keep_each_detector_apart(self, workers):
        # one run of several detectors gives, row for row, the records of
        # runs of one detector each at the same seed: with detectors fitted
        # alone, with one family of every modulus variant beside them, with
        # two solvers on one channel and with one LMMSE family per point
        lists = (
            ("zf", "lmmse", "mzf:sd", "mzf+lmmse:sd", "ml"),
            ("zf", "mzf:sd", "mzf-ext1:sd", "mzf-ext2:sd", "mzf-ext3:sd", "ml"),
            ("mzf:sd", "mzf:lll", "mzf-ext2:lll"),
            ("mzf+lmmse:sd", "mzf-ext2+lmmse:sd", "mzf-ext3+lmmse:sd"),
        )
        # points where each order makes some errors, so the records differ
        grids = {4: (0.0, 4.0, 8.0), 16: (6.0, 14.0, 22.0), 64: (12.0, 18.0, 24.0)}
        for detectors in lists:
            for modulation, snr_db in grids.items():
                cfg = dataclasses.replace(
                    BASE, modulation=modulation, snr_db=snr_db, trials=7, workers=workers
                )
                together = run_experiment(dataclasses.replace(cfg, detectors=detectors))
                alone = [
                    r for d in detectors
                    for r in run_experiment(dataclasses.replace(cfg, detectors=(d,)))
                ]
                assert together == alone, (detectors, modulation)
                # the records differ, so their equality says something; at
                # M = 4 every modulus variant is the plain detector
                floor = 1 if modulation == 4 else len(detectors)
                assert len({(r.ber, r.ser) for r in together}) > floor

    def test_family_counts_each_members_exhausted_searches(self, capsys):
        # with sd_budget=1 every search stops early; a family's members
        # share their rows' searches, and each still counts every search of
        # its own stages, so the warning counts what the solo runs count
        detectors = ("mzf:sd", "mzf-ext1:sd", "mzf-ext2:sd", "mzf-ext3:sd", "mzf+lmmse:sd")
        cfg = dataclasses.replace(BASE, modulation=16, trials=4, sd_budget=1)

        def warned(detectors):
            run_experiment(dataclasses.replace(cfg, detectors=detectors))
            found = re.search(r"warning: (\d+) sphere searches", capsys.readouterr().err)
            return int(found.group(1))

        solo = [warned((d,)) for d in detectors]
        assert min(solo) > 0
        assert warned(detectors) == sum(solo)

    def test_unstructured_real_channel_mode(self):
        cfg = dataclasses.replace(BASE, kc=None, k_real=3, trials=5)
        records = run_experiment(cfg)
        assert records[0].trials == 5

    def test_timing_flag(self):
        withtime = dataclasses.replace(BASE, trials=3, timing=True)
        records = run_experiment(withtime)
        assert any(r.wall_time_ms >= 0 for r in records)
        notime = dataclasses.replace(BASE, trials=3, timing=False)
        assert all(r.wall_time_ms == 0 for r in run_experiment(notime))

    def test_budget_exhaustion_warns_but_completes(self, capsys):
        cfg = dataclasses.replace(BASE, trials=4, sd_budget=1)
        records = run_experiment(cfg)
        assert records  # degraded solutions, not failures
        assert "budget" in capsys.readouterr().err

    def test_env_caps_workers(self, monkeypatch, tmp_path):
        monkeypatch.setenv("MZF_THREADS", "1")
        capped = run_experiment(dataclasses.replace(BASE, workers=8))
        monkeypatch.delenv("MZF_THREADS")
        assert capped == run_experiment(BASE)

    def test_env_cap_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv("MZF_THREADS", "two")
        with pytest.raises(ValueError, match="MZF_THREADS.*'two'"):
            run_experiment(dataclasses.replace(BASE, workers=2))


class TestBatching:
    def test_one_predict_per_trial_and_fit(self, monkeypatch):
        # a detector fitted once per trial detects every SNR point in one
        # predict_bits; one whose fit needs n0 is fitted and called per point
        calls = collections.Counter()

        def counted(method):
            original = getattr(MimoDetector, method)

            def wrapper(self, *args, **kwargs):
                calls[type(self).__name__, method] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(MimoDetector, method, wrapper)

        for method in ("fit", "predict_bits", "detect"):
            counted(method)
        trials, points = 5, 3
        cfg = dataclasses.replace(
            BASE,
            snr_db=(4.0, 10.0, 16.0),
            trials=trials,
            detectors=("zf", "mzf:sd", "lmmse", "ml", "mzf+lmmse:sd"),
        )
        run_experiment(cfg)
        assert calls == {
            ("ZFDetector", "fit"): trials,
            ("ZFDetector", "predict_bits"): trials,
            ("MLDetector", "fit"): trials,
            ("MLDetector", "predict_bits"): trials,
            ("MZFDetector", "fit"): trials + trials * points,
            ("MZFDetector", "predict_bits"): trials + trials * points,
            ("LMMSEDetector", "fit"): trials * points,
            ("LMMSEDetector", "predict_bits"): trials * points,
        }

    @pytest.mark.usefixtures("fresh_pseudo_inverse_memo")
    def test_one_svd_per_trial(self, monkeypatch):
        # ZF computes the trial's pseudo-inverse; the three modulus fits
        # and ML's rank check read it from the memo
        calls = []
        real = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        cfg = dataclasses.replace(
            BASE,
            modulation=16,
            trials=5,
            detectors=("zf", "mzf:sd", "mzf-ext2:sd", "mzf-ext3:sd", "ml"),
        )
        run_experiment(cfg)
        assert len(calls) == cfg.trials


@pytest.mark.usefixtures("fresh_reduction_memo")
class TestReductions:
    @pytest.fixture
    def reductions(self, monkeypatch):
        """Calls of lll_reduce, through the memo in intsearch or directly
        from detect."""
        calls = []
        real = intsearch.lll_reduce

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(intsearch, "lll_reduce", counted)
        monkeypatch.setattr(detect, "lll_reduce", counted)
        return calls

    def test_brute_solver_reduces_nothing(self, reductions):
        run_experiment(dataclasses.replace(BASE, trials=5, detectors=("mzf:brute",)))
        assert len(reductions) == 0

    def test_lar_keeps_the_modulus_detectors_reduction(self, reductions):
        # per trial one reduction of the ZF basis, shared by both modulus
        # detectors, and one of H for LAR
        cfg = dataclasses.replace(
            BASE, modulation=16, trials=5, detectors=("mzf:sd", "lar", "mzf-ext2:sd")
        )
        run_experiment(cfg)
        assert len(reductions) == 10


class TestEmit:
    def test_csv_layout(self, tmp_path):
        path = tmp_path / "out.csv"
        emit(run_experiment(BASE), "csv", str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        first = lines[1].split(",")
        assert first[0] == "zf"
        assert first[1] == "4.0"
        float(first[3])  # ber parses

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "out.json"
        records = run_experiment(BASE)
        emit(records, "json", str(path))
        data = json.loads(path.read_text())
        assert [SimRecord(**row) for row in data] == records
        assert list(data[0].keys()) == list(CSV_COLUMNS)

    def test_rejects_empty_and_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit([], "csv", str(tmp_path / "x.csv"))
        with pytest.raises(ValueError):
            emit(run_experiment(BASE), "xml", str(tmp_path / "x.xml"))


class TestGainExperiment:
    def test_samples_are_nonnegative_and_sorted(self):
        cfg = dataclasses.replace(BASE, detectors=("mzf:sd",), trials=20, workers=2)
        samples = run_gain_experiment(cfg)
        assert len(samples) == 20 * 2 * BASE.kc
        assert all(s.gain_db >= -1e-9 for s in samples)
        keys = [(s.trial, s.layer) for s in samples]
        assert keys == sorted(keys)

    def test_requires_modulus_detector(self):
        cfg = dataclasses.replace(BASE, detectors=("zf", "ml"), trials=2)
        with pytest.raises(ValueError, match="need a modulus detector in the list"):
            run_gain_experiment(cfg)

    def test_samples_the_first_modulus_detector_listed(self):
        cfg = dataclasses.replace(BASE, modulation=16, trials=3)
        listed = ("zf", "mzf-ext2:sd", "mzf:sd")
        want = run_gain_experiment(dataclasses.replace(cfg, detectors=listed[1:2]))
        assert run_gain_experiment(dataclasses.replace(cfg, detectors=listed)) == want
        assert len(want) == 3 * 2 * BASE.kc * 2  # two bit stages per layer

    def test_worker_count_does_not_change_gain_samples(self, tmp_path):
        # the bit-wise variant has two stages per layer at 16-QAM, so a trial
        # repeats each layer number; 7 trials split unevenly over 2 and 3 parts
        cfg = dataclasses.replace(
            BASE, modulation=16, detectors=("mzf-ext2:sd",), trials=7
        )
        files = []
        for workers in (1, 2, 3):
            path = tmp_path / f"w{workers}.csv"
            emit(
                run_gain_experiment(dataclasses.replace(cfg, workers=workers)),
                "csv", str(path),
            )
            files.append(path.read_bytes())
        assert files[0] == files[1] == files[2]
        assert len(files[0].splitlines()) == 1 + 7 * 2 * BASE.kc * 2

    def test_emit_gain_csv(self, tmp_path):
        cfg = dataclasses.replace(BASE, detectors=("mzf:sd",), trials=3)
        path = tmp_path / "gains.csv"
        emit(run_gain_experiment(cfg), "csv", str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,layer,gain_db"
        assert len(lines) == 1 + 3 * 2 * BASE.kc


class TestDraws:
    @pytest.mark.parametrize("m,k,n", [(4, 4, 4), (16, 6, 6), (64, 4, 8)])
    def test_block_draws_equal_the_point_by_point_draws(self, m, k, n):
        # per point random_symbols, then standard_normal, on 200 trial
        # streams; the stream must also end in the same place
        alphabet = make_alphabet(m)
        for seed in range(200):
            rng, ref = np.random.default_rng([seed, 7]), np.random.default_rng([seed, 7])
            x, noise = _draw(rng, alphabet, 17, k, n)
            want_x = np.empty((17, k))
            want_noise = np.empty((17, n))
            for s in range(17):
                want_x[s] = random_symbols(ref, alphabet, k)
                want_noise[s] = ref.standard_normal(n)
            assert (x.dtype, x.tobytes()) == (want_x.dtype, want_x.tobytes())
            assert noise.tobytes() == want_noise.tobytes()
            assert rng.random() == ref.random()


class TestPairing:
    def test_all_detectors_see_identical_draws(self):
        # a detector listed twice must produce identical records
        cfg = dataclasses.replace(BASE, detectors=("mzf:sd", "mzf:sd"), trials=10)
        records = run_experiment(cfg)
        first = [r._replace(detector="x") for r in records if r.detector == "mzf:sd"]
        # both copies collapse onto the same label; split by position instead
        half = len(records) // 2
        a = [r._replace(detector="x") for r in records[:half]]
        b = [r._replace(detector="x") for r in records[half:]]
        assert a == b
        assert first  # sanity: the label exists


# sha256 of the emit(..., "csv") bytes of run_experiment at seed 3. A change
# to the draw order, the detection path or the accounting that moves one byte
# of a record fails here; the mixed set covers LMMSE, LAR and the lll and
# brute solvers, which no benchmark golden runs
PIN_SNR_DB = (6.0, 12.0, 18.0, 24.0)
PIN_DETECTORS = {
    "modulus": ("zf", "mzf:sd", "mzf-ext2:sd", "mzf-ext3:sd", "ml"),
    "mixed": ("lmmse", "mzf+lmmse:sd", "mzf-ext1:lll", "lar", "mzf:brute"),
}
PIN_SHAPES = {
    "kc2-16qam": {"kc": 2, "modulation": 16},
    "kreal4-4qam": {"k_real": 4, "modulation": 4},
    "kc2-64qam": {"kc": 2, "modulation": 64},
}
RECORD_DIGESTS = {
    ("kc2-16qam", "modulus"):
        "c314da3af6c02e034b54be7d3d503cb9f49ba9c9c3143dfb2239195cd5fa16b5",
    ("kc2-16qam", "mixed"):
        "8c1bf1a69d93ee94175e094048d7dd132b9129e7381e4f57677df4513dd7d13a",
    ("kreal4-4qam", "modulus"):
        "af9842ecbd56f884c8256cbdf96e00552da2737985766cf4eca62ef133a135a2",
    ("kreal4-4qam", "mixed"):
        "94c053acfd6eb8aa7f05ea127b2acc4d3a145776c210af611e430c35559736e1",
    ("kc2-64qam", "modulus"):
        "894127c17d637c50fdc49d51676aa62643322fe4df6d1f2d6fa847cc2ad8c873",
    ("kc2-64qam", "mixed"):
        "b98d5912c2491688b2800ac1a79e44e189cd615a6c5b757ebf1c26ceedbb09a7",
}


class TestRecordsPinned:
    @pytest.mark.parametrize("shape,detectors", sorted(RECORD_DIGESTS))
    def test_csv_bytes(self, tmp_path, shape, detectors):
        cfg = SimConfig(
            snr_db=PIN_SNR_DB,
            trials=12,
            detectors=PIN_DETECTORS[detectors],
            seed=3,
            timing=False,
            **PIN_SHAPES[shape],
        )
        path = tmp_path / "records.csv"
        emit(run_experiment(cfg), "csv", str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == RECORD_DIGESTS[(shape, detectors)]


# sha256 of the gain CSV bytes of run_gain_experiment at seed 9, 20 trials.
# Gains read every (stage, layer) search of a fit, so a change to a search,
# its tie rule or the plan arithmetic that moves one digit fails here
GAIN_CONFIGS = {
    "mzf:sd-kc2-16qam": {"detectors": ("mzf:sd",), "kc": 2, "modulation": 16},
    "mzf-ext2:sd-kreal6-64qam":
        {"detectors": ("mzf-ext2:sd",), "k_real": 6, "modulation": 64},
    "mzf-ext1:lll-kc2-4qam": {"detectors": ("mzf-ext1:lll",), "kc": 2, "modulation": 4},
    "mzf-ext2:brute-kc2-16qam":
        {"detectors": ("mzf-ext2:brute",), "kc": 2, "modulation": 16},
}
GAIN_DIGESTS = {
    "mzf:sd-kc2-16qam":
        "3d5406b55147d00641ce225889efff19f5821b8aa449b73051ed02e44a937c72",
    "mzf-ext2:sd-kreal6-64qam":
        "d9793f9ea79409cd1f3f50942c9db52b7afc8e90224b39551651a1d8516e141a",
    "mzf-ext1:lll-kc2-4qam":
        "ecc52780f9a005f21a197843ea3e956495d6fe014cd1b4e7502d45b6918b2a19",
    "mzf-ext2:brute-kc2-16qam":
        "90697270c2672213efa217535f956777d51f4a8249969622fde2f01bdcf8c720",
}


class TestGainsPinned:
    @pytest.mark.parametrize("name", sorted(GAIN_DIGESTS))
    def test_csv_bytes(self, tmp_path, name):
        cfg = SimConfig(trials=20, seed=9, **GAIN_CONFIGS[name])
        path = tmp_path / "gains.csv"
        emit(run_gain_experiment(cfg), "csv", str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GAIN_DIGESTS[name]
