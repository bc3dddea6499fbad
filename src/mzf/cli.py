"""Command line front end: BER sweeps, SNR-gain sampling, the exact worked
example, and a quick self test.

Options may also come from a key=value config file (--config); explicit
flags win over file entries, which win over defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .detect import LAR_MODES, NOISE_WEIGHTINGS, PARITY_MODES
from .simulate import (
    SimConfig,
    _gain_spec,
    _worker_count,
    emit,
    emit_gain_samples,
    run_experiment,
    run_gain_experiment,
)
from .worked_example import run_worked_example


def parse_snr_grid(text: str) -> tuple[float, ...]:
    """Parse 'start:step:stop' (inclusive) or a comma-separated list."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"SNR range must be start:step:stop, got {text!r}")
        start, step, stop = (float(p) for p in parts)
        if step <= 0:
            raise ValueError(f"SNR step must be positive, got {step}")
        grid = []
        value = start
        while value <= stop + 1e-9:
            grid.append(round(value, 9))
            value += step
        return tuple(grid)
    return tuple(float(p) for p in text.split(",") if p.strip())


def load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _merged(args, file_values: dict, key: str, default, convert=None):
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in file_values:
        raw = file_values[key]
        return convert(raw) if convert else raw
    return default


def _build_config(args) -> SimConfig:
    file_values = load_config_file(args.config) if args.config else {}
    as_int = int
    as_float = float
    as_bool = lambda s: s.lower() in ("1", "true", "yes", "on")
    kc = _merged(args, file_values, "kc", None, as_int)
    k_real = _merged(args, file_values, "dim", None, as_int)
    detectors = _merged(
        args, file_values, "detectors", "zf,mzf:sd", str
    )
    if isinstance(detectors, str):
        detectors = tuple(d.strip() for d in detectors.split(",") if d.strip())
    snr = _merged(args, file_values, "snr", "10", str)
    if isinstance(snr, str):
        snr = parse_snr_grid(snr)
    timing = _merged(args, file_values, "timing", True, as_bool)
    if getattr(args, "no_timing", False):
        timing = False
    return SimConfig(
        modulation=_merged(args, file_values, "mod", 4, as_int),
        kc=kc,
        k_real=k_real,
        snr_db=snr,
        trials=_merged(args, file_values, "trials", 1000, as_int),
        detectors=detectors,
        seed=_merged(args, file_values, "seed", 0, as_int),
        lll_delta=_merged(args, file_values, "lll-delta", 0.75, as_float),
        sd_budget=_merged(args, file_values, "sd-budget", 10**6, as_int),
        brute_bound=_merged(args, file_values, "brute-bound", 8, as_int),
        parity_mode=_merged(args, file_values, "parity", "derived", str),
        lar_mode=_merged(args, file_values, "lar-mode", "shifted", str),
        noise_weighting=_merged(args, file_values, "noise-weighting", "printed", str),
        timing=timing,
        workers=_merged(args, file_values, "workers", 1, as_int),
    )


def _add_common_options(sub):
    sub.add_argument("--kc", type=int, help="complex antennas; real dimension is 2*kc")
    sub.add_argument("--dim", type=int, help="unstructured real channel dimension")
    sub.add_argument("--mod", type=int, help="QAM order (power of 4), default 4")
    sub.add_argument("--trials", type=int, help="Monte Carlo trials, default 1000")
    sub.add_argument("--seed", type=int, help="base seed, default 0")
    sub.add_argument("--lll-delta", type=float, help="reduction parameter, default 0.75")
    sub.add_argument("--sd-budget", type=int, help="sphere search node budget")
    sub.add_argument("--brute-bound", type=int, help="box bound for the brute solver")
    sub.add_argument("--parity", choices=PARITY_MODES, help="fold branch rule")
    sub.add_argument("--lar-mode", choices=LAR_MODES, help="reduction-aided mapping")
    sub.add_argument(
        "--noise-weighting", choices=NOISE_WEIGHTINGS,
        help="noise block weight of the residual matrix (regularized equalizer only)",
    )
    sub.add_argument("--workers", type=int, help="worker processes (MZF_THREADS caps)")
    sub.add_argument("--no-timing", action="store_true", help="write wall_time_ms as 0")
    sub.add_argument("--config", help="key=value config file; flags override")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mzf",
        description="Modulus zero-forcing MIMO detection experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    ber = subs.add_parser("ber", help="bit error rate sweep over an SNR grid")
    _add_common_options(ber)
    ber.add_argument("--snr", help="SNR grid in dB: start:step:stop or comma list")
    ber.add_argument("--detectors", help="comma list, e.g. zf,mzf:sd,mzf-ext2:sd,ml")
    ber.add_argument("--out", required=True, help="output file")
    ber.add_argument("--format", choices=("csv", "json"), help="default from extension")

    gain = subs.add_parser("snrgain", help="per-layer post-SNR gain samples")
    _add_common_options(gain)
    gain.add_argument("--mods", help="comma list of QAM orders, e.g. 4,16,64")
    gain.add_argument("--detector", help="modulus detector id, default mzf:sd")
    gain.add_argument("--out", required=True, help="output file; {m} expands per order")

    example = subs.add_parser("example", help="run the exact 4x4 worked example")
    example.add_argument("--parity", choices=PARITY_MODES, default="derived")

    selftest = subs.add_parser("selftest", help="quick property suites")
    selftest.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)

    if args.command == "example":
        report = run_worked_example(parity=args.parity)
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"{status} {c.name}: expected {c.expected}, got {c.actual}")
        for note in report.notes:
            print(f"NOTE {note}")
        print("worked example:", "PASS" if report.passed else "FAIL")
        return 0 if report.passed else 1

    if args.command == "selftest":
        from .selftest import run_selftest

        results = run_selftest(seed=args.seed)
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
        ok = all(r.passed for r in results)
        print("selftest:", "PASS" if ok else "FAIL")
        return 0 if ok else 1

    # a bad option or environment value is a usage error: message, exit 2
    try:
        cfg = _build_config(args)
        if args.command == "ber":
            configs = [cfg]
        else:
            detector = args.detector or "mzf:sd"
            mods = (
                tuple(int(v) for v in args.mods.split(","))
                if args.mods
                else (cfg.modulation,)
            )
            configs = [
                dataclasses.replace(cfg, modulation=m, detectors=(detector,)) for m in mods
            ]
        for c in configs:
            c.validate()
            if args.command == "snrgain":
                _gain_spec(c)  # raises unless the detector is a modulus one
            _worker_count(c)  # raises on a malformed MZF_THREADS
    except ValueError as exc:
        parser.error(str(exc))

    if args.command == "ber":
        records = run_experiment(cfg)
        fmt = args.format or ("json" if args.out.endswith(".json") else "csv")
        emit(records, fmt, args.out)
        print(f"wrote {len(records)} records to {args.out}")
        return 0

    # snrgain
    for mod_cfg in configs:
        m = mod_cfg.modulation
        samples = run_gain_experiment(mod_cfg)
        if "{m}" in args.out:
            path = args.out.replace("{m}", str(m))
        elif len(configs) > 1:
            root, dot, ext = args.out.rpartition(".")
            path = f"{root}_m{m}{dot}{ext}" if dot else f"{args.out}_m{m}"
        else:
            path = args.out
        emit_gain_samples(samples, path)
        print(f"wrote {len(samples)} gain samples to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
