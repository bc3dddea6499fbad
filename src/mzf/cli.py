"""Command line front end: BER sweeps, SNR-gain sampling and the exact
worked example.

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


def _as_bool(text: str) -> bool:
    return text.lower() in ("1", "true", "yes", "on")


def _as_list(text: str) -> tuple[str, ...]:
    return tuple(d.strip() for d in text.split(",") if d.strip())


# config-file key, which is also the flag name -> (SimConfig field, text
# parser); an option set by neither keeps the SimConfig default
OPTIONS = {
    "kc": ("kc", int),
    "dim": ("k_real", int),
    "mod": ("modulation", int),
    "snr": ("snr_db", parse_snr_grid),
    "trials": ("trials", int),
    "detectors": ("detectors", _as_list),
    "seed": ("seed", int),
    "lll-delta": ("lll_delta", float),
    "sd-budget": ("sd_budget", int),
    "brute-bound": ("brute_bound", int),
    "parity": ("parity_mode", str),
    "lar-mode": ("lar_mode", str),
    "noise-weighting": ("noise_weighting", str),
    "timing": ("timing", _as_bool),
    "workers": ("workers", int),
}


def _build_config(args) -> SimConfig:
    file_values = load_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_values) - set(OPTIONS))
    if unknown:
        raise ValueError(
            f"unknown config keys {unknown} in {args.config}; valid keys are {sorted(OPTIONS)}"
        )
    fields = {}
    for key, (field, parse) in OPTIONS.items():
        # argparse has already parsed a numeric flag with the same int or float
        value = getattr(args, key.replace("-", "_"), None)
        if value is None:
            value = file_values.get(key)
        if isinstance(value, str):
            value = parse(value)
        if value is not None:
            fields[field] = value
    if args.no_timing:
        fields["timing"] = False
    return SimConfig(**fields)


def _add_common_options(sub):
    sub.add_argument("--kc", type=int, help="complex antennas; real dimension is 2*kc")
    sub.add_argument("--dim", type=int, help="unstructured real channel dimension")
    sub.add_argument(
        "--mod", type=int, help=f"QAM order (power of 4), default {SimConfig.modulation}"
    )
    sub.add_argument("--trials", type=int, help=f"Monte Carlo trials, default {SimConfig.trials}")
    sub.add_argument("--seed", type=int, help=f"base seed, default {SimConfig.seed}")
    sub.add_argument(
        "--lll-delta", type=float, help=f"reduction parameter, default {SimConfig.lll_delta}"
    )
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
    gain.add_argument(
        "--detector", dest="detectors", metavar="DETECTOR",
        help="modulus detector id; default: the first modulus detector in the"
        " config file's detectors entry, or mzf:sd without one",
    )
    gain.add_argument("--out", required=True, help="output file; {m} expands per order")

    example = subs.add_parser("example", help="run the exact 4x4 worked example")
    example.add_argument("--parity", choices=PARITY_MODES, default="derived")

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

    # a bad option or environment value is a usage error: message, exit 2
    try:
        cfg = _build_config(args)
        if args.command == "ber":
            configs = [cfg]
        else:
            mods = (
                tuple(int(v) for v in args.mods.split(","))
                if args.mods
                else (cfg.modulation,)
            )
            configs = [dataclasses.replace(cfg, modulation=m) for m in mods]
        for c in configs:
            c.validate()
            if args.command == "snrgain":
                _gain_spec(c)  # raises unless a modulus detector is listed
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
        emit(samples, "csv", path)
        print(f"wrote {len(samples)} gain samples to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
