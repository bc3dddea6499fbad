"""Modulus zero-forcing MIMO detection toolkit.

Detectors follow a fit/predict estimator API: fit() runs the
per-coherence-interval preprocessing against a channel matrix, predict()
detects observations.  The simulate module provides a deterministic Monte
Carlo harness on top, also reachable through the `mzf` command line tool.
"""

from .alphabet import (
    PamAlphabet,
    bits_to_symbol,
    make_alphabet,
    quantize_even_int,
    quantize_int,
    quantize_pam,
    random_symbols,
    symbol_to_bits,
)
from .channel import (
    ComplexChannel,
    NoiseSpec,
    embed_complex,
    generate_channel,
    generate_real_channel,
    lmmse_inverse,
    mmse_error_matrix,
    pseudo_inverse,
)
from .detect import (
    DetectionResult,
    LARDetector,
    LMMSEDetector,
    MLDetector,
    MZFDetector,
    MimoDetector,
    PerturbationPlan,
    ZFDetector,
    optimize_alpha,
)
from .intsearch import (
    IlsProblem,
    IlsSolution,
    ReducedBasis,
    lll_reduce,
    solve_brute,
    solve_lll,
    solve_sd,
)
from .metrics import BerAccumulator, LayerGain, detector_gains, snr_to_n0
from .modarith import ParityContext, branch_parity, mod_recover
from .simulate import (
    SimConfig,
    SimRecord,
    emit,
    parse_detector_spec,
    run_experiment,
    run_gain_experiment,
)
from .worked_example import run_worked_example

__version__ = "0.1.0"

__all__ = [
    "PamAlphabet",
    "bits_to_symbol",
    "make_alphabet",
    "quantize_even_int",
    "quantize_int",
    "quantize_pam",
    "random_symbols",
    "symbol_to_bits",
    "ComplexChannel",
    "NoiseSpec",
    "embed_complex",
    "generate_channel",
    "generate_real_channel",
    "lmmse_inverse",
    "mmse_error_matrix",
    "pseudo_inverse",
    "DetectionResult",
    "LARDetector",
    "LMMSEDetector",
    "MLDetector",
    "MZFDetector",
    "MimoDetector",
    "PerturbationPlan",
    "ZFDetector",
    "optimize_alpha",
    "IlsProblem",
    "IlsSolution",
    "ReducedBasis",
    "lll_reduce",
    "solve_brute",
    "solve_lll",
    "solve_sd",
    "BerAccumulator",
    "LayerGain",
    "detector_gains",
    "snr_to_n0",
    "ParityContext",
    "branch_parity",
    "mod_recover",
    "SimConfig",
    "SimRecord",
    "emit",
    "parse_detector_spec",
    "run_experiment",
    "run_gain_experiment",
    "run_worked_example",
]
