"""Process time of MLDetector.predict: the block search against the per-row
depth-first search, per (kc, M) and block size.

    python3 scripts/ml_search_table.py

For each kc in 2, 3, 4 and M in 4, 16, 64 the script draws CHANNELS random
kc x kc complex channels from default_rng([SEED, kc, M]) and, on each, one
observation at each of 0, 2, ..., 32 dB (the 17 points of the ber_sweep
benchmark workload).  A block of n rows takes n of these points spread
evenly over the grid (16 dB alone for n = 1).  Each block is detected
through predict with every row searched depth first (ML_BLOCK_ROWS above
n) and with the block search (ML_BLOCK_ROWS = 0); the two sides alternate,
and each takes its least process time over three calls.  The decisions
must be equal.  One JSON object is printed: per (kc, M, rows), each side's
mean over the channels of that least time in microseconds per block, the
search predict picks at the committed ML_BLOCK_ROWS, and the depth-first
time over the picked search's time.  BLAS is pinned to one thread.
"""

import json
import os
import sys
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from mzf import detect  # noqa: E402
from mzf.alphabet import make_alphabet  # noqa: E402
from mzf.channel import embed_complex, generate_channel  # noqa: E402
from mzf.metrics import snr_to_n0  # noqa: E402

CHANNELS = 200
SEED = 0
SNR_DB = np.arange(0.0, 33.0, 2.0)
REPEATS = 3
CHOSEN = detect.ML_BLOCK_ROWS
ROWS = sorted({1, 2, 4, 8, CHOSEN - 1, CHOSEN, len(SNR_DB)})


def least_time(det, y, limit):
    """(least process time of det.predict(y) over REPEATS calls with
    ML_BLOCK_ROWS = limit, its decisions)."""
    detect.ML_BLOCK_ROWS = limit
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.process_time()
        out = det.predict(y)
        best = min(best, time.process_time() - t0)
    return best, out


def main() -> None:
    table = []
    for kc in (2, 3, 4):
        for m in (4, 16, 64):
            alphabet = make_alphabet(m)
            sigma = np.sqrt([snr_to_n0(s, alphabet).n0 / 2.0 for s in SNR_DB])[:, None]
            rng = np.random.default_rng([SEED, kc, m])
            totals = {n: [0.0, 0.0] for n in ROWS}
            for c in range(CHANNELS):
                h = embed_complex(generate_channel(rng, kc))
                x = alphabet.points[rng.integers(0, alphabet.sqrt_m, (len(SNR_DB), 2 * kc))]
                y = x @ h.T + sigma * rng.standard_normal(x.shape)
                det = detect.MLDetector(m).fit(h)
                for n in ROWS:
                    block = y[np.round((np.arange(n) + 0.5) * len(y) / n - 0.5).astype(int)]
                    sides = [(0, n + 1), (1, 0)]  # (side, ML_BLOCK_ROWS): dfs, block
                    if c % 2:
                        sides.reverse()
                    got = {}
                    for side, limit in sides:
                        t, got[side] = least_time(det, block, limit)
                        totals[n][side] += t
                    if not np.array_equal(got[0], got[1]):
                        raise SystemExit(f"decisions differ at kc={kc} M={m} channel {c}")
            for n, (t_dfs, t_block) in totals.items():
                search = "block" if n >= CHOSEN else "dfs"
                table.append({
                    "kc": kc,
                    "M": m,
                    "rows": n,
                    "dfs_us": round(t_dfs / CHANNELS * 1e6, 1),
                    "block_us": round(t_block / CHANNELS * 1e6, 1),
                    "search": search,
                    "speedup": round(t_dfs / (t_block if search == "block" else t_dfs), 3),
                })
    detect.ML_BLOCK_ROWS = CHOSEN
    print(json.dumps({"channels": CHANNELS, "seed": SEED, "ml_block_rows": CHOSEN,
                      "table": table}, indent=1))


if __name__ == "__main__":
    main()
