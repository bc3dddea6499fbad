"""Process time and search nodes of MZFDetector fits above the benchmark's
sizes: the large-K reference of the sphere search.

    python3 scripts/large_k_fits.py

The script draws 6 real 24 x 24 and then 3 real 32 x 32 i.i.d. N(0, 1)
channels from default_rng(SEED) and fits each with MZFDetector at 4-QAM
(plain variant, solver sd, the default sd_budget).  It prints one JSON
object per fit: K, the channel's index, the fit's process time, the total
and largest node count over its K layer searches, how many of them hit the
budget (exact_ False), and the first 16 hex digits of sha256 over q_, so
two trees can be checked for equal searches as well as compared in time.
BLAS is pinned to one thread.
"""

import hashlib
import json
import os
import sys
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from mzf.channel import generate_real_channel  # noqa: E402
from mzf.detect import MZFDetector  # noqa: E402

SEED = 0
CHANNELS = ((24, 6), (32, 3))  # (K, number of channels)


def main() -> None:
    rng = np.random.default_rng(SEED)
    for k, count in CHANNELS:
        for i in range(count):
            h = generate_real_channel(rng, k)
            t0 = time.process_time()
            det = MZFDetector(4).fit(h)
            elapsed = time.process_time() - t0
            print(json.dumps({
                "K": k,
                "channel": i,
                "process_s": round(elapsed, 3),
                "nodes_total": int(det.nodes_.sum()),
                "nodes_max": int(det.nodes_.max()),
                "budget_hits": int((~det.exact_).sum()),
                "q_sha256": hashlib.sha256(det.q_.tobytes()).hexdigest()[:16],
            }), flush=True)


if __name__ == "__main__":
    main()
