"""Record the ``fig8-sp`` result digests that every run is checked against.

Usage (from the repository root)::

    python3 perfbench/record_digests.py [N_SEEDS]

Runs the os and spcd cells for seeds ``0 .. N_SEEDS-1`` at
:data:`fig8.STEPS` steps and writes ``perfbench/digests.json``.  Re-record
only when a change is *meant* to alter simulated results; a speed-only
change must leave every digest as it is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import fig8  # noqa: E402


def main(argv: "list[str]") -> int:
    n_seeds = int(argv[0]) if argv else 32
    seeds = {}
    for seed in range(n_seeds):
        sims, _, _ = fig8.build_pair(seed, fig8.STEPS)
        pair = fig8.run_pair(sims)
        seeds[str(seed)] = {
            policy: fig8.result_digest(result)
            for policy, result in zip(fig8.POLICIES, pair.results)
        }
        seeds[str(seed)]["exec_ratio"] = pair.exec_ratio
        print(seed, seeds[str(seed)], flush=True)
    record = {"workload": "SP", "steps": fig8.STEPS, "batch_size": fig8.BATCH, "seeds": seeds}
    fig8.DIGESTS.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
