#!/usr/bin/env python3
"""Regenerate every experiment CSV with the default grids.

Writes fig3.csv, fig4.csv, fig5.csv, headline.csv and mc_verify.csv into
the output directory.  The numeric-exact sweeps dominate the runtime:
--quick took 96 s with one worker on a 2-vCPU Intel Xeon, and the full
speed sweep has 160 points, over four times the quick sweep's 36.  Pass
--workers to spread sweep points over processes, or --quick for a coarse
preview grid.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from paharq.cli import MC_COMMANDS, main as cli_main

QUICK_OVERRIDES = {
    "fig3": {"eps": [1e-5, 1e-4, 1e-3, 1e-2, 1e-1]},
    "fig4": {"eps": [1e-4, 1e-3, 1e-2, 1e-1], "trials": 20_000},
    "fig5": {"v_kmh": [float(v) for v in range(10, 165, 10)] + [116.0, 124.0]},
    "headline": {},
    "mc-verify": {"trials": 20_000},
}


def run(outdir: Path, seed: int, workers: int, quick: bool) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for command in ("fig3", "fig4", "fig5", "headline", "mc-verify"):
            out_path = outdir / f"{command.replace('-', '_')}.csv"
            argv = [command, "--out", str(out_path), "--workers", str(workers)]
            if command in MC_COMMANDS:
                argv += ["--seed", str(seed)]
            if quick and QUICK_OVERRIDES[command]:
                config = Path(tmp) / f"{command}.json"
                config.write_text(json.dumps(QUICK_OVERRIDES[command]))
                argv += ["--config", str(config)]
            print(f"== paharq {' '.join(argv)}")
            code = cli_main(argv)
            print(f"   -> {out_path} (exit {code})")
            status = max(status, code)
    return status


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", type=Path)
    parser.add_argument("--seed", default=20260808, type=int)
    parser.add_argument("--workers", default=1, type=int)
    parser.add_argument("--quick", action="store_true",
                        help="coarse grids and fewer trials")
    args = parser.parse_args()
    sys.exit(run(args.outdir, args.seed, args.workers, args.quick))
