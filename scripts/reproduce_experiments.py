#!/usr/bin/env python3
"""Run every bundled experiment batch and collect the CSV artifacts.

Equivalent to calling `periodet reproduce <id>` for each id; pass
--out-dir to change the destination and --paths to trade accuracy for
speed.
"""

import argparse
import sys

from periodet.cli import REPRODUCE_FIGURES, REPRODUCE_TABLES
from periodet.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="periodet-results")
    parser.add_argument("--paths", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()
    for batch in (*REPRODUCE_TABLES, *REPRODUCE_FIGURES):
        print(f"=== {batch} ===")
        argv = ["reproduce", batch, "--out-dir", args.out_dir]
        if args.paths is not None:
            argv += ["--paths", str(args.paths)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        code = cli_main(argv)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
