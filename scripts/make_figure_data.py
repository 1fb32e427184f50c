#!/usr/bin/env python3
"""Regenerate the two decay datasets (phase and amplitude damping) as CSV.

Writes figure1.csv and figure2.csv into the output directory and prints a
short summary of each curve (start, minimum, final value per rate).
"""

import argparse
from pathlib import Path

from avgcorr import figure_dataset
from avgcorr.cli import write_output


def summarize(curve, name):
    print(name)
    for gamma, sigmas in zip(curve.gammas.tolist(), curve.sigma.tolist()):
        print(
            f"  gamma={gamma:<4}: start={sigmas[0]:.6f} "
            f"min={min(sigmas):.6f} final={sigmas[-1]:.6f}"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="data", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for figure, name in ((1, "phase damping"), (2, "amplitude damping")):
        curve = figure_dataset(figure)
        path = outdir / f"figure{figure}.{args.format}"
        write_output(curve, fmt=args.format, path=str(path))
        summarize(curve, f"figure {figure} ({name}) -> {path}")


if __name__ == "__main__":
    main()
