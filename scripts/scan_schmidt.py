#!/usr/bin/env python3
"""Scan the average correlation of the undamped pure state over the Schmidt
coefficient and report where it peaks.

The value runs from 1/4 at the product states (c = 0 or 1) up to 1/2 at the
maximally entangled point c = 1/sqrt(2).
"""

import argparse

import numpy as np

from avgcorr import PHASE_DAMPING, classify, damped_sigma


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=201, help="grid size")
    args = parser.parse_args()

    grid = np.linspace(0.0, 1.0, args.points)
    _, values = damped_sigma(PHASE_DAMPING, grid, 0.0, "exact")  # undamped
    print(f"{'c':>8}  {'sigma':>14}  label")
    for c, v in zip(grid[:: max(args.points // 20, 1)],
                    values[:: max(args.points // 20, 1)]):
        print(f"{c:8.4f}  {v:14.10f}  {classify(v)}")
    best = int(values.argmax())
    print(f"\npeak sigma = {values[best]:.10f} at c = {grid[best]:.6f} "
          f"(1/sqrt(2) = {1 / np.sqrt(2):.6f})")


if __name__ == "__main__":
    main()
