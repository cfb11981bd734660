"""Print the Heun flow-map error against the closed-form Gaussian map.

Each row halves the step count's reciprocal; a second-order solver shows
error ratios near 4 between consecutive rows.

Usage: python3 scripts/solver_convergence.py [--rho 0.8] [--max-steps 256]
"""

import argparse
import sys

import numpy as np

from ardlab.config import bivariate_pair
from ardlab.ode import bi_velocity_field, gaussian_flow_map, integrate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rho", type=float, default=0.8)
    parser.add_argument("--max-steps", type=int, default=256)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    dist = bivariate_pair(args.rho)
    component = dist.components[0]
    m, b = gaussian_flow_map(component.mean, component.covariance, 1.0)
    x1 = np.random.default_rng(args.seed).standard_normal((1024, 2))
    exact = x1 @ m.T + b
    field = bi_velocity_field(dist)

    steps = 8
    previous = None
    print(f"{'steps':>6} {'rms error':>12} {'ratio':>7}")
    while steps <= args.max_steps:
        endpoint = integrate(field, x1, 1.0, 0.0, steps)
        err = float(np.sqrt(np.mean((endpoint - exact) ** 2)))
        ratio = "" if previous is None else f"{previous / err:7.2f}"
        print(f"{steps:>6} {err:>12.3e} {ratio:>7}")
        previous = err
        steps *= 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
