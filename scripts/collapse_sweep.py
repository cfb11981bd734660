"""Sweep the frame correlation and compare the two distillation routes.

For each rho the script distills one student set from joint-flow pairs
(bidirectional teacher, the arrangement that collapses) and one from
per-chunk conditional pairs (autoregressive teacher), then reports the
first chunk's second-moment deficit and the second chunk's conditional
energy distance for both.

Usage: python3 scripts/collapse_sweep.py [--rhos 0,0.4,0.8] [--pairs 4000]
"""

import argparse
import sys

from ardlab.config import bivariate_pair
from ardlab.diagnostics import collapse_gap, conditional_energy_distance
from ardlab.models import TrainConfig, make_chunk_models
from ardlab.ode import DEFAULT_GRID, make_pairs_bi, make_pairs_causal
from ardlab.stages import ode_distill


def distill(dist, pairs, m, seed):
    students = make_chunk_models(dist.spec, "generator", m=m, seed=seed)
    ode_distill(pairs, students, TrainConfig(method="ridge"), seed=seed + 1)
    return students


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rhos", default="0,0.4,0.8")
    parser.add_argument("--pairs", type=int, default=4000)
    parser.add_argument("--features", type=int, default=512)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    grid = DEFAULT_GRID
    print(f"{'rho':>5} {'deficit':>9} {'SE':>8} {'ED joint-teacher':>17} {'ED ar-teacher':>14}")
    for rho_text in args.rhos.split(","):
        rho = float(rho_text)
        dist = bivariate_pair(rho)
        joint = distill(
            dist,
            make_pairs_bi(dist, grid, count=args.pairs, steps=128, seed=args.seed),
            args.features, args.seed + 1,
        )
        causal = distill(
            dist,
            make_pairs_causal(dist, grid, count=args.pairs, steps=128, seed=args.seed + 10),
            args.features, args.seed + 11,
        )
        gap = collapse_gap(
            joint, dist, grid.times, n=3000, chunk_index=1,
            coupling="bidirectional", n_rms=128, n_inner=500, steps=64,
            seed=args.seed + 20,
        )
        deficit = gap["second_moment_deficit"]
        ed_joint, ed_causal = conditional_energy_distance(
            [joint, causal], dist, grid, 2, count=4000, seed=args.seed + 21
        )
        print(
            f"{rho:>5.2f} {deficit.value:>9.4f} {deficit.uncertainty:>8.4f} "
            f"{ed_joint:>17.5f} {ed_causal:>14.5f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
