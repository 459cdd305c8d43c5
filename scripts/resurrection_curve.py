#!/usr/bin/env python3
"""Success mass of the repeated measure-then-check loop, round by round.

Runs the resurrection laboratory from |dead> for k = 1..K rounds and
compares three numbers per row: the exact mass on |alive> (read off the
forward propagation), the closed form 1 - (1 - 2 a^2 b^2)^k, and a seeded
Monte Carlo estimate.
"""

import argparse

from catlab import (
    ProtocolSpec,
    RepeatStep,
    enumerate_protocol,
    leaf_mass,
    load_scenario,
    run_monte_carlo,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-rounds", type=int, default=12)
    ap.add_argument("--trials", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    sc = load_scenario("resurrection")[0]
    dead, alive = sc.states["dead"], sc.states["alive"]
    # one round, measure pm, measure basis, stop on alive, as the scenario declares it
    body = sc.protocols["resurrect1"].steps[0].body
    q = 0.5  # 2 a^2 b^2 at a = b = 1/sqrt(2)

    print(f"{'k':>3} {'exact':>14} {'closed form':>14} {'|diff|':>9} {'mc freq':>9}")
    for k in range(1, args.max_rounds + 1):
        spec = ProtocolSpec((RepeatStep(body, k),))
        mass = leaf_mass(enumerate_protocol(spec, sc.lab, dead), alive)
        closed = 1 - (1 - q) ** k
        mc = run_monte_carlo(spec, sc.lab, dead, args.trials, args.seed)
        print(
            f"{k:>3} {mass:14.12f} {closed:14.12f} "
            f"{abs(mass - closed):9.2e} {mc.frequency(alive):9.5f}"
        )


if __name__ == "__main__":
    main()
