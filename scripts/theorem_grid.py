#!/usr/bin/env python3
"""Sweep candidate superposition weights on the cat laboratory.

For each |a|^2 on a grid, adjoin the projector onto a|alive> + b|dead> and
report the steering witness found behind the forbidden dead -> alive
transition.  The depth-2 witness probability should track a^2 * b^2.
"""

import argparse
import math

from catlab import load_scenario, nogo_verdict, superposition_projector


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--points", type=int, default=9, help="grid size (default 9)")
    ap.add_argument("--depth", type=int, default=8)
    args = ap.parse_args()

    sc = load_scenario("cat")[0]
    alive, dead = sc.states["alive"], sc.states["dead"]

    print(f"{'a^2':>6} {'b^2':>6} {'violated':>9} {'depth':>6} {'witness p':>12} {'a^2*b^2':>12} {'|diff|':>9}")
    for i in range(1, args.points + 1):
        a2 = i / (args.points + 1)
        cand = superposition_projector(sc.space, math.sqrt(a2), math.sqrt(1 - a2))
        v = nogo_verdict(
            sc.lab, cand, alive, dead, max_depth=args.depth,
            name="cand", outcome_label="S",
        )
        expected = a2 * (1 - a2)
        got = v.witness.probability if v.witness else float("nan")
        depth = len(v.witness.steps) if v.witness else 0
        print(
            f"{a2:6.3f} {1 - a2:6.3f} {str(v.violated):>9} {depth:>6} "
            f"{got:12.9f} {expected:12.9f} {abs(got - expected):9.2e}"
        )

    for a2 in (0.0, 1.0):
        cand = superposition_projector(sc.space, math.sqrt(a2), math.sqrt(1 - a2))
        v = nogo_verdict(sc.lab, cand, alive, dead, max_depth=6, name="cand")
        print(
            f"degenerate a^2={a2:.0f}: violated={v.violated} "
            f"bound_reached={v.bound_reached} certificate={v.certificate}"
        )


if __name__ == "__main__":
    main()
