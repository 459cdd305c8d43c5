#!/usr/bin/env python3
"""Which measurements can tell a superposition from the matching mixture.

For each shipped pair (pure state, even mixture) and each declared
measurement, print the exact total variation distance and a sampled
chi-square p-value.  Separating measurements show TV 0.5; the diagonal
readouts are blind (TV 0).
"""

import argparse

from catlab import discriminate, load_scenario


CASES = (
    ("cat", "cat_plus", "rho_cat", ("plusminus", "basis")),
    ("composite", "psi_plus", "rho_s", ("sch_plus", "collective", "device_pm")),
    ("photon", "x_plus", "rho_ph", ("xbasis", "zbasis")),
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=50000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(
        f"{'scenario':>10} {'pure':>9} {'mixture':>8} {'measurement':>12} "
        f"{'TV':>8} {'chi2 p':>10}"
    )
    for scenario, pure, mixed, names in CASES:
        sc = load_scenario(scenario)[0]
        for name in names:
            rep = discriminate(
                sc.states[pure], sc.mixtures[mixed], sc.measurements[name],
                args.trials, args.seed, name=name,
            )
            print(
                f"{scenario:>10} {pure:>9} {mixed:>8} {name:>12} "
                f"{rep.total_variation:8.5f} {rep.p_value:10.3e}"
            )


if __name__ == "__main__":
    main()
