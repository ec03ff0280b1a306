#!/usr/bin/env python3
"""Print a table of bracket values [n t]_p, plus the degrees at which
mixed (non-uniform) staircases pick up their minimal canonical
generators: for uniform parameters they all sit in one degree, for mixed
ones they can spread out.
"""

import argparse

from fusscat.brackets import gfc
from fusscat.canonical import minimal_generators_search
from fusscat.polyomino import StairSpec


def bracket_table(n_max, p_max):
    for p in range(1, p_max + 1):
        print(f"p = {p}")
        header = "  n\\t " + "".join(f"{t:>10}" for t in range(1, n_max))
        print(header)
        for n in range(2, n_max + 1):
            row = [f"{gfc(n, t, p):>10}" if t < n else " " * 10
                   for t in range(1, n_max)]
            print(f"  {n:>3} " + "".join(row))
        print()


def mixed_generator_degrees(samples):
    print("minimal-generator degrees of mixed staircases:")
    for u, r in samples:
        spec = StairSpec(u, r)
        low = max(spec.ambient_box())
        found = minimal_generators_search(spec, low + 3)
        degrees = sorted({sum(z) // 2 for z in found})
        print(f"  u={u} r={r}: {len(found)} generators at x-degrees {degrees}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=6)
    parser.add_argument("--p-max", type=int, default=3)
    args = parser.parse_args()
    bracket_table(args.n_max, args.p_max)
    mixed_generator_degrees([
        ((2, 1), (1, 2)),
        ((1, 3), (2, 1)),
        ((2, 2, 1), (1, 1, 2)),
    ])


if __name__ == "__main__":
    main()
