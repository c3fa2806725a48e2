"""Winding numbers look Gaussian: KS distances shrinking with N.

Runs the exhaustive A = 3 enumeration once, then reports the KS
distance between the normalized winding distribution and the matching
centered Gaussian for each normalization, at increasing cutoffs N.
Writes an SVG of the period-normalized histogram next to this script.
"""

import os

from modwind import bulk, cli, stats, svgplot

A = 3
N = 10


def main():
    print(f"enumerating all necklaces with A = {A}, N = {N} ...")
    acc = bulk.run(A, N)
    print(f"{acc.total_count():,} necklaces")
    print()

    # The same targets as `modwind dist` at its default --tol.
    sigma2 = {norm: cli.NORM_SIGMA[norm](A, 1e-3) for norm in stats.NORMALIZATIONS}

    print("KS distance to N(0, sigma^2) by cutoff:")
    header = "  norm   " + "".join(f"  N={n:<6d}" for n in range(4, N + 1, 2))
    print(header)
    for norm in stats.NORMALIZATIONS:
        row = f"  {norm:<7s}"
        for n in range(4, N + 1, 2):
            rep = stats.ks_distance(acc.restricted(n), norm, sigma2[norm])
            row += f"  {rep.ks:.4f}  "
        print(row)

    rep = stats.ks_distance(acc, stats.PERIOD, sigma2[stats.PERIOD])
    out = os.path.join(os.path.dirname(__file__), "limit_law.svg")
    with open(out, "w") as fh:
        fh.write(svgplot.render(rep.cdf_points, sigma2[stats.PERIOD]))
    print()
    print(f"histogram vs Gaussian curve written to {out}")


if __name__ == "__main__":
    main()
