"""Print one SHA-256 of the reprs of gstf's verdicts over a fixed matrix,
so that two source trees can be compared for the same verdict bits.

The matrix: one expression of each shape the classify_sweep benchmark
draws, the four classes it asks, on 2^9 to 2^13 points, and the boundary
demo at five values of s.  A report's repr shows every digit, the sign of
a zero and the coordinates of its critical scales.  The script uses only
the public API, so it runs against any commit that has it.

usage: PYTHONPATH=<src dir> python .github/scripts/verdict_hash.py
"""

import hashlib
import math

import gstf

EXPRS = (  # one per classify_sweep family, in bench/truth.py's order
    "gaussian(1.751)",
    "hermite(4)",
    "poly(2) * gaussian(1.835)",
    "translate(gaussian(2.351), -1.547)",
    "modulate(gaussian(0.54), -1.7)",
    "gaussian(2.097) + translate(hermite(3), -1.021)",
    "subexp(1.0, 0.847)",
    "poly(1)",
    "translate(bump(), 1.3)",  # its transform's noisy rim at 2^13 points
)
CLASSES = ((0.5, math.inf, "roumieu"), (1.0, math.inf, "roumieu"),
           (1.0, math.inf, "beurling"), (math.inf, 0.5, "roumieu"))
DEMO_S = (0.2, 0.35, 0.5, 0.65, 0.8)


def main():
    digest, reports = hashlib.sha256(), 0
    for text in EXPRS:
        spec = gstf.parse_function_expr(text)
        for exponent in range(9, 14):  # half-widths 10 to 14, as the sweep's
            grid = gstf.build_grid(1.0 + exponent, exponent)
            f = gstf.catalog_eval(spec, grid)
            for idx in CLASSES:
                rep = gstf.classify_function(f, gstf.GSIndex(*idx))
                digest.update(repr(rep).encode())
                reports += 1
    for s in DEMO_S:
        digest.update(repr(gstf.boundary_triviality_demo(s)).encode())
        reports += 1
    print(f"{digest.hexdigest()} ({reports} reports)")


if __name__ == "__main__":
    main()
