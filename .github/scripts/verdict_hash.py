"""Print one SHA-256 of the reprs of gstf's verdicts over a fixed matrix,
so that two source trees can be compared for the same verdict bits.

The matrix: classify_function on one expression of each shape the
classify_sweep benchmark draws, in the four classes it asks, on 2^9 to
2^13 points; the boundary demo at five values of s; and classify_stft and
dual_growth_report on the catalog whose direct and STFT verdicts `gstf
verify` compares, at 2048 points on +-12 onto 513x1001 with the window
gaussian(1).  A report's repr shows every digit, the sign of a zero and
the coordinates of its critical scales.  The script uses only the public
API, so it runs against any commit that has it.

usage: PYTHONPATH=<src dir> python .github/scripts/verdict_hash.py
"""

import hashlib
import math

import gstf
import gstf.checks

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


def reports():
    for text in EXPRS:
        spec = gstf.parse_function_expr(text)
        for exponent in range(9, 14):  # half-widths 10 to 14, as the sweep's
            grid = gstf.build_grid(1.0 + exponent, exponent)
            f = gstf.catalog_eval(spec, grid)
            for idx in CLASSES:
                yield gstf.classify_function(f, gstf.GSIndex(*idx))
    yield from map(gstf.boundary_triviality_demo, DEMO_S)
    grid = gstf.build_grid(12.0, 11)
    tfgrid = gstf.TFGrid(gstf.Grid1D(0.0, 4 * grid.step, 513),
                         gstf.Grid1D(0.0, 0.5, 1001))
    window = gstf.catalog_eval(gstf.parse_function_expr("gaussian(1)"), grid)
    opts = gstf.ClassifyOptions(n_max=4, r_scale=0.5)
    for spec in gstf.checks.CATALOG_SPECS:
        f = gstf.catalog_eval(spec, grid)  # its eight verdicts share one pass
        for idx in gstf.checks.CATALOG_SPACES:
            for verdict in (gstf.classify_stft, gstf.dual_growth_report):
                yield verdict(f, window, idx, tfgrid, opts, check_window=False)


def main():
    reprs = [repr(rep).encode() for rep in reports()]
    digest = hashlib.sha256(b"".join(reprs)).hexdigest()
    print(f"{digest} ({len(reprs)} reports)")


if __name__ == "__main__":
    main()
