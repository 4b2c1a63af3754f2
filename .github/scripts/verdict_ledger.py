"""Print the verdict ledger: how often classify_function is right, wrong
or undecided against the closed-form truth of bench/truth.py.

The items are classify_sweep's at seeds 1-3, one cycle of
truth.CLASSIFY_CYCLE items each, every one asked the four truth.CLASSES
with the default options.  For each (family, class) cell the Markdown
table gives the right answers, the wrong Members, the wrong NotMembers
and the Inconclusive ones; then the totals and the decided share.
bench/truth.py imports no gstf, so it is read as it is; the script uses
only the public API, so it runs against any commit that has it.
tests/test_verdict_ledger.py pins the table.

usage: PYTHONPATH=<src dir> python .github/scripts/verdict_ledger.py
"""

import math
import pathlib
import runpy
from types import SimpleNamespace

import gstf

TRUTH = pathlib.Path(__file__).resolve().parents[2] / "bench" / "truth.py"
SEEDS = (1, 2, 3)
COLUMNS = ("right", "wrong Member", "wrong NotMember", "Inconclusive")
WRONG = {"Member": 1, "NotMember": 2, "Inconclusive": 3}  # columns


def ledger() -> dict:
    """{(family, class): [right, wrong Member, wrong NotMember,
    Inconclusive]}, in truth.FAMILIES and then truth.CLASSES order."""
    truth = SimpleNamespace(**runpy.run_path(str(TRUTH)))
    classes = {name: gstf.GSIndex(math.inf if s is None else s,
                                  math.inf if sigma is None else sigma, reg)
               for name, (s, sigma, reg) in truth.CLASSES.items()}
    table = {(family, name): [0, 0, 0, 0]
             for family in truth.FAMILIES for name in classes}
    for seed in SEEDS:
        for item in truth.classify_sweep_items(seed, truth.CLASSIFY_CYCLE):
            grid = gstf.build_grid(item["half_width"], item["exponent"])
            spec = gstf.parse_function_expr(item["expr"])
            f = gstf.catalog_eval(spec, grid)
            for name, idx in classes.items():
                got = gstf.classify_function(f, idx).verdict
                right = got == truth.TRUTH[item["family"]][name]
                table[item["family"], name][0 if right else WRONG[got]] += 1
    return table


def main():
    table = ledger()
    print("| family | class | " + " | ".join(COLUMNS) + " |")
    print("|---|---|" + "---:|" * len(COLUMNS))
    for (family, name), counts in table.items():
        print(f"| {family} | {name} | " + " | ".join(map(str, counts)) + " |")
    totals = [sum(col) for col in zip(*table.values())]
    print("| total | | " + " | ".join(map(str, totals)) + " |")
    decided = sum(totals) - totals[3]
    print(f"\ndecided share: {decided} of {sum(totals)} "
          f"({decided / sum(totals):.4f})")


if __name__ == "__main__":
    main()
