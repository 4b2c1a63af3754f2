"""The verdict ledger, pinned: every (family, class) cell's counts of
right answers, wrong Members, wrong NotMembers and Inconclusive ones,
on classify_sweep's items at seeds 1-3 against bench/truth.py.

Each cell is pinned both ways, so that a change which turns answers into
Inconclusive shows here as plainly as one that fixes or breaks them.  A
change that moves a verdict updates this table in the same change and
names each moved cell as fixed, broken or abstained."""

import pathlib
import runpy

SCRIPT = (pathlib.Path(__file__).resolve().parents[1] / ".github" / "scripts"
          / "verdict_ledger.py")

# (right, wrong Member, wrong NotMember, Inconclusive) per cell, each of
# the 75 items of a family asked each class
LEDGER = {
    "gaussian": {"S_1/2": (75, 0, 0, 0), "S_1": (75, 0, 0, 0),
                 "Sigma_1": (75, 0, 0, 0), "S^1/2": (56, 0, 0, 19)},
    "hermite": {"S_1/2": (75, 0, 0, 0), "S_1": (75, 0, 0, 0),
                "Sigma_1": (75, 0, 0, 0), "S^1/2": (75, 0, 0, 0)},
    "poly_gaussian": {"S_1/2": (75, 0, 0, 0), "S_1": (75, 0, 0, 0),
                      "Sigma_1": (75, 0, 0, 0), "S^1/2": (58, 0, 0, 17)},
    "translate_gaussian": {"S_1/2": (75, 0, 0, 0), "S_1": (75, 0, 0, 0),
                           "Sigma_1": (75, 0, 0, 0),
                           "S^1/2": (45, 0, 0, 30)},
    "modulate_gaussian": {"S_1/2": (75, 0, 0, 0), "S_1": (75, 0, 0, 0),
                          "Sigma_1": (75, 0, 0, 0),
                          "S^1/2": (45, 0, 0, 30)},
    "gh_sum": {"S_1/2": (75, 0, 0, 0), "S_1": (75, 0, 0, 0),
               "Sigma_1": (75, 0, 0, 0), "S^1/2": (63, 0, 0, 12)},
    # the slow tail at S_1/2 and the aliased kink at S_1 (ROADMAP item 2)
    "subexp": {"S_1/2": (68, 7, 0, 0), "S_1": (9, 66, 0, 0),
               "Sigma_1": (75, 0, 0, 0), "S^1/2": (75, 0, 0, 0)},
    "poly": {"S_1/2": (75, 0, 0, 0), "S_1": (75, 0, 0, 0),
             "Sigma_1": (75, 0, 0, 0), "S^1/2": (75, 0, 0, 0)},
    # the transform's noisy rim
    "translate_bump": {"S_1/2": (30, 0, 31, 14), "S_1": (30, 0, 31, 14),
                       "Sigma_1": (30, 0, 31, 14),
                       "S^1/2": (60, 0, 0, 15)},
}


def test_ledger_is_pinned():
    table = runpy.run_path(str(SCRIPT))["ledger"]()
    got = {family: {name: tuple(counts) for (f, name), counts in table.items()
                    if f == family}
           for family in dict.fromkeys(f for f, _ in table)}
    assert got == LEDGER
    totals = tuple(map(sum, zip(*table.values())))
    assert totals == (2369, 73, 93, 165)
