"""Seeded input generation and the closed-form truth it is judged against.

Nothing here imports gstf: every expected verdict, exit code and
closed-form value comes from the mathematics, never from the library's
own output.  Generation uses only ``random.Random`` seeded by a string,
so one seed gives the same inputs on every machine and every run; numpy
serves the closed-form evaluators.
"""

from __future__ import annotations

import math
import random

import numpy as np

# The four one-parameter classes of the catalog-agreement suite, by name:
# (s, sigma, regularity) with None for the unconstrained side.
CLASSES = {
    "S_1/2": (0.5, None, "roumieu"),
    "S_1": (1.0, None, "roumieu"),
    "Sigma_1": (1.0, None, "beurling"),
    "S^1/2": (None, 0.5, "roumieu"),
}

MEMBER, NOT_MEMBER = "Member", "NotMember"

# Expression families the generators emit.  The Gaussian-Hermite family
# keeps its mass inside the grid on both sides (see _gauss_width).
GH_FAMILIES = ("gaussian", "hermite", "poly_gaussian", "translate_gaussian",
               "modulate_gaussian", "gh_sum")
FAMILIES = GH_FAMILIES + ("subexp", "poly", "translate_bump")

# Closed-form membership.  Gaussian-Hermite functions lie in every class;
# exp(-r|x|) has a transform ~ 1/xi^2 and x^k does not decay, so neither
# lies in any; a smooth compactly supported bump has a transform decaying
# like exp(-c|xi|^(1/2)), which is rapid but slower than any Gaussian.
TRUTH = {fam: dict.fromkeys(CLASSES, MEMBER) for fam in GH_FAMILIES}
TRUTH["subexp"] = dict.fromkeys(CLASSES, NOT_MEMBER)
TRUTH["poly"] = dict.fromkeys(CLASSES, NOT_MEMBER)
TRUTH["translate_bump"] = {"S_1/2": MEMBER, "S_1": MEMBER,
                           "Sigma_1": MEMBER, "S^1/2": NOT_MEMBER}

# Identity gates, copied verbatim from the verify suites.
GATES = {
    "moyal_defect": 1e-6,
    "stft_inversion_defect": 1e-5,
    "twisted_convolution_defect": 1e-4,
    "product_transform_defect": 1e-4,
    "unit_symbol_reproduction": 1e-5,
    "adjoint_symmetry": 1e-6,
    "positivity_defect": 1e-10,
}
# dft/idft round trip and closed-form transform gates, from the unit tests.
ROUND_TRIP_GATE = 1e-12
CLOSED_FORM_GATE = 1e-12

# Windows of the identity and operator suites; phase_space reuses them so
# that every STFT repeats a (grid, TF grid, window) triple already seen.
WINDOWS = ("gaussian(1.0)", "gaussian(2.0)", "gaussian(0.5)")
# Pool of the product-transform check in the identity suite.
PRODUCT_POOL = ("gaussian(1.0)", "gaussian(2.0)", "gaussian(0.5)",
                "hermite(1)", "hermite(2)", "hermite(3)",
                "translate(gaussian(1.0), 1.0)",
                "modulate(gaussian(1.0), 1.0)")

# Below this relative size a sample counts as outside the function's mass.
_EDGE_NATS = 37.0  # exp(-37) ~ 1e-16


def trivial_class(s: float, sigma: float, regularity: str) -> bool:
    """A two-parameter class is {0} iff s + sigma <= 1 (Beurling), < 1 (Roumieu)."""
    return s + sigma <= 1.0 if regularity == "beurling" else s + sigma < 1.0


def class_flags(name: str) -> list:
    """CLI flags naming one of CLASSES."""
    s, sigma, reg = CLASSES[name]
    flags = ["--type", reg]
    if s is not None:
        flags += ["--s", repr(s)]
    if sigma is not None:
        flags += ["--sigma", repr(sigma)]
    return flags


# ------------------------------------------------------------ expressions
#
# A node is a tuple: ("gaussian", a), ("hermite", k), ("poly", k),
# ("polygauss", k, a), ("translate", node, x0), ("modulate", node, xi0),
# ("sum", node, node), ("subexp", s, r), ("bump",).

def expr(node) -> str:
    kind = node[0]
    if kind == "gaussian":
        return f"gaussian({node[1]!r})"
    if kind in ("hermite", "poly"):
        return f"{kind}({node[1]})"
    if kind == "polygauss":
        return f"poly({node[1]}) * gaussian({node[2]!r})"
    if kind in ("translate", "modulate"):
        return f"{kind}({expr(node[1])}, {node[2]!r})"
    if kind == "sum":
        return f"{expr(node[1])} + {expr(node[2])}"
    if kind == "subexp":
        return f"subexp({node[1]!r}, {node[2]!r})"
    return "bump()"


def _hermite_poly(k, x):
    h_prev, h = 1.0 + 0.0 * x, 2.0 * x
    if k == 0:
        return h_prev
    for m in range(1, k):
        h, h_prev = 2.0 * x * h - 2.0 * m * h_prev, h
    return h


def values(node, x):
    """Closed-form samples of a Gaussian-Hermite node at the array x."""
    kind = node[0]
    if kind == "gaussian":
        return np.exp(-0.5 * node[1] * x * x) + 0j
    if kind == "hermite":
        return _hermite_poly(node[1], x) * np.exp(-0.5 * x * x) + 0j
    if kind == "translate":
        return values(node[1], x - node[2])
    if kind == "modulate":
        return np.exp(1j * node[2] * x) * values(node[1], x)
    if kind == "sum":
        return values(node[1], x) + values(node[2], x)
    raise ValueError(f"no closed form for {kind}")


def transform(node, xi):
    """Closed-form unitary Fourier transform (kernel exp(-i x xi)/sqrt(2 pi))."""
    kind = node[0]
    if kind == "gaussian":
        return np.exp(-0.5 * xi * xi / node[1]) / math.sqrt(node[1]) + 0j
    if kind == "hermite":  # Hermite functions: eigenvalue (-i)^k
        return (-1j) ** node[1] * _hermite_poly(node[1], xi) * np.exp(-0.5 * xi * xi)
    if kind == "translate":
        return np.exp(-1j * node[2] * xi) * transform(node[1], xi)
    if kind == "modulate":
        return transform(node[1], xi - node[2])
    if kind == "sum":
        return transform(node[1], xi) + transform(node[2], xi)
    raise ValueError(f"no closed form for {kind}")


def _r(v: float) -> float:
    return round(v, 3)


def _gauss_width(rng, half_width, degree, lo=0.5, hi=2.5):
    """Width a with exp(-a L^2 / 2) (2L+2)^degree below exp(-37): the
    function's mass stays inside the grid."""
    a_min = 2.0 * (_EDGE_NATS + degree * math.log(2 * half_width + 2)) / half_width**2
    return _r(rng.uniform(max(lo, a_min), max(hi, 1.2 * a_min)))


def _max_shift(half_width, degree, a=1.0):
    """Largest |x0| keeping a width-a Gaussian of poly degree inside the grid."""
    need = math.sqrt(2.0 * (_EDGE_NATS + degree * math.log(2 * half_width + 2)) / a)
    return max(0.0, half_width - need)


def gh_node(rng, family, half_width):
    """A Gaussian-Hermite node of the family whose mass stays in the grid."""
    if family == "gaussian":
        return ("gaussian", _gauss_width(rng, half_width, 0))
    if family == "hermite":
        return ("hermite", rng.randint(0, 4))
    if family == "poly_gaussian":
        k = rng.randint(1, 4)
        return ("polygauss", k, _gauss_width(rng, half_width, k))
    if family == "translate_gaussian":
        a = _gauss_width(rng, half_width, 0, lo=1.0)
        x0 = _r(rng.uniform(-1, 1) * min(2.0, _max_shift(half_width, 0, a)))
        return ("translate", ("gaussian", a), x0)
    if family == "modulate_gaussian":
        return ("modulate", ("gaussian", _gauss_width(rng, half_width, 0)),
                _r(rng.uniform(-3.0, 3.0)))
    if family == "gh_sum":
        k = rng.randint(0, 3)
        x0 = _r(rng.uniform(-1, 1) * min(1.5, _max_shift(half_width, k)))
        return ("sum", ("gaussian", _gauss_width(rng, half_width, 0)),
                ("translate", ("hermite", k), x0))
    raise ValueError(family)


def family_node(rng, family, half_width):
    if family in GH_FAMILIES:
        return gh_node(rng, family, half_width)
    if family == "subexp":
        return ("subexp", 1.0, _r(rng.uniform(0.5, 3.0)))
    if family == "poly":
        return ("poly", rng.randint(0, 4))
    if family == "translate_bump":
        return ("translate", ("bump",), _r(rng.uniform(-3.0, 3.0)))
    raise ValueError(family)


# --------------------------------------------------------------- workloads

# Families, grid sizes and the witness/demo calls of classify_sweep_items
# all repeat every CLASSIFY_CYCLE items.
CLASSIFY_CYCLE = 225


def classify_sweep_items(seed: int, count: int) -> list:
    """Expression items, each on its own grid (2^9..2^13 points, half-width
    10..14).  Families (9) and grid sizes (5) cycle with coprime periods,
    so every run sees the same mix; every 25th item adds a witness or
    boundary-demo call.  The order is shuffled within each CLASSIFY_CYCLE
    items, so every whole cycle holds the full mix."""
    rng = random.Random(f"classify_sweep:{seed}")
    items = []
    for i in range(count):
        family = FAMILIES[i % len(FAMILIES)]
        half_width = _r(rng.uniform(10.0, 14.0))
        item = {"family": family, "exponent": 9 + i % 5,
                "half_width": half_width,
                "expr": expr(family_node(rng, family, half_width))}
        if i % 25 == 12:
            # dyadic indices, so s + sigma = 1 is hit exactly
            s, sigma = rng.randint(1, 12) / 8, rng.randint(1, 12) / 8
            item["witness"] = (s, sigma, rng.choice(("roumieu", "beurling")))
        elif i % 25 == 24:
            item["demo_s"] = _r(rng.uniform(0.2, 0.8))
        items.append(item)
    blocks = [items[i:i + CLASSIFY_CYCLE] for i in range(0, count, CLASSIFY_CYCLE)]
    for block in blocks:
        rng.shuffle(block)
    return [item for block in blocks for item in block]


# Families of the shared-STFT classification job, cycled pass by pass.
PHASE_CLASSIFY_FAMILIES = GH_FAMILIES + ("translate_bump",)


def _phase_node(rng, family, order=None):
    """A function whose STFT with any of WINDOWS decays below 1e-10 inside
    the 129^2 TF grid (|x| <= 12, |xi| <= 16), as the identities require.
    ``order`` fixes the Hermite order or polynomial degree (stratified)."""
    a = _r(rng.uniform(1.0, 2.0))
    k = rng.randint(0, 2) if order is None else order % 3
    if family == "translate_gaussian":
        return ("translate", ("gaussian", a), _r(rng.uniform(-1.0, 1.0)))
    if family == "modulate_gaussian":
        return ("modulate", ("gaussian", a), _r(rng.uniform(-2.0, 2.0)))
    if family == "hermite":
        return ("hermite", k)
    if family == "gh_sum":
        return ("sum", ("gaussian", a), ("translate", ("hermite", k),
                                         _r(rng.uniform(-1.0, 1.0))))
    if family == "poly_gaussian":
        return ("polygauss", k + 1, a)
    if family == "translate_bump":
        return ("translate", ("bump",), _r(rng.uniform(-3.0, 3.0)))
    return ("gaussian", a)


def phase_space_passes(seed: int, count: int) -> list:
    """Each pass holds one job of every kind, and three product-transform
    jobs, as the identity suite runs many quadruples.  Windows cycle
    through WINDOWS pass by pass; functions are fresh in every pass."""
    rng = random.Random(f"phase_space:{seed}")
    gh_mix = ("gaussian", "hermite", "translate_gaussian",
              "modulate_gaussian", "gh_sum")
    passes = []
    for p in range(count):
        def f():
            return expr(_phase_node(rng, rng.choice(gh_mix)))

        def win(k):
            return WINDOWS[(p + k) % len(WINDOWS)]

        cycle, slot = divmod(p, len(PHASE_CLASSIFY_FAMILIES))
        family = PHASE_CLASSIFY_FAMILIES[slot]
        passes.append([
            {"job": "inversion_1024", "f": f(), "window": win(0)},
            {"job": "moyal", "f": f(), "window": win(1)},
            # the identity suite's windows: V_phi1 f must decay inside the grid
            {"job": "twisted_convolution", "f": f(), "windows": WINDOWS},
            *({"job": "product_transform",
               "quad": tuple(rng.choice(PRODUCT_POOL) for _ in range(4))}
              for _ in range(3)),
            {"job": "toeplitz_unit", "f": f(), "window": win(2)},
            {"job": "toeplitz_gaussian", "f": f(), "window": win(0)},
            {"job": "toeplitz_random", "f": f(), "g": f(), "window": win(1),
             "symbol_seed": rng.randrange(2**31)},
            {"job": "inversion_2048", "f": f(), "window": win(p // 3)},
            {"job": "classify_2048", "family": family,
             "f": expr(_phase_node(rng, family, cycle)), "window": WINDOWS[0]},
        ])
    return passes


CLI_CLOSED_FORM = ("gaussian", "hermite", "translate_gaussian",
                   "modulate_gaussian", "gh_sum")


# (kind, family, expression, class, extra flags): two examples gstf 0.1.0
# misclassifies in S_1/2 (truth Member and NotMember), and the README's own.
CLI_VERDICTS = (
    ("classify_member", "poly_gaussian", "poly(3) * gaussian(1.032)", "S_1/2",
     ["--points", "1024", "--half-width", "12"]),
    ("classify_other", "subexp", "subexp(1.0, 1.039)", "S_1/2",
     ["--points", "1024", "--half-width", "12"]),
    ("classify_member", "gaussian", "gaussian(1)", "S_1/2",
     ["--points", "1024", "--n-max", "4"]),
    ("classify_window", "translate_bump", "bump()", "Sigma_1",
     ["--window", "gaussian(1)", "--n-max", "4"]),
    ("classify_window_16384", "gaussian", "gaussian(1)", "S_1/2",
     ["--window", "gaussian(1)", "--points", "16384"]),
)


def cli_cold_passes(seed: int, count: int) -> list:
    """Each pass holds one command of every kind, in a seeded order.  An
    entry is {"kind", "argv", "exit", ...check data}."""
    rng = random.Random(f"cli_cold:{seed}")
    passes = []
    for _ in range(count):
        def grid(points):
            hw = _r(rng.uniform(10.0, 14.0))
            return hw, ["--points", str(points), "--half-width", repr(hw)]

        def gh(points):
            hw, flags = grid(points)
            return gh_node(rng, rng.choice(CLI_CLOSED_FORM), hw), flags

        cmds = []
        node, flags = gh(rng.choice((512, 1024, 2048, 4096)))
        cmds.append({"kind": "transform", "node": node, "exit": 0,
                     "argv": ["transform", "--expr", expr(node)] + flags})
        a = _r(rng.uniform(0.5, 2.5))
        _, flags = grid(rng.choice((1024, 2048)))
        cmds.append({"kind": "stft", "a": a, "exit": 0,
                     "argv": ["stft", "--expr", f"gaussian({a!r})"] + flags})
        # Gaussian witness region: both indices at least 1/2 (above for Beurling)
        s, sigma = rng.randint(5, 12) / 8, rng.randint(5, 12) / 8
        _, flags = grid(rng.choice((512, 1024, 2048)))
        cmds.append({"kind": "witness", "exit": 0, "argv": [
            "witness", "--s", repr(s), "--sigma", repr(sigma),
            "--type", rng.choice(("roumieu", "beurling"))] + flags})
        s = rng.randint(1, 6) / 8
        cmds.append({"kind": "witness_trivial", "exit": 2, "argv": [
            "witness", "--s", repr(s), "--sigma", repr(1.0 - s),
            "--type", "beurling"]})
        for symbol in ("unit", "gaussian"):
            node, flags = gh(1024)
            cmds.append({"kind": f"toeplitz_{symbol}", "node": node, "exit": 0,
                         "argv": ["toeplitz", "--expr", expr(node),
                                  "--symbol", symbol] + flags})
        # Verdict commands replay fixed documented examples, so that a run's
        # handful of CLI verdicts does not swing with the seed; the seeded
        # verdict sweep is classify_sweep's job.
        for kind, family, text, cls, extra in CLI_VERDICTS:
            cmds.append({"kind": kind, "family": family, "class": cls, "exit": 0,
                         "argv": ["classify", "--expr", text]
                         + class_flags(cls) + extra})
        cls = rng.choice(tuple(CLASSES))
        _, flags = grid(rng.choice((1024, 2048)))
        cmds.append({"kind": "classify_assert_nonmember", "family": "poly",
                     "class": cls, "exit": 1, "argv": [
                         "classify", "--expr", f"poly({rng.randint(0, 4)})",
                         "--assert-member"] + class_flags(cls) + flags})
        for suite in ("identities", "classification", "toeplitz"):
            cmds.append({"kind": f"verify_{suite}", "exit": 0,
                         "argv": ["verify", "--suite", suite]})
        rng.shuffle(cmds)
        passes.append(cmds)
    return passes


def self_check() -> list:
    """Problems with the generators or the truth table; empty when sound."""
    problems = []
    for fam, row in TRUTH.items():
        if fam not in FAMILIES:
            problems.append(f"truth row {fam!r} names no generated family")
        for cls in row:
            if cls not in CLASSES:
                problems.append(f"truth entry {fam}/{cls} names no class")
    for fam in FAMILIES:
        if set(TRUTH.get(fam, ())) != set(CLASSES):
            problems.append(f"family {fam!r} lacks a truth entry per class")
    for gen, n in ((classify_sweep_items, 400), (phase_space_passes, 6),
                   (cli_cold_passes, 2)):
        for seed in (0, 1, 12345):
            if gen(seed, n) != gen(seed, n):
                problems.append(f"{gen.__name__}: seed {seed} is not reproducible")
        if gen(1, n) == gen(2, n):
            problems.append(f"{gen.__name__}: seeds 1 and 2 give equal inputs")
    for p in cli_cold_passes(0, 2):
        for c in p:
            if not all(isinstance(a, str) for a in c["argv"]):
                problems.append(f"argv of {c['kind']} holds a non-string")
    emitted = {it["family"] for it in classify_sweep_items(0, 400)}
    emitted |= {job["family"] for p in phase_space_passes(0, 14) for job in p
                if "family" in job}
    emitted |= {c["family"] for p in cli_cold_passes(0, 40) for c in p
                if "family" in c}
    for fam in sorted(set(TRUTH) - emitted):
        problems.append(f"truth row {fam!r} is never emitted")
    return problems
