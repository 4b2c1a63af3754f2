"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to see the per-criterion
lines.  The identity, classification and operator checks (criteria 1, 3,
4, 7) run from the registry in ``gstf.checks``; its tolerances are pinned
here by ``test_registry_tolerances_pinned``.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from gstf import (MEMBER, GSIndex, Gaussian, TrivialSpace,
                  boundary_triviality_demo, catalog_eval, checks,
                  classify_function, default_witness_grid, dft, make_witness,
                  parse_function_expr, stft)
from gstf.errors import GstfError, UnsupportedRegion
from gstf.transforms import _hermitian

from test_parse import INVALID as PARSE_INVALID
from test_parse import VALID as PARSE_VALID
from test_witnesses import WITNESS_CASES, witness_check_options


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {n}: {status} — {detail}")
    assert ok, detail


def test_registry_tolerances_pinned():
    assert checks.TOLERANCES == {
        "moyal_defect": 1e-6,
        "stft_inversion_defect": 1e-5,
        "twisted_convolution_defect": 1e-4,
        "product_transform_defect": 1e-4,
        "product_transform_sign_consistent": 0.5,
        "rate_recovery_gaussian": 1e-9,
        "rate_recovery_subexp": 1e-9,
        "catalog_agreement_mismatches": 0.5,
        "unit_symbol_reproduction": 1e-5,
        "adjoint_symmetry": 1e-6,
        "positivity_defect": 1e-10,
        "continuity_probe_nonmember_outputs": 0.5,
    }


def suite_values(suite, names):
    """{check: value} of one registry suite, which must hold exactly
    ``names``; fails if any check exceeds its tolerance."""
    results = checks.run_suite(suite)
    assert [n for n, _, _ in results] == names
    return {n: v for n, v, _ in results}, all(v <= t for _, v, t in results)


@pytest.fixture(scope="module")
def classification_suite():
    return suite_values("classification", [
        "rate_recovery_gaussian", "rate_recovery_subexp",
        "catalog_agreement_mismatches"])


@pytest.fixture(scope="module")
def identity_suite():
    """The identities suite's values, its pass flag and its run time."""
    t0 = time.perf_counter()
    v, ok = suite_values("identities", [
        "moyal_defect", "stft_inversion_defect", "twisted_convolution_defect",
        "product_transform_defect", "product_transform_sign_consistent"])
    return v, ok, time.perf_counter() - t0


@pytest.fixture(scope="module")
def toeplitz_suite():
    return suite_values("toeplitz", [
        "unit_symbol_reproduction", "adjoint_symmetry", "positivity_defect",
        "continuity_probe_nonmember_outputs"])


def test_criterion_1_identity_suite(identity_suite):
    v, ok, elapsed = identity_suite
    report(1, ok and elapsed < 60.0,
           f"moyal={v['moyal_defect']:.2e} "
           f"inversion={v['stft_inversion_defect']:.2e} "
           f"twisted={v['twisted_convolution_defect']:.2e} "
           f"product={v['product_transform_defect']:.2e} "
           f"signs_consistent={v['product_transform_sign_consistent'] == 0} "
           f"elapsed={elapsed:.1f}s")


def test_identity_defects_at_present_magnitudes(identity_suite,
                                                toeplitz_suite):
    # The defects sit at rounding level, far under their gates; a faster
    # STFT engine must keep them there, not merely under the gates.
    ident, _, _ = identity_suite
    oper, _ = toeplitz_suite
    for name in ("moyal_defect", "stft_inversion_defect",
                 "twisted_convolution_defect", "product_transform_defect"):
        assert ident[name] <= 1e-14, (name, ident[name])
    for name in ("unit_symbol_reproduction", "adjoint_symmetry"):
        assert oper[name] <= 1e-14, (name, oper[name])


def test_criterion_2_closed_form_stft(grid10, tf_small):
    f = catalog_eval(Gaussian(1.0), grid10)
    v = stft(f, f, tf_small)
    x = tf_small.xgrid.coords[:, None]
    xi = tf_small.xigrid.coords[None, :]
    ref = 2**-0.5 * np.exp(-(x**2 + xi**2) / 4.0)
    dev = float(np.max(np.abs(np.abs(v.values) - ref)))
    report(2, dev <= 1e-6, f"gaussian/gaussian magnitude deviation={dev:.2e}")


def test_criterion_3_rate_recovery(classification_suite):
    v, _ = classification_suite
    dg, ds = v["rate_recovery_gaussian"], v["rate_recovery_subexp"]
    report(3, dg <= 1e-9 and ds <= 1e-9,
           f"gaussian |r-0.5|={dg!r}, subexp |r-2.0|={ds!r}")


def test_criterion_4_direct_vs_stft_verdicts(classification_suite):
    assert len(checks.CATALOG_SPECS) == 12 and len(checks.CATALOG_SPACES) == 4
    v, _ = classification_suite
    mismatches = int(v["catalog_agreement_mismatches"])
    report(4, mismatches == 0, f"{48 - mismatches}/48 verdict pairs agree")


def test_criterion_5_fourier_exchange(grid11, classify_opts):
    pairs = 0
    mismatches = []
    for spec in checks.CATALOG_SPECS:
        f = catalog_eval(spec, grid11)
        fhat = dft(f)
        for s in (0.5, 1.0, 2.0):
            a = classify_function(f, GSIndex(s, math.inf, "roumieu"),
                                  classify_opts).verdict
            b = classify_function(fhat, GSIndex(math.inf, s, "roumieu"),
                                  classify_opts).verdict
            pairs += 1
            if a != b:
                mismatches.append((str(spec), s, a, b))
    report(5, pairs == 36 and not mismatches,
           f"{pairs - len(mismatches)}/{pairs} exchange pairs agree"
           + (f"; mismatches={mismatches}" if mismatches else ""))


def test_criterion_6_triviality_boundary():
    # (a) TrivialSpace exactly on the Beurling region s + sigma <= 1 and
    #     the open Roumieu region s + sigma < 1.
    grid = default_witness_grid()
    values = (0.2, 0.4, 0.5, 0.6, 0.8, 1.0, 1.5)
    map_ok = True
    for reg in ("beurling", "roumieu"):
        for s in values:
            for sigma in values:
                trivial_expected = (s + sigma <= 1.0 if reg == "beurling"
                                    else s + sigma < 1.0)
                try:
                    make_witness(GSIndex(s, sigma, reg), grid)
                    got_trivial = False
                except TrivialSpace:
                    got_trivial = True
                except UnsupportedRegion:
                    got_trivial = False  # nontrivial, just no formula
                if got_trivial != trivial_expected:
                    map_ok = False

    # (b) zero passing candidates on the boundary line.
    demos_ok = all(boundary_triviality_demo(s).all_failed
                   for s in (0.25, 0.5, 0.99))

    # (c) every returned witness passes its own classification.
    witness_ok = True
    for idx in WITNESS_CASES:
        w = make_witness(idx, grid)
        opts = witness_check_options(idx.regularity)
        for side in (GSIndex(idx.s, math.inf, idx.regularity),
                     GSIndex(math.inf, idx.sigma, idx.regularity)):
            if classify_function(w, side, opts).verdict != MEMBER:
                witness_ok = False

    report(6, map_ok and demos_ok and witness_ok,
           f"region map ok={map_ok}, boundary demos all-failed={demos_ok}, "
           f"witnesses self-verify={witness_ok}")


def test_criterion_7_toeplitz(toeplitz_suite):
    v, ok = toeplitz_suite
    report(7, ok, f"reproduction={v['unit_symbol_reproduction']:.2e} "
                  f"adjoint={v['adjoint_symmetry']:.2e} "
                  f"positivity_min={-v['positivity_defect']:.2e} "
                  f"probe_all_member="
                  f"{v['continuity_probe_nonmember_outputs'] == 0}")


def test_product_quadruples_are_the_seeded_draws():
    # the identities report's bytes were made with these draws before the
    # suite wrote them out
    rng = np.random.default_rng(20240817)
    draws = tuple(tuple(int(i) for i in rng.integers(0, 8, 4))
                  for _ in range(12))
    assert checks._PRODUCT_QUADRUPLES == draws


def test_adjoint_check_symbol_keeps_the_checks_reach(toeplitz_suite):
    _, tf, _ = checks._phase_space()
    a = checks._hash_symbol(tf).values
    # SplitMix64 seeded at 0 starts 0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4
    assert a[0, 0] == complex((0xe220a8397b1dcdaf >> 11) * 2.0**-52 - 1,
                              (0x6e789e6aa1b965f4 >> 11) * 2.0**-52 - 1)
    # not Hermitian in xi, so adjoint_stft runs its one-row path
    assert not _hermitian(a, tf.xigrid)
    for mirror in (a[::-1], a[:, ::-1]):  # no mirror symmetry in x or xi
        assert not np.array_equal(a, mirror)
        assert not np.array_equal(a, mirror.conj())
    assert toeplitz_suite[0]["adjoint_symmetry"] <= 1e-15


def test_criterion_8_inequality_fuzzing():
    rng = np.random.default_rng(123)
    n = 1_000_000

    xi = rng.uniform(-1e4, 1e4, n)
    eta = rng.uniform(-1e4, 1e4, n)
    N = rng.integers(0, 65, n).astype(float)
    log_lhs = -N * np.log1p((xi - eta) ** 2)
    log_rhs = N * (np.log(2.0) - np.log1p(xi**2) + np.log1p(eta**2))
    peetre_violations = int(np.count_nonzero(log_lhs > log_rhs))

    x = rng.uniform(-1e3, 1e3, n)
    y = rng.uniform(-1e3, 1e3, n)
    s = rng.uniform(0.25, 4.0, n)
    p = 1.0 / s
    C = 2.0 ** np.maximum(p - 1.0, 0.0) + 1.0
    outer = np.abs(x) ** p + np.abs(y) ** p
    middle = np.abs(y) ** p + np.abs(y - x) ** p
    eps = 1e-12 * np.maximum(np.maximum(outer, middle), 1.0)
    triangle_violations = int(
        np.count_nonzero(outer / C > middle + eps)
        + np.count_nonzero(middle > C * outer + eps))

    ok = peetre_violations == 0 and triangle_violations == 0
    report(8, ok, f"peetre violations={peetre_violations}/1e6, "
                  f"triangle violations={triangle_violations}/1e6")


def test_criterion_9_cli_and_parser(tmp_path):
    args = [sys.executable, "-m", "gstf.cli", "classify", "--expr",
            "gaussian(1)", "--space", "S", "--s", "0.5", "--points", "1024",
            "--n-max", "4"]
    import os
    blobs = []
    for threads in ("1", "4"):
        env = dict(os.environ, OMP_NUM_THREADS=threads)
        out = subprocess.run(args, capture_output=True, env=env)
        blobs.append(out.stdout)
    golden_ok = blobs[0] == blobs[1] and len(blobs[0]) > 0

    valid_ok = sum(parse_function_expr(t) == ast for t, ast in PARSE_VALID)
    invalid_ok = 0
    for text, err, offset in PARSE_INVALID:
        try:
            parse_function_expr(text)
        except err as e:
            if e.offset == offset:
                invalid_ok += 1
        except GstfError:
            pass
    ok = (golden_ok and valid_ok == len(PARSE_VALID) >= 30
          and invalid_ok == len(PARSE_INVALID) >= 15)
    report(9, ok, f"golden byte-identical={golden_ok}, "
                  f"parser valid {valid_ok}/{len(PARSE_VALID)}, "
                  f"invalid {invalid_ok}/{len(PARSE_INVALID)}")
