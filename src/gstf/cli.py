"""Command-line front door.

Subcommands: transform, stft, classify, witness, toeplitz, verify.
Reports are JSON (fixed field order, floats at 17 significant digits, so
identical invocations give byte-identical files) or CSV.  Exit codes:
0 success, 1 failed assertion (--assert-member, or a failed verify
suite), 2 errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

import numpy as np

from .catalog import catalog_eval
from .checks import SUITES, run_suite
from .classify import (ClassifyOptions, GSIndex, MEMBER, classify_function,
                       classify_stft)
from .errors import GridError, GstfError
from .grids import Grid1D, SampledFunction, TFGrid, TFR, build_grid
from .parse import parse_function_expr
from .toeplitz import apply_toeplitz
from .transforms import dft, stft
from .witnesses import make_witness

__all__ = ["main", "run_command"]

SCHEMA_VERSION = 1


# ---------------------------------------------------------------- reports

def _jfloat(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def _jdump(obj) -> str:
    """Deterministic JSON: insertion order kept, floats at 17 sig digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _jfloat(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        items = ", ".join(f"{_jdump(str(k))}: {_jdump(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_jdump(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(args, command: str, params: dict, body: dict,
            elapsed: float) -> dict:
    rep = {"schema_version": SCHEMA_VERSION, "command": command,
           "params": params}
    rep.update(body)
    rep["timings"] = {"elapsed_s": elapsed} if args.timings else None
    return rep


def _samples_report(args, command: str, params: dict, body: dict,
                    f: SampledFunction, elapsed: float) -> int:
    """f's samples as CSV, or a JSON report of ``body`` then the samples."""
    if args.format == "csv":
        _write(args, _csv_text(("x", "value-real", "value-imag"),
                               _samples_rows(f)))
    else:
        body["samples"] = _samples_rows(f)
        _write(args, _jdump(_report(args, command, params, body, elapsed))
               + "\n")
    return 0


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


# ----------------------------------------------------------------- inputs

def _load_csv_samples(path: str) -> SampledFunction:
    xs, vals = [], []
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as e:
        raise GridError(f"CSV input is unreadable: {e}") from None
    if rows and rows[0] and rows[0][0].strip().lower() == "x":
        rows = rows[1:]
    for row in rows:
        if not row:
            continue
        try:
            xs.append(float(row[0]))
            vals.append(complex(float(row[1]),
                                float(row[2]) if len(row) > 2 else 0.0))
        except (ValueError, IndexError):
            raise GridError(f"CSV row {row} is not numbers x, value-real"
                            "[, value-imag]") from None
    if len(xs) < 2:
        raise GridError("CSV input needs at least two samples")
    xs = np.asarray(xs)
    steps = np.diff(xs)
    step = steps[0]
    if step <= 0 or np.any(np.abs(steps - step) > 1e-9 * abs(step)):
        raise GridError("CSV input must have strictly increasing uniform x")
    grid = Grid1D(float((xs[0] + xs[-1]) / 2), float(step), len(xs))
    return SampledFunction(grid, np.asarray(vals))


def _input_function(args) -> tuple:
    """(SampledFunction, description) from --expr or --in."""
    if getattr(args, "infile", None):
        return _load_csv_samples(args.infile), f"csv:{args.infile}"
    if not args.expr:
        raise GstfError("provide --expr or --in")
    spec = parse_function_expr(args.expr)
    grid = _make_grid(args)
    return catalog_eval(spec, grid), str(spec)


def _make_grid(args) -> Grid1D:
    n = args.points
    if n & (n - 1) or n < 2:
        raise GridError("--points must be a power of two")
    return build_grid(args.half_width, n.bit_length() - 1)


def _samples_rows(f: SampledFunction):
    return [(float(x), float(v.real), float(v.imag))
            for x, v in zip(f.x, f.values)]


def _space_index(args) -> GSIndex:
    reg = None
    if args.space:
        reg = {"S": "roumieu", "Sigma": "beurling"}[args.space]
    if args.type:
        if reg is not None and reg != args.type:
            raise GstfError(f"--space {args.space} contradicts --type {args.type}")
        reg = args.type
    if reg is None:
        raise GstfError("provide --space or --type")
    s = args.s if args.s is not None else math.inf
    sigma = args.sigma if args.sigma is not None else math.inf
    return GSIndex(s, sigma, reg)


def _options(args) -> ClassifyOptions:
    kw = {}
    if args.n_max is not None:
        kw["n_max"] = args.n_max
    if args.r_list:
        try:
            kw["r_list"] = tuple(float(t) for t in args.r_list.split(","))
        except ValueError:
            raise GstfError(f"--r-list {args.r_list!r} is not "
                            "comma-separated numbers") from None
    if args.floor is not None:
        kw["floor_rel"] = args.floor
    return ClassifyOptions(**kw)


# ------------------------------------------------------------ subcommands

def _cmd_transform(args) -> int:
    t0 = time.perf_counter()
    f, desc = _input_function(args)
    out = dft(f)
    elapsed = time.perf_counter() - t0
    params = {"input": desc, "half_width": args.half_width,
              "points": args.points}
    return _samples_report(args, "transform", params, {
        "verdict": None,
        "grid": {"center": out.grid.center, "step": out.grid.step,
                 "count": out.grid.count},
    }, out, elapsed)


def _default_tfgrid(grid: Grid1D) -> TFGrid:
    return TFGrid(Grid1D(0.0, 8 * grid.step, 129), Grid1D(0.0, 0.25, 129))


def _cmd_stft(args) -> int:
    t0 = time.perf_counter()
    f, desc = _input_function(args)
    wspec = parse_function_expr(args.window)
    window = catalog_eval(wspec, f.grid)
    tf = _default_tfgrid(f.grid)
    v = stft(f, window, tf)
    elapsed = time.perf_counter() - t0
    if args.format == "csv":
        rows = []
        for i, x in enumerate(tf.xgrid.coords):
            for j, xi in enumerate(tf.xigrid.coords):
                val = v.values[i, j]
                rows.append((float(x), float(xi), float(val.real),
                             float(val.imag)))
        _write(args, _csv_text(("x", "xi", "value-real", "value-imag"), rows))
        return 0
    a = np.abs(v.values)
    params = {"input": desc, "window": str(wspec),
              "half_width": args.half_width, "points": args.points}
    rep = _report(args, "stft", params, {
        "verdict": None,
        "max_abs": float(a.max()),
        "profiles": {
            "x": [(float(x), float(p)) for x, p in
                  zip(tf.xgrid.coords, a.max(axis=1))],
            "xi": [(float(xi), float(p)) for xi, p in
                   zip(tf.xigrid.coords, a.max(axis=0))],
        },
    }, elapsed)
    _write(args, _jdump(rep) + "\n")
    return 0


def _fit_tables(rep):
    def row(f):
        return {"C": f.C, "attained_at": f.attained_at,
                "interior_attained": f.interior_attained,
                "masked_edge": f.masked_edge}
    return ({str(n): row(f) for n, f in sorted(rep.N_table.items())},
            {format(r, ".17g"): row(f)
             for r, f in sorted(rep.beurling_table.items())})


def _cmd_classify(args) -> int:
    t0 = time.perf_counter()
    f, desc = _input_function(args)
    idx = _space_index(args)
    opts = _options(args)
    if args.window:
        wspec = parse_function_expr(args.window)
        window = catalog_eval(wspec, f.grid)
        tf = TFGrid(Grid1D(0.0, 4 * f.grid.step, 513), Grid1D(0.0, 0.5, 1001))
        rep = classify_stft(f, window, idx, tf, opts)
        wdesc = str(wspec)
    else:
        rep = classify_function(f, idx, opts)
        wdesc = None
    elapsed = time.perf_counter() - t0
    ntab, btab = _fit_tables(rep)
    params = {"input": desc, "window": wdesc,
              "s": None if math.isinf(idx.s) else idx.s,
              "sigma": None if math.isinf(idx.sigma) else idx.sigma,
              "regularity": idx.regularity,
              "half_width": args.half_width, "points": args.points,
              "n_max": opts.n_max, "r_list": list(opts.trial_rs()),
              "floor": opts.floor_rel}
    if args.format == "csv":
        rows = [("meta", "verdict", rep.verdict, "", "", ""),
                ("meta", "C_peak", format(rep.C_peak, ".17g"), "", "", ""),
                ("meta", "r_fit", _jfloat(rep.r_fit).strip('"'), "", "", "")]
        for kind, table in (("poly", ntab), ("beurling", btab)):
            rows += [(kind, key, _jfloat(t["C"]).strip('"'), t["attained_at"],
                      t["interior_attained"], t["masked_edge"])
                     for key, t in table.items()]
        _write(args, _csv_text(
            ("kind", "key", "value", "attained_at", "interior_attained",
             "masked_edge"), rows))
    else:
        out = _report(args, "classify", params, {
            "verdict": rep.verdict,
            "fitted": {"C_peak": rep.C_peak, "r_fit": rep.r_fit,
                       "N_table": ntab, "beurling_table": btab},
            "diagnostics": {
                "attainment": {
                    "poly_all_interior": all(
                        t["interior_attained"] and not t["masked_edge"]
                        for t in ntab.values()),
                },
                "floor": opts.floor_rel,
                "guard_band": opts.guard,
            },
        }, elapsed)
        _write(args, _jdump(out) + "\n")
    if args.assert_member and rep.verdict != MEMBER:
        return 1
    return 0


def _cmd_witness(args) -> int:
    t0 = time.perf_counter()
    idx = _space_index(args)
    grid = _make_grid(args)
    w = make_witness(idx, grid)
    elapsed = time.perf_counter() - t0
    params = {"s": idx.s, "sigma": idx.sigma, "regularity": idx.regularity,
              "half_width": args.half_width, "points": args.points}
    return _samples_report(args, "witness", params, {
        "verdict": "Witness",
        "grid": {"center": w.grid.center, "step": w.grid.step,
                 "count": w.grid.count},
    }, w, elapsed)


def _cmd_toeplitz(args) -> int:
    t0 = time.perf_counter()
    f, desc = _input_function(args)
    wspec = parse_function_expr(args.window)
    window = catalog_eval(wspec, f.grid)
    window = window * (1.0 / window.norm2())
    tf = _default_tfgrid(f.grid)
    if args.symbol == "unit":
        sym = TFR(tf, np.ones((tf.xgrid.count, tf.xigrid.count)))
    else:
        x = tf.xgrid.coords[:, None]
        xi = tf.xigrid.coords[None, :]
        sym = TFR(tf, np.exp(-(x**2 + xi**2) / 2.0))
    out = apply_toeplitz(sym, window, window, f)
    elapsed = time.perf_counter() - t0
    scale = float(np.max(np.abs(f.values))) or 1.0
    params = {"input": desc, "window": str(wspec), "symbol": args.symbol,
              "half_width": args.half_width, "points": args.points}
    return _samples_report(args, "toeplitz", params, {
        "verdict": None,
        "reproduction_defect": float(
            np.max(np.abs(out.values - f.values)) / scale)
        if args.symbol == "unit" else None,
    }, out, elapsed)


# ------------------------------------------------------------ verify suite

def _cmd_verify(args) -> int:
    t0 = time.perf_counter()
    suites = SUITES if args.suite == "all" else (args.suite,)
    checks = [c for suite in suites for c in run_suite(suite)]
    elapsed = time.perf_counter() - t0
    rows = [(name, _jfloat(val).strip('"'), _jfloat(tol).strip('"'),
             "pass" if val <= tol else "fail")
            for name, val, tol in checks]
    ok = all(val <= tol for _, val, tol in checks)
    if args.format == "csv":
        _write(args, _csv_text(("check", "value", "tolerance", "status"), rows))
    else:
        rep = _report(args, "verify", {"suite": args.suite}, {
            "verdict": "pass" if ok else "fail",
            "checks": [{"name": n, "value": v, "tolerance": t,
                        "status": "pass" if v <= t else "fail"}
                       for n, v, t in checks],
        }, elapsed)
        _write(args, _jdump(rep) + "\n")
    return 0 if ok else 1


# -------------------------------------------------------------- dispatch

def _add_common(p: argparse.ArgumentParser, with_input=True):
    if with_input:
        p.add_argument("--expr", help="function expression")
        p.add_argument("--in", dest="infile",
                       help="CSV input: x, value-real[, value-imag]")
    p.add_argument("--half-width", type=float, default=12.0)
    p.add_argument("--points", type=int, default=2048,
                   help="sample count (power of two)")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (breaks byte-identical "
                        "reports)")


def _add_space(p: argparse.ArgumentParser):
    p.add_argument("--space", choices=("S", "Sigma"))
    p.add_argument("--s", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--type", choices=("roumieu", "beurling"))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gstf",
        description="Time-frequency transforms, decay-class verdicts, "
                    "Gabor multipliers, and identity verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="discrete continuum-normalized "
                                         "Fourier transform")
    _add_common(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("stft", help="short-time Fourier transform")
    _add_common(p)
    p.add_argument("--window", default="gaussian(1)")
    p.set_defaults(func=_cmd_stft)

    p = sub.add_parser("classify", help="decay-class membership verdict")
    _add_common(p)
    _add_space(p)
    p.add_argument("--window", help="classify through the STFT with this "
                                    "window instead of directly")
    p.add_argument("--n-max", type=int)
    p.add_argument("--r-list", help="comma-separated trial rates")
    p.add_argument("--floor", type=float, help="relative noise floor")
    p.add_argument("--assert-member", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("witness", help="sampled nontrivial class member")
    _add_common(p, with_input=False)
    _add_space(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("toeplitz", help="apply a Gabor-multiplier operator")
    _add_common(p)
    p.add_argument("--window", default="gaussian(1)")
    p.add_argument("--symbol", choices=("unit", "gaussian"), default="unit")
    p.set_defaults(func=_cmd_toeplitz)

    p = sub.add_parser("verify", help="run the identity/classification/"
                                      "toeplitz check suites")
    _add_common(p, with_input=False)
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p.set_defaults(func=_cmd_verify)
    return ap


def run_command(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except GstfError as e:
        sys.stderr.write(f"error: {type(e).__name__}: {e}\n")
        return 2
    except OSError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
