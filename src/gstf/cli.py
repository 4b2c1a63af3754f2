"""Command-line front door.

Subcommands: transform, stft, classify, witness, toeplitz, verify.
Reports are JSON (fixed field order, floats at 17 significant digits, so
identical invocations give byte-identical files) or CSV.  Exit codes:
0 success, 1 failed assertion (--assert-member, or a failed verify
suite), 2 errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time

import numpy as np

# the core; each subcommand imports the other modules that it runs
from .catalog import catalog_eval
from .errors import GridError, GstfError
from .grids import (Grid1D, SampledFunction, TFR, build_grid, classify_tfgrid,
                    gaussian_symbol, phase_space_grid)
from .transforms import _rel_defect, dft, stft

__all__ = ["main", "run_command"]

SCHEMA_VERSION = 3

# checks.SUITES' names: only `verify` imports the check registry
SUITES = ("identities", "classification", "toeplitz")


# ---------------------------------------------------------------- reports

def _cfloat(x: float) -> str:
    """17 significant digits; nan, inf and -inf by name."""
    return format(float(x), ".17g")


def _jdump(obj) -> str:
    """Deterministic JSON: insertion order kept, floats at 17 sig digits."""
    if isinstance(obj, (float, np.floating)):
        return _cfloat(obj) if math.isfinite(obj) else f'"{_cfloat(obj)}"'
    if isinstance(obj, (list, tuple)):
        # one template for a row of floats whose sum is finite
        if (type(obj) is tuple and all(type(v) is float for v in obj)
                and math.isfinite(sum(obj))):
            return "[" + ", ".join(("%.17g",) * len(obj)) % obj + "]"
        return "[" + ", ".join(map(_jdump, obj)) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        items = ", ".join(f"{_jdump(str(k))}: {_jdump(v)}" for k, v in obj.items())
        return "{" + items + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(args, params: dict, body: dict, header, rows, elapsed: float):
    """Write the CSV table (``header``, ``rows``), or the JSON report of
    ``params`` and ``body``, to --out or stdout."""
    with (open(args.out, "w") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        if args.format == "csv":
            import csv
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
        else:
            fh.write(_jdump({
                "schema_version": SCHEMA_VERSION, "command": args.command,
                "params": params, **body,
                "timings": {"elapsed_s": elapsed} if args.timings else None,
            }) + "\n")


# ----------------------------------------------------------------- inputs

def _load_csv_samples(path: str) -> SampledFunction:
    import csv
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
    if not np.isfinite(xs).all():
        raise GridError("CSV input x must be finite")
    # an overflowing step is inf (and inf - inf nan, which passes the
    # comparison): Grid1D rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(xs)
        step = steps[0]
        if step <= 0 or np.any(np.abs(steps - step) > 1e-9 * abs(step)):
            raise GridError("CSV input must have strictly increasing "
                            "uniform x")
        grid = Grid1D(float((xs[0] + xs[-1]) / 2), float(step), len(xs))
    return SampledFunction(grid, np.asarray(vals))


def _input_function(args) -> tuple:
    """(SampledFunction, description, the report's half_width and points)
    from --expr and the flags, or from --in with null and its count."""
    if getattr(args, "infile", None):
        f = _load_csv_samples(args.infile)
        return (f, f"csv:{args.infile}",
                {"half_width": None, "points": f.grid.count})
    if not args.expr:
        raise GstfError("provide --expr or --in")
    from .parse import parse_function_expr
    spec = parse_function_expr(args.expr)
    grid = _make_grid(args)
    return (catalog_eval(spec, grid), str(spec),
            {"half_width": args.half_width, "points": args.points})


def _make_grid(args) -> Grid1D:
    n = args.points
    if not 2 <= n <= 2**24 or n & (n - 1):
        raise GridError("--points must be a power of two from 2 to 16777216")
    return build_grid(args.half_width, n.bit_length() - 1)


def _space_index(args):
    from .classify import GSIndex
    # --space names the regularity by its class: S Roumieu, Sigma Beurling
    reg = {"S": "roumieu", "Sigma": "beurling"}.get(args.regularity,
                                                     args.regularity)
    s = args.s if args.s is not None else math.inf
    sigma = args.sigma if args.sigma is not None else math.inf
    return GSIndex(s, sigma, reg)


def _window(args, grid: Grid1D) -> tuple:
    """(description, samples on ``grid``) of --window."""
    from .parse import parse_function_expr
    spec = parse_function_expr(args.window)
    return str(spec), catalog_eval(spec, grid)


# ------------------------------------------------------------ subcommands
#
# Each _cmd_* returns its record (params, body, csv_header, csv_rows,
# exit_code); run_command times it and _emit writes it.

def _samples(params: dict, body: dict, f: SampledFunction) -> tuple:
    """A sample command's record: f's rows are both body["samples"] and
    the CSV table."""
    rows = [(float(x), float(v.real), float(v.imag))
            for x, v in zip(f.x, f.values)]
    body["samples"] = rows
    return params, body, ("x", "value-real", "value-imag"), rows, 0


def _cmd_transform(args) -> tuple:
    f, desc, extent = _input_function(args)
    out = dft(f)
    params = {"input": desc, **extent}
    return _samples(params, {"verdict": None, "grid": out.grid._asdict()}, out)


def _cmd_stft(args) -> tuple:
    f, desc, extent = _input_function(args)
    wdesc, window = _window(args, f.grid)
    tf = phase_space_grid(f.grid)
    v = stft(f, window, tf)
    xs, xis = tf.xgrid.coords, tf.xigrid.coords
    # a generator, so that a JSON run never builds the 129^2 rows
    rows = ((float(x), float(xi), float(val.real), float(val.imag))
            for x, vrow in zip(xs, v.values) for xi, val in zip(xis, vrow))
    px, pxi = (p.values.real for p in v.max_profiles())
    params = {"input": desc, "window": wdesc, **extent}
    return params, {
        "verdict": None,
        "max_abs": float(px.max()),
        "profiles": {
            "x": [(float(x), float(p)) for x, p in zip(xs, px)],
            "xi": [(float(xi), float(p)) for xi, p in zip(xis, pxi)],
        },
    }, ("x", "xi", "value-real", "value-imag"), rows, 0


def _cmd_classify(args) -> tuple:
    from .classify import (FLOOR, GUARD, ClassifyOptions, MEMBER,
                           classify_function, classify_stft)
    f, desc, extent = _input_function(args)
    idx = _space_index(args)
    opts = (ClassifyOptions() if args.n_max is None
            else ClassifyOptions(n_max=args.n_max))
    if args.window is not None:
        wdesc, window = _window(args, f.grid)
        rep = classify_stft(f, window, idx, classify_tfgrid(f.grid), opts)
    else:
        wdesc, rep = None, classify_function(f, idx, opts)
    scales = {"r_star": rep.r_star._asdict(),
              "N_star": rep.N_star._asdict()}
    params = {"input": desc, "window": wdesc,
              "s": None if math.isinf(idx.s) else idx.s,
              "sigma": None if math.isinf(idx.sigma) else idx.sigma,
              "regularity": idx.regularity, **extent,
              "n_max": opts.n_max, "r_list": list(opts.trial_rs()),
              "floor": FLOOR}
    body = {
        "verdict": rep.verdict,
        "fitted": {"C_peak": rep.C_peak, **scales},
        "diagnostics": {
            "attainment": {
                "poly_all_interior": opts.n_max <= rep.N_star.value,
            },
            "floor": FLOOR,
            "guard_band": GUARD,
        },
    }
    rows = [("meta", "verdict", rep.verdict, "", "", ""),
            ("meta", "C_peak", _cfloat(rep.C_peak), "", "", "")]
    rows += [("critical", name, *("" if v is None else _cfloat(v)
                                  for v in (c["value"], c["attained_at"],
                                            c["bound_at"])), c["masked_edge"])
             for name, c in scales.items()]
    code = 1 if args.assert_member and rep.verdict != MEMBER else 0
    return params, body, ("kind", "key", "value", "attained_at", "bound_at",
                          "masked_edge"), rows, code


def _cmd_witness(args) -> tuple:
    from .witnesses import make_witness
    idx = _space_index(args)
    w = make_witness(idx, _make_grid(args))
    params = {"s": idx.s, "sigma": idx.sigma, "regularity": idx.regularity,
              "half_width": args.half_width, "points": args.points}
    return _samples(params, {"verdict": "Witness", "grid": w.grid._asdict()},
                    w)


def _cmd_toeplitz(args) -> tuple:
    from .toeplitz import apply_toeplitz
    f, desc, extent = _input_function(args)
    wdesc, window = _window(args, f.grid)
    with np.errstate(over="ignore"):  # an overflow is the norm inf
        norm = window.norm2()
    if not 0 < norm < math.inf:
        raise GridError(f"the window's L2 norm is {norm!r}: it must be "
                        "finite and > 0")
    window = window * (1.0 / norm)
    tf = phase_space_grid(f.grid)
    unit = args.symbol == "unit"
    sym = (TFR(tf, np.ones((tf.xgrid.count, tf.xigrid.count))) if unit
           else gaussian_symbol(tf))
    out = apply_toeplitz(sym, window, window, f)
    params = {"input": desc, "window": wdesc, "symbol": args.symbol,
              **extent}
    return _samples(params, {
        "verdict": None,
        "reproduction_defect": (_rel_defect(out.values, f.values) if unit
                                else None),
    }, out)


def _cmd_verify(args) -> tuple:
    from .checks import run_suite
    suites = SUITES if args.suite == "all" else (args.suite,)
    checks = [(name, val, tol, "pass" if val <= tol else "fail")
              for suite in suites for name, val, tol in run_suite(suite)]
    ok = all(status == "pass" for *_, status in checks)
    body = {"verdict": "pass" if ok else "fail",
            "checks": [{"name": n, "value": v, "tolerance": t, "status": st}
                       for n, v, t, st in checks]}
    rows = [(n, _cfloat(v), _cfloat(t), st) for n, v, t, st in checks]
    return ({"suite": args.suite}, body,
            ("check", "value", "tolerance", "status"), rows, 0 if ok else 1)


# -------------------------------------------------------------- dispatch

def _add_common(p: argparse.ArgumentParser, with_input=True):
    if with_input:
        p.add_argument("--expr", help="function expression")
        p.add_argument("--in", dest="infile",
                       help="CSV input: x, value-real[, value-imag]")
    p.add_argument("--half-width", type=float, default=12.0)
    p.add_argument("--points", type=int, default=2048,
                   help="sample count (power of two)")
    _add_output(p)


def _add_output(p: argparse.ArgumentParser):
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (breaks byte-identical "
                        "reports)")


def _add_space(p: argparse.ArgumentParser):
    reg = p.add_mutually_exclusive_group(required=True)
    reg.add_argument("--space", choices=("S", "Sigma"), dest="regularity")
    reg.add_argument("--type", choices=("roumieu", "beurling"),
                     dest="regularity")
    p.add_argument("--s", type=float)
    p.add_argument("--sigma", type=float)


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
    _add_output(p)
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
        t0 = time.perf_counter()
        params, body, header, rows, code = args.func(args)
        _emit(args, params, body, header, rows, time.perf_counter() - t0)
        return code
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
