"""gstf benchmark: one seeded closed-loop workload per invocation.

    python3 bench/run.py --workload phase_space --seed 1 --seconds 6 --trace 0
    python3 bench/run.py --workload all        # every workload, one after another
    python3 bench/run.py --self-check          # generator and truth-table checks

Run it from the repository root; gstf is imported from ``src``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the per-layer ones, taken from spans
the benchmark records around its calls into gstf.  Results, run metadata
and the spans are also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("phase_space", "classify_sweep", "cli_cold")
SETUP_SAMPLES = 3
# Each timed job is repeated at least this often, and for as long as the
# run lasts; its latency is the median of its host-speed times (host.py).
MIN_REPEATS = 1
DIGITS_CAP = 17.0  # a defect of exactly 0 counts as 1e-17

END_TO_END_UNITS = {
    "setup_s": "s", "throughput_ops_per_s": "ops/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "peak_rss_mb": "MB", "accuracy_digits": "digits",
    "verdict_correct_share": "fraction",
}
CLI_SUBCOMMANDS = ("transform", "stft", "classify", "witness", "toeplitz", "verify")


def limit_blas_threads() -> int:
    """One BLAS thread, for the workloads' one caller: a second thread would
    wait on whatever else the shared CPUs run, and time that instead."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return 1


def setup(workload: str, seed: int):
    """Imports, input generation and one untimed warm-up operation."""
    import workloads
    wl = workloads.make(workload, seed, str(ROOT))
    wl.warm_up()
    return wl


def probe_setup_seconds(args, host) -> float:
    """Time from starting a fresh benchmark process to its readiness,
    scaled to host speed by reference samples just before and after."""
    host.sample()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--probe-setup"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line.strip() != "ready":
        raise RuntimeError("set-up probe failed")
    host.sample()
    return elapsed * host.scale(t0, t0 + elapsed)


def import_ms() -> float:
    """Median time of ``import gstf.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import gstf.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                                 capture_output=True, text=True, check=True,
                                 timeout=60).stdout)
            for _ in range(SETUP_SAMPLES)]
    return statistics.median(runs) * 1e3


# -------------------------------------------------------------- the loop

def measure(wl, seconds: float, min_repeats: int, host, tracer=None):
    """Run every job of the round once and judge it, then repeat the timed
    jobs, always in the same order, until ``seconds`` have elapsed and each
    has run ``min_repeats`` more times.  Every Op gets its host-speed
    scale.  With a tracer, odd repeats are traced and even ones are not,
    so that the two throughputs can be compared.  Returns (first, samples,
    walls, counts): first[j] is round job j's first Op, samples[i] holds
    every Op of timed job i, and walls and counts, keyed by traced-ness,
    cover the repeats."""
    windows = []

    def run_scaled(job, tracer, op_id):
        host.maybe_sample()
        t0 = time.perf_counter()
        op = run_op(wl.run, job, wl.kind(job), tracer, op_id)
        windows.append((op, t0, time.perf_counter()))
        return op

    first = [run_scaled(job, None, j) for j, job in enumerate(wl.round)]
    samples = [[first[j]] for j in wl.timed]
    walls, counts = {False: 0.0, True: 0.0}, {False: 0, True: 0}
    start, r = time.perf_counter(), 0
    while r < min_repeats or time.perf_counter() - start < seconds:
        traced = tracer is not None and r % 2 == 1
        t0 = time.perf_counter()
        with tracing(tracer if traced else None):
            for i, j in enumerate(wl.timed):
                job = wl.round[j]
                samples[i].append(run_scaled(job, tracer if traced else None,
                                             len(wl.round) * (r + 1) + j))
        walls[traced] += time.perf_counter() - t0
        counts[traced] += len(wl.timed)
        r += 1
    host.sample()
    for op, t0, t1 in windows:
        op.scale = host.scale(t0, t1)
    return first, samples, walls, counts


def flat(samples):
    return [op for ops in samples for op in ops]


@contextlib.contextmanager
def tracing(tracer):
    if tracer is None:
        yield
        return
    tracer.instrument()
    try:
        yield
    finally:
        tracer.restore()


def run_op(run, job, kind, tracer, op_id):
    """One operation, inside a root span when traced."""
    if tracer is None:
        return run(job)
    tracer.op_id = op_id
    span = tracer.begin("op." + kind)
    op = run(job)
    tracer.end(span, failed=op.error is not None)
    return op


def in_process(wl):
    """A runner for CLI commands through ``gstf.cli.run_command`` in this
    process, judged like the subprocess ones."""
    import gstf.cli
    from workloads import Op

    def run(cmd):
        op = Op(cmd["kind"])
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = gstf.cli.run_command(cmd["argv"])
        op.seconds = time.perf_counter() - t0
        wl.judge(op, cmd, code, out.getvalue(), err.getvalue())
        return op
    return run


def cli_layers(wl, tracer):
    """cli_cold under the tracer: one round of subprocesses, then the
    round's commands in-process, once plain and once traced.  Each traced
    command starts with no plan to reuse, as a fresh process would."""
    from host import HostSpeed
    sub, _, _, _ = measure(wl, 0.0, 0, HostSpeed(wl.reference))
    cmds = wl.round
    run = in_process(wl)
    plain = [run(cmd) for cmd in cmds]
    traced = []
    t0 = time.perf_counter()
    with tracing(tracer):
        for k, cmd in enumerate(cmds):
            tracer.forget_plans()
            traced.append(run_op(run, cmd, cmd["kind"], tracer, k))
    walls = {False: sum(op.seconds for op in plain), True: time.perf_counter() - t0}
    counts = {False: len(cmds), True: len(cmds)}
    metrics = {}
    for s in CLI_SUBCOMMANDS:
        t = [op.seconds for op, c in zip(plain, cmds) if c["argv"][0] == s]
        metrics[f"cli.run_command.{s}.ms"] = statistics.mean(t) * 1e3 if t else 0.0
    sub_wall = sum(op.seconds for op in sub)
    metrics["cli.startup_share"] = (sub_wall - walls[False]) / sub_wall
    metrics["cli.report_bytes"] = statistics.mean(op.report_bytes for op in sub)
    return sub + plain + traced, walls, counts, metrics


# ----------------------------------------------------------------- metrics

def tail_latency(lat_ms: list, percentile: float):
    """The workload's tail percentile (nearest rank), lowered until at
    least 10 samples lie beyond it, but never below p90."""
    lat = sorted(lat_ms)
    n = len(lat)
    rank = max(min(math.ceil(n * percentile / 100.0), n - 10),
               math.ceil(n * 0.9), 1)
    return lat[rank - 1], f"p{100.0 * rank / n:.3g}"


def family_average(decided) -> float:
    """Share of decided verdicts that are right, averaged over expression
    families so that a run's family mix does not move it; 1 if none decided."""
    by_family = {}
    for fam, right in decided:
        by_family.setdefault(fam, []).append(right)
    if not by_family:
        return 1.0
    return statistics.mean(sum(r) / len(r) for r in by_family.values())


def end_to_end(wl, first, samples, wall, setup_s):
    """Timings from each timed job's median host-speed time over its runs;
    accuracy and verdicts from the first run of every job of the round."""
    lat = [statistics.median(op.seconds * op.scale for op in ops) * 1e3
           for ops in samples]
    tail, tail_label = tail_latency(lat, wl.tail_percentile)
    worst = {}
    for op in first:
        for name, d in op.defects.items():
            worst[name] = max(worst.get(name, 0.0), d)
    digits = {name: min(DIGITS_CAP, -math.log10(d)) if d > 0 else DIGITS_CAP
              for name, d in worst.items()}
    verdicts = [v for op in first for v in op.verdicts]
    decided = [v for v in verdicts if v[1] is not None]
    wrong = sum(not right for _, right in decided)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_cold" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": setup_s,
        "throughput_ops_per_s": len(lat) / (sum(lat) / 1e3),
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "accuracy_digits": min(digits.values()),
        "verdict_correct_share": family_average(decided),
    }
    ops = first + flat(s[1:] for s in samples)
    failed = sum(op.error is not None for op in ops)
    notes = {
        "samples": len(lat), "repeats": len(samples[0]),
        "tail_percentile": tail_label,
        "wall_throughput_ops_per_s": (len(ops) - len(first)) / wall,
        "error_rate": failed / len(ops),
        "verdict_error_rate": wrong / max(len(decided), 1),
        "verdict_correct_share_by_family": {
            fam: family_average([v for v in decided if v[0] == fam])
            for fam in sorted({fam for fam, _ in decided})},
        "verdicts_decided": len(decided), "verdicts_total": len(verdicts),
        "digits_by_identity": digits,
        "latency_p50_ms_by_kind": {
            k: statistics.median(t for ops, t in zip(samples, lat) if ops[0].kind == k)
            for k in sorted({ops[0].kind for ops in samples})},
    }
    return metrics, notes


def per_layer(tracer, ops, walls, counts):
    from spans import LAYERS
    n = max(counts[True], 1)
    totals = tracer.layer_totals()
    m = {}
    for layer in LAYERS:
        calls, self_s, failed = totals.get(layer, (0, 0.0, 0))
        m[f"{layer}.calls"] = calls
        m[f"{layer}.ms"] = self_s * 1e3 / n  # self time per traced operation
        m[f"{layer}.failed"] = failed
    calls = max(tracer.stft_calls, 1)
    m["transforms.stft.macs"] = tracer.stft_macs / calls
    m["transforms.stft.kernel_mb"] = tracer.stft_kernel_bytes / 1e6 / calls
    m["transforms.stft.repeat_share"] = tracer.stft_repeats / calls
    verdicts = [v for op in ops for v in op.verdicts]
    m["classify.decided_share"] = (sum(v[1] is not None for v in verdicts)
                                   / max(len(verdicts), 1))
    untraced = counts[False] / walls[False]
    m["trace.overhead_share"] = 1.0 - (counts[True] / walls[True]) / untraced
    return m


def layer_units(name: str) -> str:
    if name.endswith((".calls", ".failed", ".macs")):
        return "count"
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    return "fraction"


# ---------------------------------------------------------------- metadata

def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def metadata(args, threads):
    import importlib.metadata as md
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = md.version(pkg)
        except md.PackageNotFoundError:
            versions[pkg] = None
    return {"git_commit": git_commit(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), **versions,
            "blas_threads": threads, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


# ------------------------------------------------------------------- main

def run_workload(args, threads) -> dict:
    if args.trace == 0:
        from host import HostSpeed
        probe_host = HostSpeed("process")
        setup_samples = [probe_setup_seconds(args, probe_host)
                         for _ in range(SETUP_SAMPLES)]
        wl = setup(args.workload, args.seed)
        host = HostSpeed(wl.reference)
        first, samples, walls, _ = measure(wl, args.seconds, MIN_REPEATS, host)
        ops = first + flat(s[1:] for s in samples)
        metrics, notes = end_to_end(wl, first, samples, walls[False],
                                    statistics.median(setup_samples))
        notes["setup_samples_s"] = setup_samples
        notes["host_slowdown"] = host.slowdown()
    else:
        from host import HostSpeed
        from spans import Tracer
        tracer = Tracer()
        wl = setup(args.workload, args.seed)
        metrics = {"cli.import_ms": import_ms()}
        metrics.update(dict.fromkeys(
            [f"cli.run_command.{s}.ms" for s in CLI_SUBCOMMANDS]
            + ["cli.startup_share", "cli.report_bytes"], 0.0))
        if args.workload == "cli_cold":
            ops, walls, counts, cli = cli_layers(wl, tracer)
            metrics.update(cli)
        else:
            first, samples, walls, counts = measure(wl, args.seconds, 2,
                                                    HostSpeed(wl.reference), tracer)
            ops = first + flat(s[1:] for s in samples)
        metrics = {**per_layer(tracer, ops, walls, counts), **metrics}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
        notes = {"self_time_share": self_time_share(metrics)}
    failed = [op.error for op in ops if op.error]
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics, "notes": notes, "errors": failed[:20],
            "meta": metadata(args, threads)}


def self_time_share(metrics) -> dict:
    """Each layer's share of a traced operation's time.  On cli_cold the
    base is the subprocess wall, of which start-up takes its own share."""
    layers = {k[:-3]: v for k, v in metrics.items()
              if k.endswith(".ms") and not k.startswith("cli.run_command.") and v > 0}
    total = sum(layers.values()) or 1.0
    startup = metrics["cli.startup_share"]
    shares = {"start-up (interpreter, imports)": startup} if startup else {}
    shares.update({k: (1.0 - startup) * v / total for k, v in layers.items()})
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def print_report(res, traced):
    meta, notes = res["meta"], res["notes"]
    print(f"# gstf benchmark  workload={meta['workload']} seed={meta['seed']} "
          f"trace={meta['trace']}  python {meta['python']}  numpy {meta['numpy']}  "
          f"scipy {meta['scipy']}  blas_threads={meta['blas_threads']} "
          f"nproc={meta['nproc']}  commit={meta['git_commit']}")
    print(f"# attempted {res['attempted']}  failed {res['failed']}  "
          f"error_rate {res['failed'] / res['attempted']:.4g} fraction")
    for err in res["errors"]:
        print(f"#   failure: {err}")
    for name, value in res["metrics"].items():
        unit = END_TO_END_UNITS.get(name) or layer_units(name)
        extra = ""
        if name == "latency_tail_ms":
            extra = f"  ({notes['tail_percentile']} of {notes['samples']} jobs)"
        elif name in ("throughput_ops_per_s", "latency_p50_ms"):
            n = notes["repeats"]
            extra = f"  (host-speed time, median of {n} run{'s' * (n > 1)} per job)"
        elif name == "setup_s":
            extra = f"  (median of {SETUP_SAMPLES} fresh processes)"
        elif name.endswith((".macs", ".kernel_mb")):
            extra = "  (computed from array shapes, per call)"
        print(f"{name:44s} {value:14.6g} {unit}{extra}")
    if not traced:
        print(f"{'verdict_error_rate':44s} {notes['verdict_error_rate']:14.6g} fraction"
              f"  ({notes['verdicts_decided']} decided of {notes['verdicts_total']})")
    else:
        print("# share of a traced operation's time:")
        for layer, share in notes["self_time_share"].items():
            print(f"#   {layer:40s} {share:7.1%}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=6.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gstf" / "__init__.py").is_file():
        print(f"error: no gstf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))

    if args.self_check:
        import truth
        problems = truth.self_check()
        for p in problems:
            print(f"self-check: {p}")
        print("self-check: ok" if not problems else "self-check: FAILED")
        return 1 if problems else 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.probe_setup:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        code = 0
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], cwd=ROOT)
            code = code or proc.returncode
        return code

    res = run_workload(args, threads)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=1) + "\n")
    print_report(res, args.trace == 1)
    units = END_TO_END_UNITS if args.trace == 0 else {}
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units.get(k) or layer_units(k)}
                    for k, v in res["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
