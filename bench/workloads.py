"""The three workloads.  Each one turns a seed into a round of jobs, runs a
job with ``run`` (timing only the calls into gstf, or the CLI process)
and judges the outputs against ``truth``, never against gstf itself.

A workload exposes ``round`` (the list of jobs), ``timed`` (the indices
of the round's jobs that are timed again and again), ``warm_up()``,
``kind(job)`` and ``run(job) -> Op``.  A run judges every job of the
round once, and correctness figures (verdicts, identity defects) come
from that, so that they depend on the seed alone.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import truth


@dataclass
class Op:
    kind: str
    seconds: float = 0.0
    error: str | None = None      # set when the operation failed
    defects: dict = field(default_factory=dict)   # identity -> defect
    verdicts: list = field(default_factory=list)  # (family, right: bool | None)
    report_bytes: int = 0  # CLI report size
    scale: float = 1.0  # wall time to host-speed time, set by the caller


def _gate(op: Op, name: str, value: float, gate: float | None = None):
    op.defects[name] = value
    gate = truth.GATES[name] if gate is None else gate
    if not value <= gate:
        op.error = f"{name} = {value:.3e} breaks its gate {gate:.0e}"


def _verdict(op: Op, family: str, cls: str, got: str, expected: str | None = None):
    """Record a verdict against closed-form truth; Inconclusive is undecided."""
    expected = expected or truth.TRUTH[family][cls]
    op.verdicts.append((family, None if got == "Inconclusive" else got == expected))


def _class_index(gs, name):
    s, sigma, reg = truth.CLASSES[name]
    return gs.GSIndex(math.inf if s is None else s,
                      math.inf if sigma is None else sigma, reg)


def _timed(op: Op, fn, *args):
    t0 = time.perf_counter()
    try:
        return fn(*args)
    finally:
        op.seconds = time.perf_counter() - t0


def _guarded(check):
    """Run one job's ``check(op, job)``; an exception fails the operation."""
    def run(self, job) -> Op:
        op = Op(self.kind(job))
        try:
            check(self, op, job)
        except Exception as e:  # the benchmark keeps going and counts it
            op.error = f"{type(e).__name__}: {e}"
        return op
    return run


class PhaseSpace:
    """Seeded jobs on the fixed grids of the verify suites."""

    name = "phase_space"
    reference = "compute"  # host.py
    # one pass per family of the shared-STFT classification job
    round_passes = len(truth.PHASE_CLASSIFY_FAMILIES)
    # nine timed jobs: the tail is the slowest, the 2048-point inversion
    tail_percentile = 95.0

    def __init__(self, seed: int):
        import gstf
        from gstf import grids
        self.gs = gstf
        passes = truth.phase_space_passes(seed, self.round_passes)
        self.round = [job for jobs in passes for job in jobs]
        first_of_kind = {}
        for i, job in enumerate(passes[0]):
            first_of_kind.setdefault(job["job"], i)
        self.timed = sorted(first_of_kind.values())
        g10, g11 = gstf.build_grid(12.0, 10), gstf.build_grid(12.0, 11)
        h = g10.step
        self.g10, self.g11 = g10, g11
        self.tf129 = gstf.TFGrid(grids.Grid1D(0.0, 8 * h, 129),
                                 grids.Grid1D(0.0, 0.25, 129))
        self.tf128 = gstf.TFGrid(grids.Grid1D(0.0, 8 * h, 128),
                                 grids.Grid1D(0.0, 2 * np.pi / (1024 * h), 128))
        self.tf2 = gstf.TFGrid(grids.Grid1D(0.0, 4 * g11.step, 513),
                               grids.Grid1D(0.0, 0.5, 1001))
        self.opts = gstf.ClassifyOptions(n_max=4, r_scale=0.5)
        tf = self.tf129
        x, xi = tf.xgrid.coords[:, None], tf.xigrid.coords[None, :]
        self.unit_symbol = grids.TFR(tf, np.ones((129, 129)))
        self.gauss_symbol = grids.TFR(tf, np.exp(-(x**2 + xi**2) / 2.0))

    def warm_up(self):
        self.run(self.round[0])

    def _sample(self, text, grid):
        gs = self.gs
        return gs.catalog.catalog_eval(gs.parse.parse_function_expr(text), grid)

    def _unit(self, text):
        w = self._sample(text, self.g10)
        return w * (1.0 / w.norm2())

    @staticmethod
    def kind(job):
        return job["job"]

    @_guarded
    def run(self, op, job):
        self.JOBS[job["job"]](self, op, job)

    def _inversion(self, op, job):
        T = self.gs.transforms
        grid, tf = ((self.g11, self.tf2) if op.kind.endswith("2048")
                    else (self.g10, self.tf129))

        def work():
            f, w = self._sample(job["f"], grid), self._sample(job["window"], grid)
            return f, w, T.adjoint_stft(T.stft(f, w, tf), w)

        f, w, rec = _timed(op, work)
        inv = np.max(np.abs(rec.values / w.norm2() ** 2 - f.values))
        _gate(op, "stft_inversion_defect", inv / np.max(np.abs(f.values)))

    def _moyal(self, op, job):
        T = self.gs.transforms

        def work():
            f, w = self._sample(job["f"], self.g10), self._sample(job["window"], self.g10)
            return f, w, T.stft(f, w, self.tf129)

        f, w, v = _timed(op, work)
        norms = (f.norm2() * w.norm2()) ** 2
        _gate(op, "moyal_defect", abs(v.norm2() ** 2 - norms) / norms)

    def _twisted_convolution(self, op, job):
        def work():
            f = self._sample(job["f"], self.g10)
            phis = [self._sample(w, self.g10) for w in job["windows"]]
            return self.gs.transforms.twisted_convolution_defect(f, *phis, self.tf129)

        _gate(op, "twisted_convolution_defect", _timed(op, work))

    def _product_transform(self, op, job):
        def work():
            fns = [self._sample(t, self.g10) for t in job["quad"]]
            return self.gs.toeplitz.stft_product_transform_defect(*fns, self.tf128)

        d = _timed(op, work)
        _gate(op, "product_transform_defect", min(d["defect_minus"], d["defect_plus"]))
        if op.error is None and d["defect_minus"] > d["defect_plus"]:
            op.error = "product transform: the plus phase won"

    def _toeplitz(self, op, job):
        gs = self.gs
        symbol = {"toeplitz_unit": self.unit_symbol,
                  "toeplitz_gaussian": self.gauss_symbol}.get(op.kind)
        if symbol is None:  # toeplitz_random: a seeded complex symbol
            rng = np.random.default_rng(job["symbol_seed"])
            symbol = gs.grids.TFR(self.tf129, rng.standard_normal((129, 129))
                                  + 1j * rng.standard_normal((129, 129)))

        def work():
            f, w = self._sample(job["f"], self.g10), self._unit(job["window"])
            out = gs.toeplitz.apply_toeplitz(symbol, w, w, f)
            if op.kind != "toeplitz_random":
                return f, w, out, None
            g = self._sample(job["g"], self.g10)
            return f, w, out, (g, gs.transforms.stft(f, w, self.tf129),
                               gs.transforms.stft(g, w, self.tf129))

        f, w, out, extra = _timed(op, work)
        h = self.g10.step
        if op.kind == "toeplitz_unit":
            err = np.max(np.abs(out.values - f.values)) / np.max(np.abs(f.values))
            _gate(op, "unit_symbol_reproduction", err)
        elif op.kind == "toeplitz_gaussian":
            q = h * np.sum(out.values * np.conj(f.values))
            _gate(op, "positivity_defect", max(0.0, -float(q.real)))
        else:
            g, v1, v2 = extra
            lhs = h * np.sum(out.values * np.conj(g.values))
            tf = self.tf129
            rhs = tf.xgrid.step * tf.xigrid.step * np.sum(
                symbol.values * np.conj(np.conj(v1.values) * v2.values))
            _gate(op, "adjoint_symmetry", abs(lhs - rhs) / abs(lhs))

    def _classify(self, op, job):
        gs, C = self.gs, self.gs.classify
        classes = [(name, _class_index(gs, name)) for name in truth.CLASSES]

        def work():
            f = self._sample(job["f"], self.g11)
            w = self._sample(job["window"], self.g11)
            v = gs.transforms.stft(f, w, self.tf2)
            return [(name,
                     C.classify_stft(f, w, idx, self.tf2, self.opts,
                                     check_window=False, precomputed=v).verdict,
                     C.dual_growth_report(f, w, idx, self.tf2, self.opts,
                                          check_window=False, precomputed=v).verdict)
                    for name, idx in classes]

        for name, direct, dual in _timed(op, work):
            _verdict(op, job["family"], name, direct)
            # every catalog function is tempered, so it lies in each dual space
            _verdict(op, job["family"], name, dual, truth.MEMBER)

    JOBS = {"inversion_1024": _inversion, "inversion_2048": _inversion,
            "moyal": _moyal, "twisted_convolution": _twisted_convolution,
            "product_transform": _product_transform,
            "toeplitz_unit": _toeplitz, "toeplitz_gaussian": _toeplitz,
            "toeplitz_random": _toeplitz, "classify_2048": _classify}


class ClassifySweep:
    """parse -> catalog_eval -> dft/idft -> classify_function, no STFT."""

    name = "classify_sweep"
    reference = "compute"
    ITEMS = 5 * truth.CLASSIFY_CYCLE
    tail_percentile = 99.0

    def __init__(self, seed: int):
        import gstf
        self.gs = gstf
        self.round = truth.classify_sweep_items(seed, self.ITEMS)
        self.timed = list(range(truth.CLASSIFY_CYCLE))  # one whole cycle
        self.classes = [(name, _class_index(gstf, name)) for name in truth.CLASSES]

    def warm_up(self):
        self.run(self.round[0])

    @staticmethod
    def kind(item):
        return ("classify+witness" if "witness" in item else
                "classify+demo" if "demo_s" in item else "classify")

    @_guarded
    def run(self, op, item):
        gs = self.gs

        def work():
            grid = gs.build_grid(item["half_width"], item["exponent"])
            f = gs.catalog.catalog_eval(gs.parse.parse_function_expr(item["expr"]), grid)
            back = gs.transforms.idft(gs.transforms.dft(f))
            verdicts = [(name, gs.classify.classify_function(f, idx).verdict)
                        for name, idx in self.classes]
            extra = None
            if "witness" in item:
                s, sigma, reg = item["witness"]
                try:
                    gs.witnesses.make_witness(gs.GSIndex(s, sigma, reg))
                    extra = "witness"
                except gs.TrivialSpace:
                    extra = "trivial"
                except gs.UnsupportedRegion:
                    extra = "unsupported"
            elif "demo_s" in item:
                extra = gs.witnesses.boundary_triviality_demo(item["demo_s"]).all_failed
            return f, back, verdicts, extra

        f, back, verdicts, extra = _timed(op, work)
        err = np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values))
        _gate(op, "round_trip_defect", err, truth.ROUND_TRIP_GATE)
        for name, got in verdicts:
            _verdict(op, item["family"], name, got)
        if "witness" in item:
            if (extra == "trivial") != truth.trivial_class(*item["witness"]):
                op.error = f"make_witness{item['witness']} gave {extra}"
        elif "demo_s" in item and extra is not True:
            op.error = f"boundary demo at s={item['demo_s']} found a survivor"


class CliCold:
    """One ``python -m gstf.cli`` process per operation, run one at a time."""

    name = "cli_cold"
    reference = "process"
    # One command of each subcommand, of the import-bound kind that
    # dominates the round.  The heavier commands (the identities and
    # classification suites, the --window runs) do compute that the
    # process reference scales badly, so they are judged only.
    TIMED_KINDS = ("transform", "stft", "witness", "toeplitz_gaussian",
                   "classify_other", "verify_toeplitz")
    # Six timed commands leave none beyond p90: the tail is the slowest.
    tail_percentile = 90.0

    def __init__(self, seed: int, root: str):
        self.root = root
        self.round = truth.cli_cold_passes(seed, 1)[0]
        self.timed = [i for i, cmd in enumerate(self.round)
                      if cmd["kind"] in self.TIMED_KINDS]
        src = os.path.join(root, "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))

    def warm_up(self):
        self.launch(["transform", "--expr", "gaussian(1)", "--points", "512"])

    def launch(self, argv):
        return subprocess.run([sys.executable, "-m", "gstf.cli"] + argv,
                              cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=60)

    @staticmethod
    def kind(cmd):
        return cmd["kind"]

    @_guarded
    def run(self, op, cmd):
        proc = _timed(op, self.launch, cmd["argv"])
        op.report_bytes = len(proc.stdout)
        self.judge(op, cmd, proc.returncode, proc.stdout, proc.stderr)

    def judge(self, op, cmd, code, out, err):
        if code != cmd["exit"]:
            op.error = f"exit {code}, expected {cmd['exit']}: {err.strip()[-200:]}"
            return
        if "Traceback" in err:
            op.error = "traceback on stderr"
            return
        if code == 2:
            if "TrivialSpace" not in err:
                op.error = f"unexpected error: {err.strip()[-200:]}"
            return
        try:
            rep = json.loads(out)
            getattr(self, "_" + cmd["kind"].split("_")[0])(op, cmd, rep)
        except (ValueError, KeyError, TypeError) as e:
            op.error = f"bad report: {type(e).__name__}: {e}"

    @staticmethod
    def _samples(rep):
        s = np.array(rep["samples"], dtype=float)
        return s[:, 0], s[:, 1] + 1j * s[:, 2]

    def _transform(self, op, cmd, rep):
        xi, vals = self._samples(rep)
        ref = truth.transform(cmd["node"], xi)
        err = np.max(np.abs(vals - ref)) / np.max(np.abs(ref))
        if not err <= truth.CLOSED_FORM_GATE:
            op.error = f"transform deviates from the closed form by {err:.2e}"

    def _stft(self, op, cmd, rep):
        ref = 1.0 / math.sqrt(cmd["a"] + 1.0)  # |V| peak of two centred Gaussians
        err = abs(rep["max_abs"] - ref) / ref
        if not err <= truth.CLOSED_FORM_GATE:
            op.error = f"stft peak deviates from the closed form by {err:.2e}"

    def _witness(self, op, cmd, rep):
        x, vals = self._samples(rep)
        err = np.max(np.abs(vals - np.exp(-0.5 * x * x)))
        if rep["verdict"] != "Witness" or not err <= truth.CLOSED_FORM_GATE:
            op.error = f"witness is not gaussian(1): deviation {err:.2e}"

    def _toeplitz(self, op, cmd, rep):
        """Gated, but no input to accuracy_digits: on cli_cold that comes
        from the verify suites' fixed inputs alone."""
        if cmd["kind"] == "toeplitz_unit":
            name, value = "unit_symbol_reproduction", rep["reproduction_defect"]
        else:
            x, out = self._samples(rep)
            f = truth.values(cmd["node"], x)
            q = (x[1] - x[0]) * np.sum(out * np.conj(f))
            name, value = "positivity_defect", max(0.0, -float(q.real))
        if not value <= truth.GATES[name]:
            op.error = f"toeplitz {name} = {value:.3e} breaks its gate"

    def _classify(self, op, cmd, rep):
        _verdict(op, cmd["family"], cmd["class"], rep["verdict"])

    def _verify(self, op, cmd, rep):
        for check in rep["checks"]:
            if check["name"] in truth.GATES:
                _gate(op, check["name"], float(check["value"]))
            elif check["status"] != "pass" and op.error is None:
                op.error = f"verify check {check['name']} failed"
        if rep["verdict"] != "pass" and op.error is None:
            op.error = "verify suite failed"


def make(name: str, seed: int, root: str):
    if name == "cli_cold":
        return CliCold(seed, root)
    return {"phase_space": PhaseSpace, "classify_sweep": ClassifySweep}[name](seed)
