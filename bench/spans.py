"""Span recorder that times the benchmark's calls into gstf from outside.

``Tracer.instrument`` replaces each public function listed in TRACED with
a wrapper, in every loaded gstf module that holds a reference to it, so
calls the library makes to itself (``classify_function`` calling ``dft``,
``apply_toeplitz`` calling ``stft``) become nested spans too.  ``restore``
puts the originals back.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

TRACED = {
    "parse": ("parse_function_expr",),
    "catalog": ("catalog_eval",),
    "transforms": ("dft", "idft", "stft", "adjoint_stft",
                   "twisted_convolution_defect"),
    "classify": ("classify_function", "classify_stft", "dual_growth_report"),
    "toeplitz": ("apply_toeplitz", "stft_product_transform_defect"),
    "witnesses": ("make_witness", "boundary_triviality_demo"),
    "cli": ("run_command",),
}
LAYERS = tuple(f"{m}.{f}" for m, names in TRACED.items() for f in names)


class Tracer:
    def __init__(self):
        # one span: [name, start, end, parent index, op id, failed]
        self.spans = []
        self._stack = []
        self.op_id = None
        self._originals = {}  # (module, attribute) -> original function
        self.stft_calls = 0
        self.stft_repeats = 0
        self.stft_macs = 0
        self.stft_kernel_bytes = 0
        self._stft_seen = set()

    # ---------------------------------------------------------- spans
    def begin(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.op_id, False])
        self._stack.append(i)
        return i

    def end(self, i: int, failed: bool = False):
        span = self.spans[i]
        span[2] = time.perf_counter()
        span[5] = failed
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        i = self.begin(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self.end(i, failed=True)
            raise
        self.end(i)
        return out

    # ---------------------------------------------------- instrumenting
    def instrument(self):
        """Wrap every TRACED function wherever a gstf module refers to it."""
        wrappers = {}
        for mod, names in TRACED.items():
            module = importlib.import_module(f"gstf.{mod}")
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = self._wrap(f"{mod}.{fname}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "gstf" and not modname.startswith("gstf."):
                continue
            for attr, val in list(vars(module).items()):
                if id(val) in wrappers and callable(val):
                    self._originals[(module, attr)] = val
                    setattr(module, attr, wrappers[id(val)])

    def restore(self):
        for (module, attr), fn in self._originals.items():
            setattr(module, attr, fn)
        self._originals.clear()

    def _wrap(self, name, fn):
        note = self._note_stft if name == "transforms.stft" else None

        def traced(*args, **kwargs):
            if note is not None:
                note(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)

        return traced

    def _note_stft(self, f, window, tfgrid):
        """Work counts computed from array shapes, and plan-reuse potential."""
        nt, nx, nxi = f.grid.count, tfgrid.xgrid.count, tfgrid.xigrid.count
        self.stft_calls += 1
        self.stft_macs += nt * nx * nxi
        self.stft_kernel_bytes += nt * nxi * 16
        key = (f.grid, tfgrid, hash(window.values.tobytes()))
        self.stft_repeats += key in self._stft_seen
        self._stft_seen.add(key)

    def forget_plans(self):
        """Start a fresh process's view: nothing seen can be reused."""
        self._stft_seen.clear()

    # -------------------------------------------------------- analysis
    def layer_totals(self) -> dict:
        """name -> [calls, self seconds, failed]; self time is the span's
        duration minus the duration of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _, failed) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0])
            row[0] += 1
            row[1] += (end - start) - child[i]
            row[2] += failed
        return out

    def write(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, failed) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start_us": round((start - t0) * 1e6, 1),
                    "end_us": round((end - t0) * 1e6, 1), "parent": parent,
                    "op": op, "failed": failed}) + "\n")
