"""Per-layer tracing from outside the package.

`Tracer.install` swaps chaosimg's public functions for timing wrappers in
every chaosimg module namespace that holds them (and on `CipherEnvelope`
for its methods), so calls made through `from .x import y` bindings are
seen too. `uninstall` restores the originals. Nothing in the package is
edited; a target that a later refactor removes is listed as absent.

A span is `[name, parent index, start, end, bookkeeping, op]`; bookkeeping
is the time a counter spent after the call, kept out of the parent's self
time, and spans of one benchmark operation share `op`. Self time is a
span's duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

# span name -> (module, attribute path); several attributes may share a span
TARGETS = [
    ("maps.generate_sequence", "maps", "generate_sequence"),
    ("maps.permutation_from_sequence", "maps", "permutation_from_sequence"),
    ("maps.quantize_to_bytes", "maps", "quantize_to_bytes"),
    ("cipher.build_key_schedule", "cipher", "build_key_schedule"),
    ("cipher.permute", "cipher", "permute"),
    ("cipher.inverse_permute", "cipher", "inverse_permute"),
    ("cipher.diffuse_xor", "cipher", "diffuse_xor"),
    ("cipher.encrypt", "cipher", "encrypt"),
    ("cipher.decrypt", "cipher", "decrypt"),
    ("cipher.envelope.to_bytes", "cipher", "CipherEnvelope.to_bytes"),
    ("cipher.envelope.from_bytes", "cipher", "CipherEnvelope.from_bytes"),
    ("netpbm.read_image", "netpbm", "read_image"),
    ("netpbm.write_image", "netpbm", "write_image"),
    ("keyfile.load_key_file", "keyfile", "load_key_file"),
    ("cli.main", "cli", "main"),
    ("analysis.bifurcation_sweep", "analysis", "bifurcation_sweep"),
    ("analysis.lyapunov_exponent", "analysis", "lyapunov_exponent"),
    ("analysis.phase_points", "analysis", "phase_points"),
    ("analysis.write_csv", "analysis", "write_bifurcation_csv"),
    ("analysis.write_csv", "analysis", "write_phase_csv"),
    ("analysis.write_csv", "analysis", "write_lyapunov_csv"),
    ("analysis.write_csv", "analysis", "write_histogram_csv"),
    ("analysis.quality", "analysis", "mse"),
    ("analysis.quality", "analysis", "psnr"),
    ("analysis.quality", "analysis", "histogram"),
    ("analysis.quality", "analysis", "chi_square_uniformity"),
    ("analysis.quality", "analysis", "adjacent_correlation"),
    ("analysis.quality", "analysis", "quality_report"),
]


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        # per-op registry of generated sequence buffers and the parts read
        self._buffers: set[int] = set()
        self._reads: set[tuple[int, int, int]] = set()
        self._keep: list = []  # keeps registered buffers alive, so ids stay unique
        self.op = 0
        self.root_s = 0.0  # time covered by spans that no other span encloses

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        for mod_name in {mod_name for _, mod_name, _ in TARGETS}:
            try:
                importlib.import_module(f"chaosimg.{mod_name}")
            except ImportError:
                pass
        modules = [m for n, m in list(sys.modules.items())
                   if n == "chaosimg" or n.startswith("chaosimg.")]
        for span, mod_name, path in TARGETS:
            owner = sys.modules.get(f"chaosimg.{mod_name}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(f"{mod_name}.{path}")
                continue
            count = getattr(self, "_count_" + span.replace(".", "_"), None)
            if cls_path:
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(span, raw.__func__, count))
                else:
                    new = self._wrap(span, raw, count)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            new = self._wrap(span, raw, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._patches.append((module, key, raw))
                        setattr(module, key, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                span[3] = clock()
                stack.pop()
                if span[1] < 0:
                    self.root_s += span[3] - span[2]
            if count is not None:
                count(args, kwargs, result, span[1])
                span[4] = clock() - span[3]
            return result

        return wrapper

    # -- counters (run after the call, outside its span) -----------------

    def _mark_read(self, arr) -> None:
        arr = np.asarray(arr)
        base = arr.base if arr.base is not None else arr
        if id(base) in self._buffers:
            start = (arr.__array_interface__["data"][0]
                     - base.__array_interface__["data"][0]) // arr.itemsize
            self._reads.add((id(base), start, start + arr.size))

    def _count_maps_generate_sequence(self, args, kwargs, seq, parent):
        params = _arg(args, kwargs, 0, "params")
        iterates = params.transient + len(seq)
        self.counts["maps.iterates"] += iterates
        self.counts["maps.values_computed"] += 2 * iterates
        caller = self.spans[parent][0] if parent >= 0 else ""
        if caller == "analysis.phase_points":
            self.counts["maps.values_read"] += 2 * len(seq)
        elif caller == "analysis.bifurcation_sweep":
            self.counts["maps.values_read"] += len(seq)
        else:
            self._buffers.update((id(seq.xs), id(seq.ys)))
            self._keep.append(seq)

    def _count_maps_permutation_from_sequence(self, args, kwargs, perm, parent):
        values = np.asarray(_arg(args, kwargs, 0, "values"))
        ordered = values[perm]
        self.counts["maps.argsort_values"] += values.size
        self.counts["maps.argsort_ties"] += int(np.count_nonzero(ordered[1:] == ordered[:-1]))
        self._mark_read(values)

    def _count_maps_quantize_to_bytes(self, args, kwargs, out, parent):
        self._mark_read(_arg(args, kwargs, 0, "values"))

    def _count_cli_main(self, args, kwargs, rc, parent):
        if rc != 0:
            self.counts["cli.main.failures"] += 1

    def _count_analysis_bifurcation_sweep(self, args, kwargs, points, parent):
        rows = points[0] if isinstance(points, tuple) else points
        self.counts["analysis.bifurcation_sweep.rows"] += len(rows)

    def _count_analysis_lyapunov_exponent(self, args, kwargs, lam, parent):
        params = _arg(args, kwargs, 0, "params")
        self.counts["analysis.lyapunov_exponent.steps"] += (
            _arg(args, kwargs, 1, "steps") + params.transient)

    def _count_analysis_write_csv(self, args, kwargs, result, parent):
        path = _arg(args, kwargs, 0, "path")
        with open(path, "rb") as fh:
            self.counts["analysis.write_csv.rows"] += fh.read().count(b"\n") - 1
        self.counts["analysis.write_csv.bytes"] += os.path.getsize(path)

    def end_op(self) -> None:
        """Fold this op's reads of generated sequences into the counters."""
        by_buffer = defaultdict(list)
        for buf, start, stop in self._reads:
            by_buffer[buf].append((start, stop))
        for intervals in by_buffer.values():
            end = 0
            for start, stop in sorted(intervals):
                self.counts["maps.values_read"] += max(0, stop - max(start, end))
                end = max(end, stop)
        self._buffers.clear()
        self._reads.clear()
        self._keep.clear()
        self.op += 1

    # -- results ---------------------------------------------------------

    def layers(self) -> dict[str, dict[str, float]]:
        """calls and self_s per span name."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, book, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0 + book
        out: dict[str, dict[str, float]] = {}
        for i, (name, parent, t0, t1, book, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += t1 - t0 - child[i]
        return out
