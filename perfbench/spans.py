"""Spans around the public calls of each convmp module, recorded from outside
the program by patching module attributes.

The modules bind names with `from .x import y`, so a function is reachable
under several module attributes (conv_mp_encode lives in conv_mp and is
bound again in dict_learn, cli and the package). Every binding is patched,
otherwise calls through the missed one go uncounted. Spans opened on a
thread with no open span of its own (encode_all's pool threads) become
children of the innermost span open on the main thread. A span's self time
is its duration minus the union of its children's intervals, so two pool
threads running under one encode_all are not subtracted twice.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import threading
import time
from collections import defaultdict

# Layer functions traced, by module. Validation helpers (core.as_image,
# core.as_bank, ...) are deliberately not wrapped: their cost stays in the
# self time of the caller, which is where a validate-once change shows.
# patch_mp is a test oracle on no user path and is not traced.
LAYERS = {
    "cli": ("main",),
    "conv_mp": ("conv_mp_encode", "correlate", "build_shift_gram", "greedy_steps"),
    "core": ("reconstruct", "residual_energy"),
    "dict_learn": (
        "train", "init_filters", "encode_all", "collect_activated_patches",
        "pca_top_component", "update_filter",
    ),
    "pipeline": ("run_two_layer", "code_to_feature_maps", "abs_rectify", "avg_pool", "write_stats"),
    "preprocess": ("to_grayscale", "resize", "contrast_normalize"),
    "model_io": (
        "load_bank", "save_bank", "load_float_image", "save_float_image", "load_image",
        "save_image", "load_code", "save_code", "render_filter_grid", "list_images",
        "list_float_images",
    ),
}


# One counter per function, taken at its boundary from the call's arguments
# and result: (counter name, function of (args, result)).
HOOKS = {
    "conv_mp.greedy_steps": ("steps", lambda a, r: len(r)),
    "conv_mp.conv_mp_encode": ("activations", lambda a, r: len(r)),
    # one multiply and one add per (output sample, filter tap); computed, not counted
    "conv_mp.correlate": ("flop_computed", lambda a, r: 2 * r.size * math.prod(a[0].shape[1:])),
    "conv_mp.build_shift_gram": ("filters", lambda a, r: r.shape[0]),
    "dict_learn.pca_top_component": ("rows", lambda a, r: len(a[0])),
    "dict_learn.update_filter": ("reinits", lambda a, r: int(bool(r))),
    **{
        f"model_io.{fn}": ("bytes_read", lambda a, r: os.path.getsize(a[0]))
        for fn in ("load_bank", "load_float_image", "load_image", "load_code")
    },
    **{
        f"model_io.{fn}": ("bytes_written", lambda a, r: os.path.getsize(a[1]))
        for fn in ("save_bank", "save_float_image", "save_image", "save_code")
    },
}


class Tracer:
    """Patch every binding of the LAYERS functions; collect spans per op."""

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = None
        self._lock = threading.Lock()
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counters: dict[str, int] = defaultdict(int)

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        counter, measure = HOOKS.get(name, (None, None))

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1))
            if counter is not None:
                value = measure(args, result)
                with self._lock:
                    self.counters[name] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        self._main_thread = threading.current_thread()
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "convmp" or n.startswith("convmp."))
        ]
        for module_name, functions in LAYERS.items():
            home = sys.modules[f"convmp.{module_name}"]
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{module_name}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def bindings(self) -> dict[str, list[str]]:
        """Where each traced function was found bound (module.attr list)."""
        out: dict[str, list[str]] = defaultdict(list)
        for module, attr, original in self._patched:
            out[f"{original.__module__.rsplit('.', 1)[-1]}.{original.__name__}"].append(
                f"{module.__name__}.{attr}"
            )
        return dict(out)

    def collect(self) -> dict[str, dict[str, float]]:
        """Per function: calls, self_s, total_s and hook counters; then reset."""
        spans, self.spans = self.spans, []
        counters, self.counters = self.counters, defaultdict(int)
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, t0, t1 in spans:
            if parent is not None:
                children[parent].append((t0, t1))
        out: dict[str, dict[str, float]] = {}
        for module, functions in LAYERS.items():
            for fname in functions:
                name = f"{module}.{fname}"
                out[name] = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
                if name in HOOKS:
                    out[name][HOOKS[name][0]] = counters.get(name, 0)
        for sid, _, name, t0, t1 in spans:
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += t1 - t0
            entry["self_s"] += (t1 - t0) - _union_within(children.get(sid, ()), t0, t1)
        return out


def _union_within(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    covered = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            covered += b - a
            end = b
    return covered
