"""Outside-in tracer for the entrocap layers.

The tracer changes no code under ``src/``.  While installed it replaces every
public function of the layer modules with a wrapper that records a span, at
*every* ``entrocap.*`` module attribute bound to that function: the modules
import each other's names with ``from .x import y``, so patching only the
defining module would miss most internal calls.  It also wraps
``numpy.linalg.eigh`` and ``numpy.linalg.eigvalsh``, the spectral kernel
every layer ends in.

A span records its name, start, end and the id of the span that was open
when it started.  Spans stay in memory until :meth:`Tracer.reset`;
:meth:`Tracer.aggregate` turns them into per-layer counts and times and
:meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("linalg", "channels", "entropy", "capacity", "gaussian", "specfile", "cli")

# short span names for the functions the benchmark reports on by name
ALIASES = {
    "capacity.mutual_information_value": "capacity.mi_value",
    "capacity.feasible_linear_max": "capacity.oracle",
    "capacity.cea_capacity": "capacity.cea",
    "capacity.chi_capacity": "capacity.chi",
}

EIG_SPAN = "linalg.np_eig"
ORACLE_SPAN = "capacity.oracle"
HERMITIAN_EIG_SPAN = "linalg.hermitian_eig"
# spans whose return value carries an optimizer iteration count
ITERATION_SPANS = ("capacity.cea", "capacity.chi")
SMALL_EIG_DIM = 4


class Tracer:
    """Span recorder; install() patches the program, uninstall() restores it."""

    def __init__(self):
        self._patches: list = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self):
        """Drop all recorded spans (the patches stay in place)."""
        self.names: list[str] = []
        self.layers: list = []  # owning layer, None for numpy's eigensolvers
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.outermost_call: list[bool] = []  # no span of this name is open
        self.outermost_layer: list[bool] = []  # no span of this layer is open
        self.eig_shapes: list[tuple[int, int]] = []  # (batch, d) per eigensolver call
        self.iterations: Counter = Counter()
        self._stack: list[int] = []
        self._open_names: Counter = Counter()
        self._open_layers: Counter = Counter()

    def _open(self, name: str, layer) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.outermost_call.append(self._open_names[name] == 0)
        self.outermost_layer.append(layer is not None and self._open_layers[layer] == 0)
        self._open_names[name] += 1
        if layer is not None:
            self._open_layers[layer] += 1
        self._stack.append(idx)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int, name: str, layer):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        self._open_names[name] -= 1
        if layer is not None:
            self._open_layers[layer] -= 1

    def _wrap(self, name: str, layer: str, fn):
        count_iterations = name in ITERATION_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, layer)
            if count_iterations:
                self.iterations[name] += int(result.iterations)
            return result

        return traced

    def _wrap_eig(self, fn):
        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            shape = np.shape(a)
            d = int(shape[-1]) if shape else 0
            batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
            self.eig_shapes.append((batch, d))
            idx = self._open(EIG_SPAN, None)
            try:
                return fn(a, *args, **kwargs)
            finally:
                self._close(idx, EIG_SPAN, None)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every public layer function wherever an entrocap module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"entrocap.{layer}")
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = ALIASES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                wrappers[fn] = self._wrap(name, layer, fn)
        owners = [m for n, m in list(sys.modules.items()) if n == "entrocap" or n.startswith("entrocap.")]
        for mod in owners:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(mod, attr, wrappers[val])
        for attr in ("eigh", "eigvalsh"):
            self._patch(np.linalg, attr, self._wrap_eig(getattr(np.linalg, attr)))

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        """Restore every patched attribute to the original function."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def aggregate(self) -> dict:
        """Counts and times of the recorded spans.

        ``calls[name]`` counts spans; ``seconds[name]`` sums the spans of a
        name that no span of the same name encloses; ``layer_seconds`` does
        the same per layer; ``layer_self_seconds`` sums, per layer, span time
        minus the time covered by direct child spans.  Spans of numpy's
        eigensolvers belong to no layer: they are children, never self time.
        """
        n = len(self.names)
        covered = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                covered[p] += self.ends[i] - self.starts[i]
        calls: Counter = Counter()
        seconds: Counter = Counter()
        layer_seconds: Counter = Counter()
        layer_self: Counter = Counter()
        oracle_eigs = 0
        for i in range(n):
            name, layer = self.names[i], self.layers[i]
            dur = self.ends[i] - self.starts[i]
            calls[name] += 1
            if self.outermost_call[i]:
                seconds[name] += dur
            if layer is not None:
                layer_self[layer] += dur - covered[i]
                if self.outermost_layer[i]:
                    layer_seconds[layer] += dur
            if name == HERMITIAN_EIG_SPAN and self._inside(i, ORACLE_SPAN):
                oracle_eigs += 1
        eig_calls = len(self.eig_shapes)
        return {
            "calls": calls,
            "seconds": seconds,
            "layer_seconds": layer_seconds,
            "layer_self_seconds": layer_self,
            "oracle_eigs": oracle_eigs,
            "eig_d3_sum": sum(b * d**3 for b, d in self.eig_shapes),
            "eig_small_frac": (
                sum(1 for _, d in self.eig_shapes if d <= SMALL_EIG_DIM) / eig_calls
                if eig_calls
                else 0.0
            ),
            "iterations": Counter(self.iterations),
        }

    def _inside(self, i: int, name: str) -> bool:
        p = self.parents[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def dump(self, path: str):
        """Write the recorded spans as gzipped JSON lines: name, start, end, parent."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i in range(len(self.names)):
                rec = [self.names[i], self.starts[i] - t0, self.ends[i] - t0, self.parents[i]]
                fh.write(json.dumps(rec) + "\n")
