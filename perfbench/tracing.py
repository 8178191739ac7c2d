"""Span and count recorder for the traced run.

Functions are wrapped by module or class attribute, so calls a module makes
to its own functions are caught too; every other ncspectral module that
bound the same function with `from ... import` is patched as well.  Spans
(name, start, end, parent, op) stay in memory until the run writes them.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, attribute path, span name); the span name of cs_sums gets its q
SPANS = (
    ("ncspectral.lattice_zeta", "EpsteinEvaluator.value", "lattice_zeta.value"),
    ("ncspectral.lattice_zeta", "EpsteinEvaluator.residue",
     "lattice_zeta.residue"),
    ("ncspectral.lattice_zeta", "epstein_pole_fit", "lattice_zeta.pole_fit"),
    ("ncspectral.nc_torus", "load_potential", "nc_torus.load_potential"),
    ("ncspectral.nc_torus", "weyl_mul", "nc_torus.weyl_mul"),
    ("ncspectral.nc_torus", "curvature", "nc_torus.curvature"),
    ("ncspectral.nc_torus", "yang_mills", "nc_torus.yang_mills"),
    ("ncspectral.nc_torus", "cs_sums", "nc_torus.cs_sums"),
    ("ncspectral.nc_torus", "torus_action", "nc_torus.torus_action"),
    ("ncspectral.nc_torus", "zeta0_shift", "nc_torus.zeta0_shift"),
    ("ncspectral.suq2", "load_one_form", "suq2.load_one_form"),
    ("ncspectral.suq2", "one_form_from_pairs", "suq2.one_form_from_pairs"),
    ("ncspectral.suq2", "hopf_r", "suq2.hopf_r"),
    ("ncspectral.suq2", "nc_integral", "suq2.nc_integral"),
    ("ncspectral.suq2", "suq2_action", "suq2.suq2_action"),
    ("ncspectral.action_assembly", "cutoff_moments",
     "action_assembly.cutoff_moments"),
    ("ncspectral.action_assembly", "assemble", "action_assembly.assemble"),
)

# (module, attribute path, counter name, weight of one call); too frequent
# for spans, so only counted
COUNTS = (
    ("ncspectral.lattice_zeta", "radial_counts",
     "lattice_zeta.radial_counts.calls", None),
    ("mpmath", "gammainc", "lattice_zeta.gammainc.calls", None),
    ("ncspectral.nc_torus", "weyl_mul", "nc_torus.weyl_mul.term_pairs",
     lambda a, b, theta: len(a.coeffs) * len(b.coeffs)),
    ("ncspectral.suq2", "LadderElem.__matmul__",
     "suq2.LadderElem.matmul.word_pairs",
     lambda a, b: len(a.words) * len(b.words)),
    ("ncspectral.suq2", "leg_diag_coeff", "suq2.tau0.series_terms", None),
    ("scipy.integrate", "quad", "action_assembly.quad.calls", None),
)


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Recorder:
    """Wraps the layer functions while installed; restores them on exit."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._patches = []

    def span(self, name, fn, suffix=None):
        def traced(*args, **kwargs):
            label = name if suffix is None else f"{name}.{suffix(*args)}"
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (label, start, end, parent, self.op)
        return traced

    def counted(self, name, fn, weight=None):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1 if weight is None else weight(*args)
            return fn(*args, **kwargs)
        return counted

    def _tau0(self, fn):
        counts = self.counts

        def tau0(*args, **kwargs):
            before = counts["suq2.tau0.series_terms"]
            try:
                return fn(*args, **kwargs)
            finally:
                counts["suq2.tau0.calls"] += 1
                if counts["suq2.tau0.series_terms"] == before:
                    counts["suq2.tau0.hits"] += 1
        return tau0

    def _patch(self, module, path, make):
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        wrapped = make(original)
        targets = [(owner, attr)]
        if "." not in path:
            targets += [(mod, name) for mod_name, mod in list(sys.modules.items())
                        if mod_name.startswith("ncspectral") and mod is not owner
                        for name, value in list(vars(mod).items())
                        if value is original]
        for obj, name in targets:
            self._patches.append((obj, name, getattr(obj, name)))
            setattr(obj, name, wrapped)

    def __enter__(self):
        for module, path, name, weight in COUNTS:
            self._patch(module, path,
                        lambda f, n=name, w=weight: self.counted(n, f, w))
        self._patch("ncspectral.suq2", "tau0", self._tau0)
        for module, path, name in SPANS:
            suffix = (lambda A, theta, q: f"q{q}") if path == "cs_sums" else None
            self._patch(module, path,
                        lambda f, n=name, s=suffix: self.span(n, f, s))
        return self

    def __exit__(self, *exc):
        for obj, name, original in reversed(self._patches):
            setattr(obj, name, original)
        self._patches.clear()
        return False

    def self_times(self) -> list:
        """Per span: its duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
