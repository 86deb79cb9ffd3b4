"""Run-time span recording around the public functions of splitinv.

`Tracer.install` replaces each target with a wrapper that records a span
(name, start, end, parent span) and adds its call to per-name totals; the
span time minus the time of its child spans is the self time.  The
wrappers are placed wherever the original object is bound, in every
loaded `splitinv` module, in the benchmark's own modules and on the owning
class, so calls between the library's own modules are seen too.
`uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from typing import Dict, List, Tuple

import splitinv.cli as cli
import splitinv.coeffs as coeffs
import splitinv.factors as factors
import splitinv.matoracle as matoracle
import splitinv.rootdata as rootdata
import splitinv.splitting as splitting
import splitinv.tits as tits

HERE = os.path.dirname(os.path.abspath(__file__))

# layer name -> (owner, attribute); methods and properties sit on a class
TARGETS: Tuple[Tuple[str, object, str], ...] = (
    ("rootdata.weyl_mul", rootdata.WeylElement, "__mul__"),
    ("rootdata.weyl_word", rootdata.WeylElement, "word"),
    ("rootdata.act_weyl", rootdata.PinnedAutomorphism, "act_weyl"),
    ("rootdata.weyl_group", rootdata.RootDatum, "weyl_group"),
    ("rootdata.restrict", rootdata, "restrict_root_system"),
    ("rootdata.levi", rootdata, "levi_component"),
    ("tits.mul", tits.TitsElement, "__mul__"),
    ("tits.inverse", tits.TitsElement, "inverse"),
    ("tits.cocycle", tits, "tits_cocycle"),
    ("tits.m_cocycle", tits, "m_cocycle"),
    ("matoracle.mat_mul", matoracle, "mat_mul"),
    ("matoracle.mat_inv", matoracle, "mat_inv"),
    ("matoracle.realize", matoracle, "realize"),
    ("matoracle.fixed_group_lift", matoracle, "fixed_group_lift"),
    ("coeffs.quad_mul", coeffs.QuadNum, "__mul__"),
    ("coeffs.padic_place", coeffs.LocalPlace, "padic"),
    ("coeffs.hilbert", coeffs, "hilbert_symbol"),
    ("coeffs.norm_sign", coeffs, "quad_norm_sign"),
    ("splitting.sample_h", splitting, "sample_h_twisted"),
    ("splitting.realization", splitting.Realization, "__init__"),
    ("splitting.quad_adata", splitting, "equivariant_quad_adata"),
    ("splitting.compare", splitting, "compare_fixed_vs_twisted"),
    ("splitting.lambda", splitting, "lambda_twisted"),
    ("splitting.lambda", splitting, "lambda_untwisted"),
    ("factors.galois_orbits", factors, "restricted_galois_orbits"),
    ("factors.delta_i_ratio", factors, "delta_i_ratio"),
    ("factors.change_sign", factors, "adata_change_sign"),
    ("factors.chi_check", factors, "chi_invariance_check"),
    ("cli.main", cli, "main"),
)

# the reported per-layer metrics: layer name and the quantities kept for it
REPORTED: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("rootdata.weyl_mul", ("calls", "self_s")),
    ("rootdata.weyl_word", ("calls", "self_s")),
    ("rootdata.act_weyl", ("calls", "self_s")),
    ("rootdata.weyl_group", ("self_s",)),
    ("rootdata.restrict", ("calls", "self_s")),
    ("rootdata.levi", ("self_s",)),
    ("tits.mul", ("calls", "self_s")),
    ("tits.inverse", ("calls", "self_s")),
    ("tits.cocycle", ("calls", "self_s")),
    ("tits.m_cocycle", ("calls", "self_s")),
    ("matoracle.mat_mul", ("calls", "self_s")),
    ("matoracle.mat_inv", ("calls", "self_s")),
    ("matoracle.realize", ("calls", "self_s")),
    ("matoracle.fixed_group_lift", ("self_s",)),
    ("coeffs.quad_mul", ("calls", "self_s")),
    ("coeffs.padic_place", ("calls", "self_s")),
    ("coeffs.hilbert", ("calls", "self_s")),
    ("coeffs.norm_sign", ("self_s",)),
    ("splitting.sample_h", ("self_s",)),
    ("splitting.realization", ("self_s",)),
    ("splitting.quad_adata", ("self_s",)),
    ("splitting.compare", ("self_s",)),
    ("splitting.lambda", ("self_s",)),
    ("factors.galois_orbits", ("self_s",)),
    ("factors.delta_i_ratio", ("self_s",)),
    ("factors.change_sign", ("self_s",)),
    ("factors.chi_check", ("self_s",)),
    ("cli.main", ("self_s",)),
)

OVERHEAD_METRIC = "trace.overhead_pct"


def _is_ours(module) -> bool:
    path = getattr(module, "__file__", None)
    return bool(path) and os.path.dirname(os.path.abspath(path)) == HERE


class Tracer:
    """Per-layer call counts and self times, plus the first `max_spans`
    spans with their parent links."""

    def __init__(self, max_spans: int = 20000):
        self.totals: Dict[str, List[float]] = {}   # name -> [calls, self seconds]
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.dropped = 0
        self.max_spans = max_spans
        self._stack: List[List[float]] = []        # [child seconds, span id]
        self._next_id = 1
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        totals = self.totals.setdefault(name, [0, 0.0])
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                totals[0] += 1
                totals[1] += dur - frame[0]
                parent = 0
                if stack:
                    stack[-1][0] += dur
                    parent = stack[-1][1]
                if len(self.spans) < self.max_spans:
                    self.spans.append((span_id, parent, name, t0, t1))
                else:
                    self.dropped += 1
        return wrapper

    def call(self, name: str, fn):
        """Run fn() as a span of its own (the benchmark's operation spans)."""
        return self._wrap(name, fn)()

    # -- installation ----------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        # splitinv's modules, and the benchmark's own, which import some
        # functions by name
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "splitinv" or n.startswith("splitinv.") or _is_ours(m)]
        for name, owner, attr in TARGETS:
            if isinstance(owner, type):
                orig = owner.__dict__[attr]
                if isinstance(orig, property):
                    new = property(self._wrap(name, orig.fget))
                elif isinstance(orig, staticmethod):
                    new = staticmethod(self._wrap(name, orig.__func__))
                else:
                    new = self._wrap(name, orig)
                # aliases such as __rmul__ = __mul__ share the original object
                for alias, value in list(owner.__dict__.items()):
                    if value is orig:
                        self._set(owner, alias, new)
            else:
                orig = getattr(owner, attr)
                new = self._wrap(name, orig)
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, alias, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results -----------------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for layer, qs in REPORTED:
            calls, self_s = self.totals.get(layer, (0, 0.0))
            for q in qs:
                out[f"{layer}.{q}"] = int(calls) if q == "calls" else self_s
        return out

    def dump(self) -> dict:
        return {
            "totals": {k: {"calls": int(v[0]), "self_s": v[1]}
                       for k, v in sorted(self.totals.items())},
            "spans_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
        }
