"""In-memory span tracer and the instrumentation of the ublr layers.

Spans are recorded from outside the package: the oracle handle passed to
``compress`` is wrapped, and public functions are rebound in the modules
that call them. ``from .linalg import null_basis`` binds a copy into each
importing module, so every such binding is patched one by one. Nothing in
``src/`` is edited, and ``instrument`` restores every binding on exit.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import ublr.bases
import ublr.reconstruction
import ublr.tagging
from ublr.reconstruction import UniformBLR


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None  # index into Tracer.spans
    case: str | None = None  # method id, or None outside a method
    cols: int = 0  # oracle columns, for operator spans

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    case: str | None = None
    _stack: list = field(default_factory=list)

    @contextmanager
    def span(self, name: str, cols: int = 0):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent=parent, case=self.case, cols=cols)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for idx, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(idx)
    out = []
    for idx, s in enumerate(spans):
        covered, cursor = 0.0, s.start
        for c in sorted(children[idx], key=lambda c: spans[c].start):
            lo = max(spans[c].start, cursor)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


def ancestors(spans: list, idx: int):
    """Names of the strict ancestors of span idx, nearest first."""
    parent = spans[idx].parent
    while parent is not None:
        yield spans[parent].name
        parent = spans[parent].parent


class TracedOperator:
    """Oracle handle that records one span per apply / apply_adjoint call."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    @property
    def shape(self):
        return self.inner.shape

    def _cols(self, X) -> int:
        return X.shape[1] if X.ndim == 2 else 1

    def apply(self, X):
        with self.tracer.span("operators.apply", cols=self._cols(X)):
            return self.inner.apply(X)

    def apply_adjoint(self, X):
        with self.tracer.span("operators.apply_adjoint", cols=self._cols(X)):
            return self.inner.apply_adjoint(X)


# (module, attribute) -> span name. The step functions are looked up as
# globals of ublr.reconstruction at call time, so rebinding them there is
# enough; the linalg kernels are patched in each module that imported them.
PATCHES = [
    (ublr.reconstruction, "plan_tagging", "tagging.plan"),
    (ublr.reconstruction, "b2_denominators_ok", "reconstruction.b2_check"),
    (ublr.reconstruction, "block_nullification_bases", "bases.step1"),
    (ublr.reconstruction, "tagging_bases", "bases.step1"),
    (ublr.reconstruction, "naive_bases", "bases.step1"),
    (ublr.reconstruction, "direct_core", "reconstruction.direct_core"),
    (ublr.reconstruction, "pinv_core", "reconstruction.pinv_core"),
    (ublr.reconstruction, "color_boxes", "tessellation.color"),
    (ublr.reconstruction, "structured_identity_discrepancy", "reconstruction.identity_probe"),
    (ublr.reconstruction, "gaussian_pinv_discrepancy", "reconstruction.gaussian_pinv"),
    (ublr.reconstruction, "tagging_pinv_discrepancy", "reconstruction.tagging_pinv"),
    (ublr.reconstruction, "estimate_spectral_norm", "linalg.norm_est"),
    (ublr.reconstruction, "null_basis", "linalg.null_basis"),
    (ublr.reconstruction, "pseudo_inverse", "linalg.pseudo_inverse"),
    (ublr.reconstruction, "gaussian", "linalg.gaussian"),
    (ublr.bases, "null_basis", "linalg.null_basis"),
    (ublr.bases, "col_basis", "linalg.col_basis"),
    (ublr.bases, "gaussian", "linalg.gaussian"),
    (ublr.tagging, "null_basis", "linalg.null_basis"),
    (ublr.tagging, "gaussian", "linalg.gaussian"),
    (UniformBLR, "apply", "reconstruction.rep_apply"),
    (UniformBLR, "apply_adjoint", "reconstruction.rep_apply"),
]


@contextmanager
def instrument(tracer: Tracer):
    """Rebind every PATCHES entry to a span-recording wrapper, then restore."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in PATCHES]
    try:
        for (owner, attr, name), (_, _, original) in zip(PATCHES, saved):
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
