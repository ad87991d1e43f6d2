import numpy as np
import ublr.bases
import ublr.reconstruction
from tracer import PATCHES, Span, TracedOperator, Tracer, ancestors, instrument, self_times
from ublr import DenseOperator, RandomStream


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 5.0, parent=0),  # overlaps a: [1, 5] is covered once
        Span("c", 9.0, 12.0, parent=0),  # runs past its parent: only [9, 10] counts
        Span("a.child", 1.5, 2.5, parent=1),  # a grandchild does not count for root
    ]
    assert self_times(spans) == [5.0, 1.0, 3.0, 3.0, 1.0]
    assert list(ancestors(spans, 4)) == ["a", "root"]
    assert list(ancestors(spans, 0)) == []


def test_spans_nest_and_carry_the_case():
    tracer = Tracer()
    tracer.case = "A2"
    with tracer.span("outer"):
        with tracer.span("inner", cols=7):
            pass
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent is None
    assert inner.case == outer.case == "A2" and inner.cols == 7
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_instrument_wraps_every_binding_and_restores_it():
    before = [getattr(owner, attr) for owner, attr, _ in PATCHES]
    tracer = Tracer()
    with instrument(tracer):
        assert ublr.reconstruction.null_basis is not ublr.linalg.null_basis
        z = ublr.bases.null_basis(np.ones((1, 3)), 2)
    assert [getattr(owner, attr) for owner, attr, _ in PATCHES] == before
    assert [s.name for s in tracer.spans] == ["linalg.null_basis"]
    assert np.allclose(np.ones((1, 3)) @ z, 0.0)


def test_traced_operator_counts_columns():
    tracer = Tracer()
    op = TracedOperator(DenseOperator(np.eye(4)), tracer)
    X = RandomStream(0).normal(4, 3)
    assert np.array_equal(op.apply(X), X)
    op.apply_adjoint(X[:, 0])
    assert [(s.name, s.cols) for s in tracer.spans] == [
        ("operators.apply", 3), ("operators.apply_adjoint", 1),
    ]
