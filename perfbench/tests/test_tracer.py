import numpy as np
import pytest

from tracer import Tracer, geometry_key


class FakeClock:
    """Advances only when told, so span times are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def test_self_time_excludes_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.work(1.0)

    def middle():
        clock.work(2.0)
        tracer.call("leaf", leaf)
        tracer.call("leaf", leaf)
        clock.work(0.5)

    def top():
        clock.work(3.0)
        tracer.call("middle", middle)

    tracer.call("top", top)
    assert tracer.spans[("top", None)] == [1, 3.0, 7.5]
    assert tracer.spans[("middle", "top")] == [1, 2.5, 4.5]
    assert tracer.spans[("leaf", "middle")] == [2, 2.0, 2.0]
    # self times add up to the top-level duration
    assert sum(rec[1] for rec in tracer.spans.values()) == 7.5


def test_spans_aggregate_per_name_and_parent():
    clock = FakeClock()
    tracer = Tracer(clock)
    leaf = tracer.wrap("leaf", lambda: clock.work(1.0))
    tracer.call("a", leaf)
    tracer.call("b", lambda: (leaf(), leaf()))
    leaf()
    assert tracer.spans[("leaf", "a")][0] == 1
    assert tracer.spans[("leaf", "b")][0] == 2
    assert tracer.spans[("leaf", None)][0] == 1
    assert tracer.calls("leaf") == 4
    assert tracer.self_s("leaf") == 4.0
    assert tracer.self_s("b") == 0.0


def test_a_raising_span_is_closed_and_counted():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.work(1.0)
        raise ValueError("x")

    def outer():
        with pytest.raises(ValueError):
            tracer.call("boom", boom)
        clock.work(1.0)

    tracer.call("outer", outer)
    assert tracer.spans[("boom", "outer")] == [1, 1.0, 1.0]
    assert tracer.spans[("outer", None)] == [1, 1.0, 2.0]


def test_geometry_key():
    assert geometry_key("hyperbolic(2,1)") == "hyperbolic2"
    assert geometry_key("spd(20)") == "spd20"
    assert geometry_key("dikin(3)") == "dikin3"


def test_install_counts_calls_and_uninstall_restores():
    import numpy.linalg

    from hadamard_dc import SPDManifold, make_rng
    from hadamard_dc.geometry import spd

    before = (SPDManifold.dist, numpy.linalg.eigh, spd.dgejsv)
    assert "norm" not in vars(SPDManifold)
    m = SPDManifold(3)
    rng = make_rng(0)
    p, q = m.random_point(rng), m.random_point(rng)
    tracer = Tracer()
    tracer.install()
    try:
        d = m.dist(p, q)
    finally:
        tracer.uninstall()
    assert (SPDManifold.dist, numpy.linalg.eigh, spd.dgejsv) == before
    assert d == m.dist(p, q)
    assert tracer.calls("geometry.spd3.dist") == 1
    assert tracer.spans[("geometry.spd3.check_point",
                         "geometry.spd3.dist")][0] == 2
    assert tracer.calls("lapack.eigvalsh") == 1
    assert tracer.calls("lapack.eigh") >= 1
    assert np.isfinite(tracer.self_s("geometry.spd3.dist"))
