"""Table builds make no cyclic garbage, so the collector can stay off.

The paper's two table builders run with CPython's cyclic collector
paused (:func:`repro.perf.collector_paused`): a build allocates a few
hundred thousand long-lived objects, and a running collector re-walks
the growing table again and again.  That is only sound while the build
leaves nothing for the collector to free -- what it drops must go by
reference counting alone.  These tests check that premise, and that
the pause puts the collector back the way it found it.
"""

from __future__ import annotations

import gc

import pytest

from repro.perf import collector_paused
from repro.routing import itb as itb_module
from repro.routing import simple_routes as simple_routes_module
from repro.routing.itb import build_itb_routes
from repro.routing.minimal import enumerate_minimal_path_links
from repro.routing.schemes import make_tables, supported_schemes
from repro.routing.simple_routes import compute_simple_routes
from repro.routing.updown import enumerate_legal_paths, orient_links
from repro.topology import build


@pytest.fixture(scope="module")
def torus():
    return build("torus")


@pytest.fixture(scope="module")
def mesh():
    return build("mesh", rows=8, cols=8)


def _cyclic_garbage(fn) -> int:
    """Objects only the cyclic collector could free after ``fn()``,
    run with the collector off (its result is kept alive)."""
    with collector_paused():
        gc.collect()
        result = fn()
        found = gc.collect()
    del result
    return found


class TestEnumeratorsLeaveNoCycles:
    """A recursive closure refers to itself: every call would leave its
    working set, discarded candidates included, for the collector."""

    def test_minimal_path_links(self, torus):
        dist = torus.shortest_distances(36)
        assert _cyclic_garbage(lambda: enumerate_minimal_path_links(
            torus, 0, 36, dist, max_paths=10)) == 0

    def test_legal_paths(self, torus):
        ud = orient_links(torus, 0)
        assert _cyclic_garbage(lambda: enumerate_legal_paths(
            torus, ud, 63, 9, max_len=8, max_paths=32)) == 0


class TestBuildsLeaveNoCycles:

    @pytest.mark.parametrize("scheme", supported_schemes(build("torus")))
    def test_torus_scheme(self, torus, scheme):
        assert _cyclic_garbage(lambda: make_tables(torus, scheme)) == 0

    def test_mesh_dor(self, mesh):
        assert "dor" in supported_schemes(mesh)
        assert _cyclic_garbage(lambda: make_tables(mesh, "dor")) == 0

    def test_simple_routes_without_prefer_minimal(self, torus):
        ud = orient_links(torus, 0)
        assert _cyclic_garbage(lambda: compute_simple_routes(
            torus, ud, prefer_minimal=False)) == 0


class TestCollectorPaused:

    @pytest.fixture
    def restore_collector(self):
        was_enabled = gc.isenabled()
        yield
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_the_state_it_found(self, restore_collector, enabled):
        gc.enable() if enabled else gc.disable()
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_it_when_the_build_raises(self, restore_collector,
                                               torus, enabled):
        gc.enable() if enabled else gc.disable()
        with pytest.raises(ValueError):
            compute_simple_routes(torus, orient_links(torus, 0),
                                  length_slack=-1)
        assert gc.isenabled() is enabled

    def test_both_builders_run_paused(self, restore_collector, monkeypatch):
        g = build("torus", rows=4, cols=4, hosts_per_switch=2)
        ud = orient_links(g, 0)
        seen = []

        def spy(real):
            def call(*args, **kwargs):
                seen.append(gc.isenabled())
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(itb_module, "minimal_dag_successors",
                            spy(itb_module.minimal_dag_successors))
        monkeypatch.setattr(simple_routes_module, "_legal_moves",
                            spy(simple_routes_module._legal_moves))
        gc.enable()
        build_itb_routes(g, ud)
        compute_simple_routes(g, ud)
        assert seen and not any(seen)
        assert gc.isenabled()
