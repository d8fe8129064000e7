"""In-transit buffer route construction (path splitting and host choice)."""

import hashlib
import json

import pytest

from repro.routing.itb import (balance_first_alternatives, build_itb_routes,
                               split_path_at_violations)
from repro.routing.minimal import enumerate_minimal_paths
from repro.routing.table import compute_tables
from repro.routing.updown import orient_links
from repro.topology import build, build_torus


@pytest.fixture(scope="module")
def g88():
    return build_torus(rows=8, cols=8, hosts_per_switch=2)


@pytest.fixture(scope="module")
def ud88(g88):
    return orient_links(g88, root=0)


class TestSplit:
    def test_legal_path_single_segment(self, g88, ud88):
        # spanning-tree walk root-ward then leaf-ward is always legal
        path = [18, 10, 2, 1, 0]
        assert ud88.path_is_legal(g88, path)
        assert split_path_at_violations(g88, ud88, path) == [tuple(path)]

    def test_segments_reassemble_to_path(self, g88, ud88):
        for dst in (0, 9, 63):
            dist = g88.shortest_distances(dst)
            for src in range(0, 64, 7):
                for p in enumerate_minimal_paths(g88, src, dst, dist, 5):
                    segs = split_path_at_violations(g88, ud88, p)
                    flat = list(segs[0])
                    for seg in segs[1:]:
                        assert seg[0] == flat[-1]
                        flat.extend(seg[1:])
                    assert tuple(flat) == p

    def test_every_segment_legal(self, g88, ud88):
        checked = 0
        for dst in (0, 27, 63):
            dist = g88.shortest_distances(dst)
            for src in range(64):
                for p in enumerate_minimal_paths(g88, src, dst, dist, 3):
                    for seg in split_path_at_violations(g88, ud88, p):
                        assert ud88.path_is_legal(g88, seg)
                        checked += 1
        assert checked > 100

    def test_illegal_path_gets_split(self, g88, ud88):
        """Find a minimal path that violates up*/down* and check the
        split produces >= 2 segments."""
        found = False
        for dst in g88.switches():
            dist = g88.shortest_distances(dst)
            for src in g88.switches():
                for p in enumerate_minimal_paths(g88, src, dst, dist, 3):
                    if not ud88.path_is_legal(g88, p):
                        segs = split_path_at_violations(g88, ud88, p)
                        assert len(segs) >= 2
                        found = True
            if found:
                break
        assert found

    def test_split_is_minimal_cut_count(self, g88, ud88):
        """Greedy split = fewest segments: no single-segment split can
        cover an illegal path, and removing any one cut from the greedy
        answer leaves an illegal segment."""
        for dst in (0, 45):
            dist = g88.shortest_distances(dst)
            for src in range(0, 64, 5):
                for p in enumerate_minimal_paths(g88, src, dst, dist, 2):
                    segs = split_path_at_violations(g88, ud88, p)
                    if len(segs) < 2:
                        continue
                    # merging any adjacent pair must be illegal
                    for i in range(len(segs) - 1):
                        merged = segs[i] + segs[i + 1][1:]
                        assert not ud88.path_is_legal(g88, merged)

    def test_unlinked_path_raises(self, g88, ud88):
        with pytest.raises(ValueError):
            split_path_at_violations(g88, ud88, [0, 9])


class TestBuildItbRoutes:
    @pytest.fixture(scope="class")
    def routes(self, g88, ud88):
        return build_itb_routes(g88, ud88, max_routes_per_pair=4)

    def test_every_pair_covered(self, g88, routes):
        n = g88.num_switches
        assert len(routes) == n * n

    def test_routes_minimal(self, g88, routes):
        for dst in (0, 20, 63):
            dist = g88.shortest_distances(dst)
            for src in g88.switches():
                for r in routes[(src, dst)]:
                    assert r.switch_hops == dist[src]

    def test_cap_respected(self, routes):
        assert all(1 <= len(alts) <= 4 for alts in routes.values())

    def test_itb_hosts_on_boundary_switches(self, g88, routes):
        for (src, dst), alts in routes.items():
            for r in alts:
                for host, (a, b) in zip(r.itb_hosts,
                                        zip(r.legs, r.legs[1:])):
                    assert g88.host_switch(host) == a.end == b.start

    def test_legs_individually_legal(self, g88, ud88, routes):
        """The deadlock-freedom requirement of Section 3."""
        for alts in routes.values():
            for r in alts:
                for leg in r.legs:
                    assert ud88.path_is_legal(g88, leg.switches)

    def test_some_routes_need_itbs(self, routes):
        assert any(r.num_itbs > 0
                   for alts in routes.values() for r in alts)

    def test_itb_duty_spread_over_hosts(self, g88, routes):
        """The shared host cycler should not put every in-transit stop
        on host 0 of each switch."""
        used = {h for alts in routes.values() for r in alts
                for h in r.itb_hosts}
        switches_used = {g88.host_switch(h) for h in used}
        # at least one switch has more than one of its hosts on ITB duty
        assert any(len([h for h in used if g88.host_switch(h) == s]) > 1
                   for s in switches_used)

    def test_sort_by_itbs_orders_front(self, g88, ud88):
        routes = build_itb_routes(g88, ud88, max_routes_per_pair=6,
                                  sort_by_itbs=True, balance_sp=False)
        for alts in routes.values():
            itbs = [r.num_itbs for r in alts]
            assert itbs == sorted(itbs)


class TestBalanceFirstAlternatives:
    def test_same_route_sets(self, g88, ud88):
        raw = build_itb_routes(g88, ud88, max_routes_per_pair=4,
                               balance_sp=False)
        bal = balance_first_alternatives(g88, raw)
        for pair in raw:
            assert set(raw[pair]) == set(bal[pair])

    def test_balancing_reduces_max_link_load(self, g88, ud88):
        """First-alternative link load must be flatter after balancing."""
        raw = build_itb_routes(g88, ud88, max_routes_per_pair=4,
                               balance_sp=False)
        bal = balance_first_alternatives(g88, raw)

        def max_load(routes):
            load = [0] * g88.num_links
            for (s, d), alts in routes.items():
                if s == d:
                    continue
                for lid in alts[0].iter_links():
                    load[lid] += 1
            return max(load)

        assert max_load(bal) < max_load(raw)


#: sha256 of each ``itb`` table's canonical form (:func:`_table_digest`),
#: recorded from the build that gave every leg its own object; sharing
#: equal legs must leave every one of them in place
TABLE_DIGESTS = {
    ("torus", (("cols", 4), ("rows", 4)), False):
        "16fa2377fbee1b55c8347e24e178c882408bf9385acaf26585f0a524325bea20",
    ("torus", (("cols", 4), ("rows", 4)), True):
        "bc9bce88ad905e9affb127ec03a154134cf351132d4d57b785b33592e1b0c436",
    ("torus", (), False):
        "c97b271f473d91d13f8c00f216a060bf280b7d2988382bee8f9b1d32f74ffdee",
    ("torus", (), True):
        "2d48ef7eff16b97b84fc2214da2e91a031016a01fc383b97514de9d6ae9a2a1c",
    ("torus-express", (), False):
        "096badc2deae63a728bcc266e1b1607bfe4e0baf1ef913b502a2bff700b15e43",
    ("torus-express", (), True):
        "8ec9ea09cf652460293c88b726592505d5a93592763d644a168f3f6830343408",
    ("cplant", (), False):
        "203967f4941218e72cd3eb7e6a9ba50c3ba8086ce79ee572ac061fc03be08b42",
    ("cplant", (), True):
        "234386fb4d1c39fd558e2f2958f94d2a074e2460953373df4388563623541591",
}


def _table_digest(tables) -> str:
    """sha256 over ``(pair, [(leg switches, leg links)...], itb_hosts)``
    of every alternative, pairs in sorted order."""
    h = hashlib.sha256()
    for pair in sorted(tables.routes):
        form = [list(pair),
                [[[[list(leg.switches), list(leg.links)] for leg in r.legs],
                  list(r.itb_hosts)] for r in tables.routes[pair]]]
        h.update(json.dumps(form, separators=(",", ":")).encode())
    return h.hexdigest()


class TestTableIdentity:
    """Shared legs change how a table is stored, never what it routes."""

    @pytest.fixture(scope="module", params=sorted(TABLE_DIGESTS),
                    ids=lambda case: "-".join(
                        [case[0]] + [f"{k}{v}" for k, v in case[1]]
                        + (["sorted"] if case[2] else [])))
    def case(self, request):
        topology, kwargs, sort_by_itbs = request.param
        g = build(topology, **dict(kwargs))
        return request.param, compute_tables(g, "itb", 0, 10, sort_by_itbs)

    def test_digest_unchanged(self, case):
        key, tables = case
        assert _table_digest(tables) == TABLE_DIGESTS[key]

    def test_equal_legs_are_one_object(self, case):
        _key, tables = case
        seen = {}
        for alts in tables.routes.values():
            for r in alts:
                for leg in r.legs:
                    assert seen.setdefault(leg, leg) is leg

    def test_link_ids_unchanged(self, case):
        _key, tables = case
        for alts in tables.routes.values():
            for r in alts:
                assert r.link_ids == tuple(
                    lid for leg in r.legs for lid in leg.links)
                if len(r.legs) == 1:
                    assert r.link_ids is r.legs[0].links
