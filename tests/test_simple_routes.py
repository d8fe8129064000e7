"""The simple_routes (UP/DOWN baseline) reimplementation."""

import hashlib
import json
from functools import lru_cache

import pytest

from repro.routing.angara import build_updown_opt_tables
from repro.routing.simple_routes import compute_simple_routes
from repro.routing.updown import legal_shortest_distances, orient_links
from repro.topology import build, build_torus


@pytest.fixture(scope="module")
def g44():
    return build_torus(rows=4, cols=4, hosts_per_switch=1)


@pytest.fixture(scope="module")
def ud44(g44):
    return orient_links(g44, root=0)


@pytest.fixture(scope="module")
def routes44(g44, ud44):
    return compute_simple_routes(g44, ud44)


def test_every_ordered_pair_present(g44, routes44):
    n = g44.num_switches
    assert len(routes44) == n * n
    for s in g44.switches():
        assert routes44[(s, s)] == (s,)


def test_all_routes_legal(g44, ud44, routes44):
    for (src, dst), path in routes44.items():
        assert path[0] == src and path[-1] == dst
        assert ud44.path_is_legal(g44, path)


def test_default_routes_are_shortest_legal(g44, ud44, routes44):
    """Under ``prefer_minimal`` every route has exactly the shortest
    legal length: a slack-length candidate can never win."""
    for src in g44.switches():
        legal = legal_shortest_distances(g44, ud44, src)
        for dst in g44.switches():
            assert len(routes44[(src, dst)]) - 1 == legal[dst]


def test_weight_first_routes_within_slack_and_legal():
    """``prefer_minimal=False`` may trade length for balance (it does on
    the express torus) but stays within the slack and legal."""
    g = build("torus-express")
    ud = orient_links(g, root=0)
    slack = 1
    routes = compute_simple_routes(g, ud, length_slack=slack,
                                   prefer_minimal=False)
    longer = 0
    for src in g.switches():
        legal = legal_shortest_distances(g, ud, src)
        for dst in g.switches():
            path = routes[(src, dst)]
            assert path[0] == src and path[-1] == dst
            assert ud.path_is_legal(g, path)
            assert len(path) - 1 <= legal[dst] + slack
            longer += len(path) - 1 > legal[dst]
    assert longer > 0  # the mode really picks different routes here


def test_deterministic(g44, ud44):
    a = compute_simple_routes(g44, ud44)
    b = compute_simple_routes(g44, ud44)
    assert a == b


def test_balancing_beats_greedy_shortest(g44, ud44):
    """Weighted selection must spread load better than always taking the
    first shortest legal path (the property simple_routes exists for)."""
    from repro.routing.updown import enumerate_legal_paths

    balanced = compute_simple_routes(g44, ud44)

    def link_loads(paths):
        load = [0] * g44.num_links
        for (s, d), p in paths.items():
            for a, b in zip(p, p[1:]):
                load[g44.link_between(a, b)] += 1
        return load

    naive = {}
    for src in g44.switches():
        legal = legal_shortest_distances(g44, ud44, src)
        for dst in g44.switches():
            if src == dst:
                naive[(src, dst)] = (src,)
            else:
                naive[(src, dst)] = enumerate_legal_paths(
                    g44, ud44, src, dst, legal[dst], max_paths=1)[0]
    assert max(link_loads(balanced)) <= max(link_loads(naive))


def test_root_congestion_structure():
    """On the paper's 8x8 torus, UP/DOWN concentrates routes near the
    spanning-tree root: the most loaded link must touch the root's
    vicinity (levels 0-1 of the tree)."""
    g = build_torus(rows=8, cols=8, hosts_per_switch=1)
    ud = orient_links(g, root=0)
    routes = compute_simple_routes(g, ud)
    load = [0] * g.num_links
    for (s, d), p in routes.items():
        for a, b in zip(p, p[1:]):
            load[g.link_between(a, b)] += 1
    hottest = max(range(g.num_links), key=lambda l: load[l])
    link = g.links[hottest]
    lvl = ud.tree.level
    assert min(lvl[link.a], lvl[link.b]) <= 1


def test_length_slack_zero(g44, ud44):
    routes = compute_simple_routes(g44, ud44, length_slack=0)
    for src in g44.switches():
        legal = legal_shortest_distances(g44, ud44, src)
        for dst in g44.switches():
            assert len(routes[(src, dst)]) - 1 == legal[dst]


def test_negative_slack_rejected(g44, ud44):
    with pytest.raises(ValueError):
        compute_simple_routes(g44, ud44, length_slack=-1)


@lru_cache(maxsize=None)
def _graph(topology, kwargs):
    return build(topology, **dict(kwargs))


def _routes_digest(routes) -> str:
    """sha256 over ``sorted(routes.items())`` as compact JSON."""
    form = json.dumps(sorted(routes.items()), separators=(",", ":"))
    return hashlib.sha256(form.encode()).hexdigest()


_T44 = (("cols", 4), ("rows", 4))

#: sha256 of each ``compute_simple_routes`` table (:func:`_routes_digest`),
#: keyed by ``(topology, builder kwargs, compute_simple_routes kwargs)``;
#: recorded from the build that recomputed the legal-distance field for
#: every pair and always enumerated the slack candidates
ROUTE_DIGESTS = {
    ("cplant", (), ()):
        "75e582bcebe24853b919a8ceb9e392ac3b8d5d8547dcf160e8009e91ac64f1fb",
    ("cplant", (), (("length_slack", 0),)):
        "75e582bcebe24853b919a8ceb9e392ac3b8d5d8547dcf160e8009e91ac64f1fb",
    ("cplant", (), (("max_candidates", 8),)):
        "885993448493303aaa9cd08fcba4bdfd75b3306ef7bfe05de6c2b62ec3b5efd6",
    ("cplant", (), (("prefer_minimal", False),)):
        "f284d76531eee9d62b6cd03da2ebaa83f43d014891e4d8796787e46f5037f7e0",
    ("mesh", _T44, ()):
        "e5d276dcc87ce8fbb9ccc412cfe1b15dfd5d00d6b376b0edafb8f8806e34d150",
    ("mesh", _T44, (("length_slack", 0),)):
        "e5d276dcc87ce8fbb9ccc412cfe1b15dfd5d00d6b376b0edafb8f8806e34d150",
    ("mesh", _T44, (("max_candidates", 8),)):
        "cf1fdda83443e2415b9eeb3df9d2bea4df273ec8a1fadf333e0b42c01fedbfa1",
    ("mesh", _T44, (("prefer_minimal", False),)):
        "e5d276dcc87ce8fbb9ccc412cfe1b15dfd5d00d6b376b0edafb8f8806e34d150",
    ("torus", (), ()):
        "a4e5f0993510240430510100ef9f52cb8cb774ba98916e16333a8072ddb7627a",
    ("torus", (), (("length_slack", 0),)):
        "a4e5f0993510240430510100ef9f52cb8cb774ba98916e16333a8072ddb7627a",
    ("torus", (), (("max_candidates", 8),)):
        "a2e001c32573ff5dd3224a64e5d7d549b0df965196946664228803989e53bc4a",
    ("torus", (), (("prefer_minimal", False),)):
        "a4e5f0993510240430510100ef9f52cb8cb774ba98916e16333a8072ddb7627a",
    ("torus", _T44, ()):
        "adda0c9f2064eb8ce8d7e1181f55debac9c5eace3fdb85aee948f6f7953cfe59",
    # recorded from the build that enumerated each pair's candidates
    # with the bounded DFS
    ("torus", (("cols", 12), ("rows", 12)), ()):
        "8470596f49f09e6721367b0f35d14b70356310e13f57a7ef29b5e13a21b9de44",
    ("torus", _T44, (("length_slack", 0),)):
        "adda0c9f2064eb8ce8d7e1181f55debac9c5eace3fdb85aee948f6f7953cfe59",
    ("torus", _T44, (("max_candidates", 8),)):
        "adda0c9f2064eb8ce8d7e1181f55debac9c5eace3fdb85aee948f6f7953cfe59",
    ("torus", _T44, (("prefer_minimal", False),)):
        "adda0c9f2064eb8ce8d7e1181f55debac9c5eace3fdb85aee948f6f7953cfe59",
    ("torus-express", (), ()):
        "20c27dc9e96fc3e3e1104885e016defecaa722fc6621bb3386bf1cd9590e3de5",
    ("torus-express", (), (("length_slack", 0),)):
        "20c27dc9e96fc3e3e1104885e016defecaa722fc6621bb3386bf1cd9590e3de5",
    ("torus-express", (), (("max_candidates", 8),)):
        "250aaff36416550ab7c9efac39d79d205cada511ca3ede61d1f89aa23f86957f",
    ("torus-express", (), (("prefer_minimal", False),)):
        "d03e85f692ee89b62d9c7b9e9793c395a53abf7021a213408158edb1b2328a20",
}

#: the same for the ``updown-opt`` tables, ``(pair, switch path)``
#: per single-route pair, keyed by ``(topology, builder kwargs)``; on
#: the tori its root and orientation coincide with the baseline's, so
#: those digests equal the default ones above
OPT_DIGESTS = {
    ("cplant", ()):
        "5d46ec5d33f5e40a671f05f0df514ea9aaf433338f8bd6f3d041de5e61deb4de",
    ("mesh", _T44):
        "6d663e378a2046b8f59b7924888e981f174dc689126d257e5a4bce7a45ef2bec",
    ("torus", _T44):
        "adda0c9f2064eb8ce8d7e1181f55debac9c5eace3fdb85aee948f6f7953cfe59",
    ("torus-express", ()):
        "20c27dc9e96fc3e3e1104885e016defecaa722fc6621bb3386bf1cd9590e3de5",
}


def _case_id(case):
    return "-".join([case[0]] + [f"{k}{v}" for part in case[1:]
                                 for k, v in part])


class TestTableIdentity:
    """The build may get faster; the routes it picks must not change."""

    @pytest.mark.parametrize("case", sorted(ROUTE_DIGESTS), ids=_case_id)
    def test_simple_routes_digest(self, case):
        topology, kwargs, options = case
        g = _graph(topology, kwargs)
        routes = compute_simple_routes(g, orient_links(g, root=0),
                                       **dict(options))
        assert _routes_digest(routes) == ROUTE_DIGESTS[case]

    @pytest.mark.parametrize("case", sorted(OPT_DIGESTS), ids=_case_id)
    def test_updown_opt_digest(self, case):
        tables = build_updown_opt_tables(_graph(*case))
        paths = {pair: alts[0].legs[0].switches
                 for pair, alts in tables.routes.items()}
        assert all(len(alts) == 1 for alts in tables.routes.values())
        assert _routes_digest(paths) == OPT_DIGESTS[case]
