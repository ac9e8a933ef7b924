import random

import pytest
from hypothesis import given, strategies as st

from dynlabel import Network, PortAssignment, bits, get_function
from dynlabel.functions import ROUTE_SELF, nca_via

from _util import build_net, random_parents, rooted_trees

ALL_FUNCTIONS = ["ancestry", "distance", "seplevel", "routing"]


def test_distance_to_self_is_zero():
    net = build_net([0, 1])
    fn = get_function("distance")
    assert fn.oracle(net, 2, 2) == 0


def test_distance_on_path():
    net = build_net([0, 1])  # 0 - 1 - 2
    fn = get_function("distance")
    assert fn.oracle(net, 0, 2) == 2


def test_ancestry_oracle_matches_transitive_closure():
    rng = random.Random(7)
    net = build_net(random_parents(rng, 50))
    closure = {0: {0}}
    for v in sorted(net.alive_nodes()):
        if v != 0:
            closure[v] = closure[net.parent[v]] | {v}
    fn = get_function("ancestry")
    nodes = net.alive_nodes()
    for _ in range(100):
        u = nodes[rng.randrange(len(nodes))]
        v = nodes[rng.randrange(len(nodes))]
        assert fn.oracle(net, u, v) == (u in closure[v], v in closure[u])


def test_seplevel_is_depth_of_nearest_common_ancestor():
    rng = random.Random(3)
    net = build_net(random_parents(rng, 40))
    fn = get_function("seplevel")
    nodes = net.alive_nodes()
    for _ in range(200):
        u = nodes[rng.randrange(len(nodes))]
        v = nodes[rng.randrange(len(nodes))]
        a = nca_via(net, u, v)[0]
        assert fn.oracle(net, u, v) == net.depth[a]


def test_compose_distance_adds():
    fn = get_function("distance")
    assert fn.compose(2, 3) == 5


def test_compose_ancestry_is_transitive():
    fn = get_function("ancestry")
    assert fn.compose((True, False), (True, False)) == (True, False)
    assert fn.compose((True, True), (False, True)) == (False, True)
    assert fn.compose((True, False), (False, True)) == (False, False)


def test_compose_routing_keeps_first_hop():
    net = build_net([0, 0, 1, 1, 2, 4], assignment=PortAssignment.STABLE)
    fn = get_function("routing")
    nodes = net.alive_nodes()
    for u in nodes:
        for v in nodes:
            for w in _path(net, u, v):
                left = fn.oracle(net, u, w)
                right = fn.oracle(net, w, v)
                assert fn.compose(left, right) == fn.oracle(net, u, v)


def _path(net, u, v):
    a = nca_via(net, u, v)[0]
    up = []
    x = u
    while x != a:
        up.append(x)
        x = net.parent[x]
    down = []
    x = v
    while x != a:
        down.append(x)
        x = net.parent[x]
    return up + [a] + list(reversed(down))


@pytest.mark.parametrize("name", ALL_FUNCTIONS)
def test_compose_matches_oracle_on_all_small_trees(name):
    """For every rooted tree up to 9 nodes and every pair, composing the
    two half-path values at any interior stop returns the full value."""
    fn = get_function(name)
    for n in range(1, 10):
        for parents in rooted_trees(n):
            net = build_net(parents, assignment=PortAssignment.STABLE)
            nodes = net.alive_nodes()
            for u in nodes:
                for v in nodes:
                    want = fn.oracle(net, u, v)
                    for w in _path(net, u, v):
                        got = fn.compose(fn.oracle(net, u, w),
                                         fn.oracle(net, w, v))
                        assert got == want, (name, parents, u, v, w)


def test_small_tree_enumeration_counts():
    counts = [sum(1 for _ in rooted_trees(n)) for n in range(1, 10)]
    assert counts == [1, 1, 2, 4, 9, 20, 48, 115, 286]


@pytest.mark.parametrize("name", ALL_FUNCTIONS)
def test_reverse_swaps_arguments(name):
    rng = random.Random(13)
    fn = get_function(name)
    net = build_net(random_parents(rng, 30), assignment=PortAssignment.STABLE)
    nodes = net.alive_nodes()
    for _ in range(150):
        u = nodes[rng.randrange(len(nodes))]
        v = nodes[rng.randrange(len(nodes))]
        assert fn.reverse(fn.oracle(net, u, v)) == fn.oracle(net, v, u)


def test_ancestry_value_round_trip_two_bits():
    fn = get_function("ancestry")
    for value in [(True, True), (True, False), (False, True), (False, False)]:
        enc = bits.encode(fn.layout, value)
        assert len(enc) == 2
        assert bits.read(fn.layout, enc) == (value, 2)


def test_distance_zero_has_minimal_code():
    fn = get_function("distance")
    assert bits.encode(fn.layout, 0) == "1"
    assert bits.size(fn.layout, 0) == 1


@given(st.integers(min_value=0, max_value=10 ** 9))
def test_distance_round_trip(value):
    fn = get_function("distance")
    enc = bits.encode(fn.layout, value)
    assert bits.read(fn.layout, enc) == (value, len(enc))
    assert bits.size(fn.layout, value) == len(enc)


@given(st.one_of(
    st.just(ROUTE_SELF),
    st.tuples(st.just("port"), st.integers(0, 1 << 21), st.integers(0, 1 << 21))))
def test_routing_round_trip(value):
    fn = get_function("routing")
    enc = bits.encode(fn.layout, value)
    assert bits.read(fn.layout, enc) == (value, len(enc))
    assert bits.size(fn.layout, value) == len(enc)


def test_thousand_random_values_round_trip_bit_exactly():
    rng = random.Random(99)
    dist = get_function("distance")
    sep = get_function("seplevel")
    rt = get_function("routing")
    for _ in range(1000):
        d = rng.randrange(1 << 16)
        value = ("port", rng.randrange(1 << 12), rng.randrange(1 << 12))
        for fn, x in ((dist, d), (sep, d), (rt, value)):
            enc = bits.encode(fn.layout, x)
            assert bits.read(fn.layout, enc) == (x, bits.size(fn.layout, x))


def test_unknown_function_rejected():
    from dynlabel.functions import FunctionError
    with pytest.raises(FunctionError):
        get_function("flow")


@pytest.mark.parametrize("name", ALL_FUNCTIONS)
def test_oracle_row_matches_pairwise_oracle(name):
    """One outward walk per row gives the pairwise oracle's values, on
    random trees with deletions under every port assignment that the
    function takes: routing values name stored ports, so not compact."""
    fn = get_function(name)
    for assignment in PortAssignment:
        if name == "routing" and assignment is PortAssignment.COMPACT:
            continue
        for seed in range(30):
            net = _grown_net(assignment, seed)
            nodes = net.alive_nodes()
            for u in nodes:
                row = fn.oracle_row(net, u)
                assert sorted(row) == sorted(nodes)
                for v in nodes:
                    assert row[v] == fn.oracle(net, u, v), (assignment, seed,
                                                            u, v)


def _grown_net(assignment, seed, events=40):
    """Random tree from adds and leaf deletions under one assignment."""
    rng = random.Random(seed)
    net = Network(assignment=assignment, rng=random.Random(seed + 1))
    for _ in range(events):
        leaves = [v for v in net.alive_nodes() if v != 0 and net.is_leaf(v)]
        if leaves and rng.random() < 0.3:
            net.remove_leaf(leaves[rng.randrange(len(leaves))])
        else:
            pool = net.alive_list
            net.add_leaf(pool[rng.randrange(len(pool))])
    return net


def test_nca_via_matches_ancestor_sets():
    """For every ordered pair, u == v and root pairs included, ``nca_via``
    gives the deepest common member of the two ancestor chains and, when
    one node is a strict ancestor of the other, the chain member of the
    deeper one just below it."""
    for assignment in PortAssignment:
        for seed in range(12):
            net = _grown_net(assignment, seed)
            nodes = net.alive_nodes()
            chain = {}          # node -> its ancestors by depth, root first
            for v in nodes:
                up = [v]
                while net.parent[up[-1]] is not None:
                    up.append(net.parent[up[-1]])
                chain[v] = up[::-1]
            for u in nodes:
                for v in nodes:
                    common = set(chain[u]) & set(chain[v])
                    a = max(common, key=lambda x: net.depth[x])
                    if u == v:
                        via = None
                    elif a == u:
                        via = chain[v][net.depth[u] + 1]
                    elif a == v:
                        via = chain[u][net.depth[v] + 1]
                    else:
                        via = None
                    assert nca_via(net, u, v) == (a, via), (assignment, seed,
                                                            u, v)
