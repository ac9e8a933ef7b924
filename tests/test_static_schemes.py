import random

import pytest
from hypothesis import given, settings, strategies as st

from dynlabel import PortAssignment, bits, get_function, scheme_for
from dynlabel.functions import ROUTE_SELF
from dynlabel.static_schemes import (INTERVAL, SEPARATOR, DecodeError,
                                     dfs_interval_decode, routing_decode,
                                     separator_distance_decode,
                                     separator_marker)

from _util import build_net, random_parents, ref_separator_marker, scope_of


def _iv(a, b):
    """The interval label of [a, b]."""
    return bits.sized(INTERVAL, (a, b - a))


def _sep(uid, depth, entries):
    return bits.sized(SEPARATOR, (uid, depth, entries))


def _mark(net, name):
    return scheme_for(name).marker(net, 0, scope_of(net, 0, net.alive_nodes()))


def test_interval_marker_on_chain():
    net = build_net([0, 1])
    labels = _mark(net, "ancestry")
    assert labels[0] == _iv(1, 3)
    assert labels[1] == _iv(2, 3)
    assert labels[2] == _iv(3, 3)


def test_interval_marker_on_star():
    net = build_net([0, 0, 0])
    labels = _mark(net, "ancestry")
    assert labels[0] == _iv(1, 4)
    leaf_labels = sorted(labels[v] for v in (1, 2, 3))
    assert leaf_labels == [_iv(2, 2), _iv(3, 3), _iv(4, 4)]


def test_interval_marker_on_singleton():
    net = build_net([])
    labels = _mark(net, "ancestry")
    assert labels[0] == _iv(1, 1)


def test_interval_decoder_directions():
    assert dfs_interval_decode(_iv(1, 3), _iv(2, 3)) == (True, False)
    assert dfs_interval_decode(_iv(2, 2), _iv(3, 3)) == (False, False)
    lab = _iv(2, 5)
    assert dfs_interval_decode(lab, lab) == (True, True)


def test_marker_charges_one_round_trip_per_edge():
    net = build_net(random_parents(random.Random(1), 20))
    before = net.ledger.messages_total
    _mark(net, "ancestry")
    assert net.ledger.messages_total - before == 2 * (20 - 1)
    assert net.ledger.marker_last_messages == 2 * (20 - 1)


def test_distance_decoder_same_node():
    net = build_net([0, 0, 1])
    labels = _mark(net, "distance")
    for v in net.alive_nodes():
        assert separator_distance_decode(labels[v], labels[v]) == 0


def test_distance_on_path_of_five():
    net = build_net([0, 1, 2, 3])
    labels = _mark(net, "distance")
    assert separator_distance_decode(labels[0], labels[4]) == 4


def test_distance_random_pairs_match_oracle():
    rng = random.Random(17)
    net = build_net(random_parents(rng, 64))
    labels = _mark(net, "distance")
    fn = get_function("distance")
    nodes = net.alive_nodes()
    for _ in range(200):
        u = nodes[rng.randrange(len(nodes))]
        v = nodes[rng.randrange(len(nodes))]
        assert separator_distance_decode(labels[u], labels[v]) == \
            fn.oracle(net, u, v)


def test_seplevel_decoder_matches_oracle():
    rng = random.Random(23)
    net = build_net(random_parents(rng, 48))
    labels = _mark(net, "seplevel")
    pi = scheme_for("seplevel")
    fn = get_function("seplevel")
    nodes = net.alive_nodes()
    for u in nodes:
        for v in nodes:
            assert pi.decoder(labels[u], labels[v]) == fn.oracle(net, u, v)


def test_routing_root_to_leaf_and_back():
    net = build_net([0, 0, 1], assignment=PortAssignment.STABLE)
    labels = _mark(net, "routing")
    got = routing_decode(labels[0], labels[3])
    assert got == ("port", net.down_port[1], net.up_port[3])
    got = routing_decode(labels[3], labels[0])
    assert got[1] == net.up_port[3]  # leaf routes via its parent port


def test_routing_all_ordered_pairs_small_tree():
    rng = random.Random(5)
    net = build_net(random_parents(rng, 8), assignment=PortAssignment.STABLE)
    labels = _mark(net, "routing")
    fn = get_function("routing")
    for u in net.alive_nodes():
        for v in net.alive_nodes():
            assert routing_decode(labels[u], labels[v]) == fn.oracle(net, u, v)


def test_routing_under_adversary_ports():
    rng = random.Random(29)
    net = build_net(random_parents(rng, 24),
                    assignment=PortAssignment.ADVERSARY, seed=8)
    labels = _mark(net, "routing")
    fn = get_function("routing")
    nodes = net.alive_nodes()
    for u in nodes:
        for v in nodes:
            assert routing_decode(labels[u], labels[v]) == fn.oracle(net, u, v)


def test_routing_self_value():
    net = build_net([0], assignment=PortAssignment.STABLE)
    labels = _mark(net, "routing")
    assert routing_decode(labels[1], labels[1]) == ROUTE_SELF


@pytest.mark.parametrize("name", ["ancestry", "distance", "seplevel", "routing"])
def test_decoder_matches_oracle_exhaustively(name):
    rng = random.Random(31)
    assignment = (PortAssignment.STABLE if name == "routing"
                  else PortAssignment.COMPACT)
    net = build_net(random_parents(rng, 60), assignment=assignment)
    pi = scheme_for(name)
    fn = get_function(name)
    labels = pi.marker(net, 0, scope_of(net, 0, net.alive_nodes()))
    for u in net.alive_nodes():
        for v in net.alive_nodes():
            assert pi.decoder(labels[u], labels[v]) == fn.oracle(net, u, v)


@pytest.mark.parametrize("name", ["ancestry", "distance", "seplevel", "routing"])
def test_labels_unique_and_within_budgets(name):
    rng = random.Random(37)
    assignment = (PortAssignment.STABLE if name == "routing"
                  else PortAssignment.COMPACT)
    for n in (1, 2, 7, 33, 64):
        net = build_net(random_parents(rng, n) if n > 1 else [],
                        assignment=assignment)
        pi = scheme_for(name)
        before = net.ledger.messages_total
        labels = pi.marker(net, 0, scope_of(net, 0, net.alive_nodes()))
        assert len(set(labels.values())) == len(labels)
        assert net.ledger.messages_total - before <= pi.mc_budget(n)
        for lab in labels.values():
            assert lab[-1] == bits.size(pi.layout, lab)
            assert lab[-1] <= pi.ls_budget(n)


@pytest.mark.parametrize("name", ["ancestry", "distance", "seplevel", "routing"])
def test_static_label_wire_round_trip(name):
    rng = random.Random(41)
    assignment = (PortAssignment.STABLE if name == "routing"
                  else PortAssignment.COMPACT)
    net = build_net(random_parents(rng, 20), assignment=assignment)
    pi = scheme_for(name)
    labels = pi.marker(net, 0, scope_of(net, 0, net.alive_nodes()))
    for lab in labels.values():
        wire = bits.encode(pi.layout, lab)
        assert len(wire) == lab[-1]
        back, pos = bits.read(pi.layout, wire)
        assert (*back, len(wire)) == lab
        assert pos == len(wire)


def test_marker_on_subtree_scope_only():
    cases = [([0, 0, 1, 1, 2], 1, {1, 3, 4}),
             ([0] * 300, 0, {0, 7, 150, 299})]   # 3 of a star's 300 children
    for parents, root, members in cases:
        for name in ("ancestry", "distance", "seplevel", "routing"):
            net = build_net(parents, assignment=PortAssignment.STABLE)
            labels = scheme_for(name).marker(net, root,
                                             scope_of(net, root, members))
            assert set(labels) == members
            assert net.ledger.marker_last_messages == 2 * (len(members) - 1)
            if name == "ancestry":
                assert labels[root] == _iv(1, len(members))


def test_marker_rejects_disconnected_scope():
    net = build_net([0, 1])      # the chain 0-1-2 without its middle node
    with pytest.raises(DecodeError):
        scheme_for("ancestry").marker(net, 0, scope_of(net, 0, {0, 2}))


def test_distance_decode_requires_shared_separator():
    with pytest.raises(DecodeError):
        separator_distance_decode(_sep(0, 0, ((0, 1),)),
                                  _sep(1, 0, ((7, 1),)))


def test_seplevel_decode_rejects_inconsistent_depths():
    from dynlabel.static_schemes import separator_seplevel_decode
    with pytest.raises(DecodeError):
        separator_seplevel_decode(_sep(0, 2, ((0, 1),)),
                                  _sep(1, 1, ((0, 1),)))


def test_separator_labels_share_top_level():
    net = build_net([0, 0, 1])
    labels = _mark(net, "distance")
    top_ids = {labels[v][2][0][0] for v in net.alive_nodes()}
    assert len(top_ids) == 1


def test_intervals_are_ordered_and_nested():
    rng = random.Random(47)
    net = build_net(random_parents(rng, 40))
    labels = _mark(net, "ancestry")
    for v in net.alive_nodes():
        a, d, _ = labels[v]
        assert d >= 0
        if net.parent[v] is not None:
            pa, pd, _ = labels[net.parent[v]]
            assert pa <= a and a + d <= pa + pd


def test_fresh_resets_discard_old_labels():
    net = build_net([0])
    pi = scheme_for("ancestry")
    first = pi.marker(net, 0, scope_of(net, 0, net.alive_nodes()))
    net.add_leaf(0)
    second = pi.marker(net, 0, scope_of(net, 0, net.alive_nodes()))
    assert first[0] != second[0]


def _shape(name, n, rng):
    """Parent vector of an n-node tree of the named shape; a broom is a
    handle of about n/2 nodes with a star at its tip."""
    if name == "random":
        return random_parents(rng, n)
    if name == "chain":
        return list(range(n - 1))
    if name == "star":
        return [0] * (n - 1)
    h = n // 2
    return list(range(h)) + [h] * (n - 1 - h)


def _collected_scope(net, root, keep, order):
    """A scope map, each member mapped to its kept children in port
    order, listed parents first in the given order: ``walk`` as resets
    collect one (a depth-first walk from root), ``bfs`` breadth first,
    ``ids`` root first and then by id, as ``scope_of`` lists one."""
    scope = {}
    queue = [root]
    while queue:
        v = queue.pop(0 if order == "bfs" else -1)
        scope[v] = [c for c in net.children[v] if keep(c)]
        queue.extend(scope[v])
    if order == "ids":
        return scope_of(net, root, scope)
    return scope


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(["distance", "seplevel"]),
       shape=st.sampled_from(["random", "chain", "star", "broom"]),
       n=st.integers(1, 60), seed=st.integers(0, 10 ** 6),
       below=st.booleans(), pruned=st.booleans(),
       order=st.sampled_from(["walk", "bfs", "ids"]))
def test_separator_marker_matches_the_two_walk_reference(name, shape, n, seed,
                                                         below, pruned,
                                                         order):
    """One pass per component labels every member as two walks did: the
    same labels, sizes included, in the same key order, and the same
    messages, on whole trees and on scopes rooted below the root,
    whichever parents-first order the scope map lists its members in."""
    rng = random.Random(seed)
    parents = _shape(shape, n, rng)
    nets = [build_net(parents), build_net(parents)]
    root = rng.randrange(n) if below else 0
    cut = {v for v in range(1, n) if pruned and rng.random() < 0.2}
    scope = _collected_scope(nets[0], root, lambda c: c not in cut, order)
    got = scheme_for(name).marker(nets[0], root, scope)
    want = ref_separator_marker(nets[1], root, scope)
    assert list(got.items()) == list(want.items())
    new, ref = (net.ledger for net in nets)
    assert list(new.by_category.items()) == list(ref.by_category.items())
    assert new.marker_last_messages == ref.marker_last_messages


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(shape=st.sampled_from(["random", "chain", "star", "broom"]),
       n=st.integers(1, 60), seed=st.integers(0, 10 ** 6),
       below=st.booleans(), pruned=st.booleans())
def test_separator_entries_are_one_object_per_separator_and_distance(
        shape, n, seed, below, pruned):
    """Members at the same distance from the same separator hold the
    same entry object, while each label's (separator, 0) is its own; the
    labels are still the two-walk reference's."""
    rng = random.Random(seed)
    parents = _shape(shape, n, rng)
    nets = [build_net(parents), build_net(parents)]
    root = rng.randrange(n) if below else 0
    cut = {v for v in range(1, n) if pruned and rng.random() < 0.2}
    scope = _collected_scope(nets[0], root, lambda c: c not in cut, "walk")
    labels = separator_marker(nets[0], root, scope)
    want = ref_separator_marker(nets[1], root, scope)
    assert list(labels.items()) == list(want.items())
    shared = {}
    own = []
    for lab in labels.values():
        *walked, last = lab[2]
        assert last == (lab[0], 0)
        own.append(last)
        for entry in walked:
            assert shared.setdefault(entry, entry) is entry
    assert len(set(map(id, own))) == len(labels)
