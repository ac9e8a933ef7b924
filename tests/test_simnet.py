import random

import pytest
from hypothesis import given, settings, strategies as st

from dynlabel import (DynamicScheme, Network, PortAssignment, QuotaFunction,
                      ScenarioEvent, format_scenario, parse_scenario)
from dynlabel.simnet import DeadNeighborError, InvalidEvent, SimulationError

from _util import (build_net, ports_at, preorder_scope,
                   ref_broadcast_convergecast, ref_charge_path, scope_of)


class FixedPorts:
    """Adversary stand-in handing out a scripted port sequence."""

    def __init__(self, script):
        self.script = list(script)

    def randrange(self, n):
        return self.script.pop(0)


def test_add_to_singleton_root():
    net = Network()
    child = net.add_leaf(0)
    assert child == 1
    assert net.alive_count == 2
    assert ports_at(net, 0) == [1]
    stable = Network(assignment=PortAssignment.STABLE)
    child = stable.add_leaf(0)
    assert stable.child_at(0, 1) == child


def test_adversary_scripted_port():
    net = Network(assignment=PortAssignment.ADVERSARY, rng=FixedPorts([7, 3]))
    child = net.add_leaf(0)
    assert net.child_at(0, 7) == child
    assert net.down_port[child] == 7
    assert net.up_port[child] == 3


def test_hundred_adds_to_root_have_distinct_ports():
    net = Network(assignment=PortAssignment.ADVERSARY, rng=random.Random(1),
                  port_cap=512)
    for _ in range(100):
        net.add_leaf(0)
    ports = ports_at(net, 0)
    assert len(ports) == 100
    assert len(set(ports)) == 100


def test_remove_only_child_back_to_singleton():
    net = Network()
    c = net.add_leaf(0)
    net.remove_leaf(c)
    assert net.alive_count == 1
    assert ports_at(net, 0) == []


def test_remove_internal_node_rejected():
    net = Network()
    u = net.add_leaf(0)
    net.add_leaf(u)
    with pytest.raises(InvalidEvent):
        net.remove_leaf(u)


def test_remove_root_rejected():
    net = Network()
    with pytest.raises(InvalidEvent):
        net.remove_leaf(0)


def test_add_add_remove_remove_returns_to_singleton():
    net = Network()
    u = net.add_leaf(0)
    v = net.add_leaf(u)
    net.remove_leaf(v)
    net.remove_leaf(u)
    assert net.alive_count == 1
    assert net.alive_nodes() == [0]


def test_send_one_hop_counts_one():
    net = Network()
    net.add_leaf(0)
    before = net.ledger.messages_total
    net.send(0, 1, "signal")
    assert net.ledger.messages_total == before + 1


def test_send_to_a_node_that_is_not_a_neighbour_raises():
    net = build_net([0, 0, 1, 1])
    net.remove_leaf(4)
    # siblings, grandparent and grandchild, self, unknown, from the removed
    for frm, to in ((1, 2), (0, 3), (3, 0), (0, 0), (0, 9), (4, 1)):
        with pytest.raises(SimulationError, match="not a neighbour"):
            net.send(frm, to, "signal")
    assert net.ledger.messages_total == 0
    assert net.ledger.messages_to_dead == 0


def test_relay_along_path_counts_length():
    parents = [0, 1, 2, 3]
    net = build_net(parents)
    hops = net.charge_path(4, 0, "signal")
    assert hops == 4
    assert net.ledger.messages_total == 4


def test_manual_broadcast_costs_edge_count():
    net = build_net([0, 0, 0, 1, 1])
    before = net.ledger.messages_total
    stack = [0]
    while stack:
        v = stack.pop()
        for c in net.children_by_port(v):
            net.send(v, c, "broadcast")
            stack.append(c)
    assert net.ledger.messages_total - before == net.alive_count - 1


def test_send_to_dead_neighbor_raises_and_counts():
    net = Network()
    c = net.add_leaf(0)
    net.remove_leaf(c)
    with pytest.raises(DeadNeighborError):
        net.send(0, c, "signal")
    assert net.ledger.messages_to_dead == 1


def test_broadcast_convergecast_singleton():
    net = Network()
    value, walked = net.broadcast_convergecast(
        0, scope_of(net, 0, {0}).__getitem__, lambda v: 1)
    assert (value, walked) == (1, {0: []})
    assert net.ledger.messages_total == 0


def test_broadcast_convergecast_five_nodes():
    # the whole tree, then a map that leaves out node 1's child 4 and
    # node 0's child 2; the walked map lists members as the walk pops
    # them, in depth-first preorder with children in port order (a
    # compact new child goes first)
    for members in ({0, 1, 2, 3, 4}, {0, 1, 3}):
        net = build_net([0, 0, 1, 1])
        scope = scope_of(net, 0, members)
        count, walked = net.broadcast_convergecast(0, scope.__getitem__,
                                                   lambda v: 1)
        assert count == len(members)
        assert walked == scope
        assert list(walked) == ([0, 2, 1, 4, 3] if len(members) == 5
                                else [0, 1, 3])
        assert net.ledger.messages_total == 2 * (len(members) - 1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(parents=st.lists(st.integers(0, 1 << 16), max_size=30),
       assignment=st.sampled_from(list(PortAssignment)),
       root=st.integers(0, 1 << 16), cut=st.sets(st.integers(1, 30)))
def test_walked_map_is_a_port_order_preorder(parents, assignment, root, cut):
    """The walked map is a stack preorder of the children lists the
    members named, each member's children in the order named, key order
    included, on any subtree and any kept-child predicate."""
    parents = [p % (i + 1) for i, p in enumerate(parents)]
    net = build_net(parents, assignment=assignment)
    root %= net.alive_count

    def kept(v):
        return [c for c in net.children[v] if c not in cut]

    count, walked = net.broadcast_convergecast(root, kept, lambda v: 1)
    want = preorder_scope(root, kept)
    assert list(walked.items()) == list(want.items())
    assert count == len(want)


def test_broadcast_convergecast_custom_aggregate():
    net = build_net([0, 0, 1])
    weight = {0: 5, 1: 2, 2: 1, 3: 9}
    total, _ = net.broadcast_convergecast(
        0, scope_of(net, 0, weight).__getitem__, weight.__getitem__)
    assert total == 17


def test_port_uniqueness_after_random_events_both_models():
    for assignment in (PortAssignment.COMPACT, PortAssignment.ADVERSARY,
                       PortAssignment.STABLE):
        rng = random.Random(9)
        net = Network(assignment=assignment, rng=random.Random(4))
        for step in range(300):
            leaves = [v for v in net.alive_nodes()
                      if v != 0 and net.is_leaf(v)]
            if leaves and rng.random() < 0.3:
                net.remove_leaf(leaves[rng.randrange(len(leaves))])
            else:
                pool = net.alive_list
                net.add_leaf(pool[rng.randrange(len(pool))])
            assert net.check_ports() == []
            assert net.check_tree_shape() == []


def _star_stream(adds=2000):
    """Compact adds at the root, then removals of the children at the
    front, middle and end of its list: (kind, target) pairs, removal
    targets picked from the ids the adds hand out (1..adds, listed
    newest first)."""
    events = [("A", 0)] * adds
    for v in (adds, adds // 2, 1, adds - 1, adds // 2 + 1, 2):
        events.append(("R", v))
    return events


def test_compact_star_stores_no_child_port():
    """A child's compact port is its position, newest first: after adds
    and removals anywhere in the list, nothing is stored for it and the
    root's ports are still exactly 1..k."""
    net = Network()
    for kind, v in _star_stream():
        if kind == "A":
            net.add_leaf(v)
        else:
            net.remove_leaf(v)
        assert net.down_port == {}
    kids = net.children[0]
    assert len(kids) == 1994
    assert ports_at(net, 0) == list(range(1, len(kids) + 1))
    assert kids == sorted(kids, reverse=True)
    assert net.check_ports() == []


def test_designer_scheme_on_a_compact_star_scans_clean():
    net = Network()
    s = DynamicScheme(net, "distance", QuotaFunction.parse("pow:0.5"))
    for kind, v in _star_stream():
        s.apply(ScenarioEvent(kind, v))
        assert s.scan_invariants() == []
    assert net.down_port == {}


def test_compact_parent_port_on_a_child_position_fires():
    """The one compact port fault left: a node's parent port among its
    children's positions 1..k."""
    net = build_net([0, 1, 1, 1])
    assert net.up_port[1] == 4 and net.check_ports() == []
    for p in (1, 2, 3):
        net.up_port[1] = p
        assert net.check_ports() == [f"node 1: parent port {p} is also a "
                                     f"child port"]
    net.up_port[1] = 9
    assert net.check_ports() == []


def test_replay_message_count_is_deterministic():
    def one_run():
        net = Network(assignment=PortAssignment.ADVERSARY,
                      rng=random.Random(12))
        for parent in [0, 0, 1, 2, 2, 0]:
            net.add_leaf(parent)
        net.charge_path(6, 0, "signal")
        net.broadcast_convergecast(0, net.children.__getitem__, lambda v: 1)
        return net.ledger.messages_total, dict(net.ledger.by_category)

    assert one_run() == one_run()


def test_scenario_format_round_trip():
    events = [ScenarioEvent("A", 0), ScenarioEvent("A", 1),
              ScenarioEvent("R", 2), ScenarioEvent("A", 0)]
    text = format_scenario(events)
    assert text == "A 0\nA 1\nR 2\nA 0\n"
    assert parse_scenario(text) == events


def test_scenario_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scenario("A 0\nX 1\n")


def test_metrics_csv(tmp_path):
    net = build_net([0, 0])
    net.ledger.snapshot_event(1, 2)
    net.ledger.snapshot_event(2, 3)
    out = tmp_path / "m.csv"
    net.ledger.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "event,n,messages,maxLabelBits,maxMemBits"
    assert len(lines) == 3


def test_per_event_log_tree_sizes_match_alive_count():
    net = Network()
    for i, parent in enumerate([0, 1, 0], 1):
        net.add_leaf(parent)
        net.ledger.snapshot_event(i, net.alive_count)
    sizes = [row[1] for row in net.ledger.per_event_rows]
    assert sizes == [2, 3, 4]


def test_messages_total_monotone():
    net = build_net([0, 0, 1])
    seen = []
    for frm, to in [(3, 0), (2, 0), (1, 0)]:
        net.charge_path(frm, to, "signal")
        seen.append(net.ledger.messages_total)
    assert seen == sorted(seen)


class CountedPorts:
    """A seeded port source that fails after too many draws, so a
    rejection loop that never ends fails the test instead of hanging."""

    def __init__(self, seed, limit=1000):
        self.rng = random.Random(seed)
        self.left = limit

    def randrange(self, n):
        self.left -= 1
        assert self.left >= 0, "too many port draws"
        return self.rng.randrange(n)


def test_full_adversary_port_range_rejects_the_add():
    net = Network(assignment=PortAssignment.ADVERSARY, rng=CountedPorts(1),
                  port_cap=1)
    net.add_leaf(0)
    net.add_leaf(0)
    before = (net.next_id, ports_at(net, 0), net.alive_count)
    with pytest.raises(InvalidEvent, match="no free port"):
        net.add_leaf(0)
    assert (net.next_id, ports_at(net, 0), net.alive_count) == before
    assert net.check_ports() == []


def test_full_adversary_port_range_at_a_non_root_node_counts_its_parent_port():
    """Ports 0..c at a non-root node: its parent port leaves c for
    children, and a draw equal to the parent port is drawn again."""
    cap = 3
    net = Network(assignment=PortAssignment.ADVERSARY, port_cap=cap,
                  rng=FixedPorts([1, 2]))
    u = net.add_leaf(0)
    assert net.up_port[u] == 2
    net.rng = FixedPorts([2, 0, 0, 1, 0, 3, 0])
    kids = [net.add_leaf(u) for _ in range(cap)]
    assert [net.down_port[c] for c in kids] == [0, 1, 3]
    assert net.rng.script == []          # the draw of 2 was redrawn
    before = (net.next_id, dict(net.down_port), dict(net.up_port))
    with pytest.raises(InvalidEvent, match="no free port"):
        net.add_leaf(u)
    assert (net.next_id, net.down_port, net.up_port) == before
    assert net.check_ports() == []


# ids -1..13 name the root, nodes alive or removed, and ids never handed
# out; a "wild" scope maps them to lists of them, so its hops reach
# non-neighbours, removed nodes and missing keys
IDS = st.integers(-1, 13)
TRAVERSALS = st.lists(st.tuples(
    st.sampled_from(["path", "children", "subtree", "singleton", "wild"]),
    IDS, IDS,
    st.lists(IDS, max_size=10),
    st.dictionaries(IDS, st.lists(IDS, max_size=3), max_size=10),
    st.one_of(st.none(), IDS),
    st.sampled_from(["signal", "watch", "reset_count", "marker"])),
    min_size=1, max_size=5)


def _traverse(net, walkers, op):
    """One relay or convergecast by ``walkers`` (the network's own or the
    per-hop references): its return value or its error, type and
    message."""
    kind, a, b, members, wild, fail_at, category = op
    charge_path, convergecast = walkers

    def aggregate(v):
        if v == fail_at:
            raise LookupError(f"no weight at {v}")
        return 3 * v + 1

    if kind == "path":
        call = lambda: charge_path(net, a, b, category)
    else:
        if kind == "children":
            scope = net.children
        elif kind == "subtree":
            known = {v for v in (a, *members) if v in net.children}
            scope = scope_of(net, a, known) if a in known else {}
        elif kind == "singleton":
            scope = {a: []}
        else:
            scope = wild
        call = lambda: convergecast(net, a, scope.__getitem__, aggregate,
                                    category)
    try:
        return call()
    except (SimulationError, LookupError) as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(parents=st.lists(st.integers(0, 1 << 16), max_size=12),
       removals=st.lists(st.integers(0, 1 << 16), max_size=4),
       traversals=TRAVERSALS)
def test_walkers_return_raise_and_charge_as_per_hop_sends(parents, removals,
                                                         traversals):
    """A relay or convergecast charges its hops in one ledger entry, yet
    returns, raises and charges exactly what one ``send`` per hop does:
    the same value or error, totals, dead-node count and categories in
    the same order, also when a hop or the aggregate raises mid-way."""
    parents = [p % (i + 1) for i, p in enumerate(parents)]
    nets = [build_net(parents), build_net(parents)]
    for net in nets:
        for i in removals:
            leaves = [v for v in net.alive_list
                      if v != net.root and net.is_leaf(v)]
            if leaves:
                net.remove_leaf(leaves[i % len(leaves)])
    walkers = [(Network.charge_path, Network.broadcast_convergecast),
               (ref_charge_path, ref_broadcast_convergecast)]
    for op in traversals:
        got, want = (_traverse(net, w, op) for net, w in zip(nets, walkers))
        assert got == want
        new, ref = (net.ledger for net in nets)
        assert new.messages_total == ref.messages_total
        assert new.messages_to_dead == ref.messages_to_dead
        assert list(new.by_category.items()) == list(ref.by_category.items())
