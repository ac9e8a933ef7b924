"""Every message of ``scan_invariants`` fires on a state broken for it,
its messages on a fixed corpus of corrupted states stay as recorded, and
each of its checks reports what its per-level reference in ``_util.py``
reports."""

import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dynlabel import (DynamicScheme, FiniteScheme, IncreasingScheme, Network,
                      PortAssignment, QuotaFunction)

from _corpus import SCHEME_FIELDS, _corrupt, corpus
from _util import (child_ports, ref_adversary_faults, ref_backup_faults,
                   ref_designer_faults, ref_ever_share_faults,
                   ref_port_faults, scan_flags)

CORPUS_FILE = Path(__file__).parent / "data" / "scan_corpus.jsonl"


def _grown(port_model, seed=3, events=150, model=DynamicScheme):
    """A distance scheme after a random stream: adds and removals for the
    leaf-dynamic model, adds only for the leaf-increasing one."""
    assignment = {"designer": PortAssignment.COMPACT,
                  "adversary": PortAssignment.ADVERSARY,
                  "stable": PortAssignment.STABLE}[port_model]
    net = Network(assignment=assignment, rng=random.Random(seed + 100))
    s = model(net, "distance", QuotaFunction.parse("pow:0.5"))
    p_delete = 0.3 if model is DynamicScheme else 0.0
    rng = random.Random(seed)
    for _ in range(events):
        leaves = [v for v in net.alive_nodes() if v != 0 and net.is_leaf(v)]
        if leaves and rng.random() < p_delete:
            s.remove_leaf(leaves[rng.randrange(len(leaves))])
        else:
            s.add_leaf(net.alive_list[rng.randrange(len(net.alive_list))])
    assert s.scan_invariants() == []
    assert s.levels >= 3
    return net, s.core


def _flag(core, v):
    return max(0, min(core.states[v].top_scope, core.levels))


def _scoped_child(net, core):
    """(v, l, u): v's children share one flag below l, so u, the first
    of them in port order, is inside v's level-l scope."""
    for v in sorted(net.alive_nodes()):
        kids = net.children_by_port(v)
        flags = {_flag(core, c) for c in kids}
        if len(flags) == 1 and min(flags) < core.levels - 1:
            return v, min(flags) + 1, kids[0]
    raise AssertionError("no scoped child")


def _unscoped_child(net, core):
    """(v, u): no child of v is inside one of its lower scopes, and u is
    the first of them in port order."""
    for v in sorted(net.alive_nodes()):
        kids = net.children_by_port(v)
        if kids and min(_flag(core, c) for c in kids) >= core.levels - 1:
            return v, kids[0]
    raise AssertionError("no node without scoped children")


def _fires(core, text):
    msgs = core.scan_invariants()
    assert any(text in m for m in msgs), msgs
    return msgs


def test_ever_share_sum_fires():
    net, core = _grown("designer")
    leaf = next(v for v in net.alive_nodes() if net.is_leaf(v))
    core.states[leaf].ever_share[1] += 1
    _fires(core, "ever-share sum of level-1 scope at")


def test_descendant_closure_fires():
    net, core = _grown("designer")
    v, c = next((v, c) for v in sorted(net.alive_nodes()) if v != net.root
                and _flag(core, v) < core.levels
                for c in net.children[v])
    t = _flag(core, v) + 1
    core.states[c].top_scope = t
    _fires(core, f"descendant closure broken at {v}->{c} level {t}")


def test_root_flag_fires():
    net, core = _grown("designer")
    core.states[net.root].top_scope -= 1
    _fires(core, "root is not a top-level scope root")


def test_designer_watermark_fires():
    net, core = _grown("designer")
    v = next(v for v in net.alive_nodes() if net.children[v])
    core.states[v].watermark[1] += 1
    _fires(core, f"designer watermark at node {v} level 1")


def test_negative_designer_watermark_fires():
    """A leaf has no scoped child, so a watermark below 0 names the same
    empty port set as 0 and only the sign check can see it."""
    net, core = _grown("designer")
    leaf = next(v for v in net.alive_nodes() if net.is_leaf(v))
    core.states[leaf].watermark[1] = -2
    assert core.scan_invariants() == [
        f"designer watermark at node {leaf} level 1: -2 < 0"]


def test_adversary_count_fires():
    net, core = _grown("adversary")
    v = next(v for v in net.alive_nodes() if net.children[v])
    core.states[v].scoped_count[1] += 1
    _fires(core, f"adversary count at node {v} level 1")


@pytest.mark.parametrize("model", [IncreasingScheme, DynamicScheme])
def test_adversary_tables_fire(model):
    net, core = _grown("adversary", model=model)
    v, l, u = _scoped_child(net, core)
    core.states[u].slot_table[l] = -5
    _fires(core, f"adversary tables at node {v} level {l}")


def test_adversary_backref_presence_fires():
    net, core = _grown("adversary")
    v, l, u = _scoped_child(net, core)
    core.states[u].slot_backref[l] = None
    _fires(core, f"adversary backref presence at node {v} level {l} child {u}")


def test_stray_backref_outside_every_lower_scope_fires():
    """A back-reference at a child that no lower scope holds, under a
    parent that hosts no scoped child."""
    net, core = _grown("adversary")
    v, u = _unscoped_child(net, core)
    core.states[u].slot_backref[1] = net.down_port[u]
    _fires(core, f"adversary backref presence at node {v} level 1 child {u}")


@pytest.mark.parametrize("port_model,field,text", [
    ("designer", "watermark", "designer watermark"),
    ("adversary", "scoped_count", "adversary count")])
def test_lower_scope_counter_at_a_node_without_scoped_children_fires(
        port_model, field, text):
    net, core = _grown(port_model)
    v, _ = _unscoped_child(net, core)
    getattr(core.states[v], field)[2] = 1
    _fires(core, f"{text} at node {v} level 2")


@pytest.mark.parametrize("port_model,text", [
    ("designer", "designer watermark at node {v} level {l}: [] != [{p}]"),
    ("adversary", "adversary count at node {v} level {l}: 0 != 1")])
def test_a_child_lowered_into_a_scope_makes_its_parent_checked(port_model,
                                                               text):
    """Lowering one child's flag below ``levels - 1`` puts it inside its
    parent's top lower scope, which the parent's bookkeeping omits."""
    net, core = _grown(port_model)
    v, u = _unscoped_child(net, core)
    l = core.levels - 1
    core.states[u].top_scope = l - 1
    p = child_ports(net, v)[net.children[v].index(u)]
    _fires(core, text.format(v=v, l=l, p=p))


def test_adversary_backref_target_fires():
    net, core = _grown("adversary")
    v, l, u = _scoped_child(net, core)
    core.states[u].slot_backref[l] = -7       # no such port at v
    _fires(core, f"adversary backref target at node {v} level {l} child {u}")


def test_missing_backup_copy_fires():
    net, core = _grown("designer")
    v = next(v for v in net.alive_nodes() if net.children[v])
    u = net.children[v][0]
    for held in core.backups.copies.values():
        held.pop(u, None)
    _fires(core, f"no copy of child {u} at {v} or")


def test_more_than_two_copies_fires():
    net, core = _grown("designer")
    holder = net.root
    held = core.backups.copies.setdefault(holder, {})
    for s in net.alive_nodes()[:3]:
        held.setdefault(s, {})
    _fires(core, f"node {holder} holds {len(held)} copies")


def test_dead_holder_fires():
    net, core = _grown("designer")
    dead = next(v for v in range(net.next_id) if not net.is_alive(v))
    core.backups.copies[dead] = {net.root: {}}
    _fires(core, f"dead node {dead} holds copies")


@pytest.mark.parametrize("port_model", ["designer", "adversary"])
def test_child_port_equal_to_the_parent_port_fires(port_model):
    net, core = _grown(port_model)
    v = next(v for v in net.alive_nodes()
             if v != net.root and net.children[v])
    net.up_port[v] = child_ports(net, v)[-1]
    _fires(core, f"node {v}: parent port {net.up_port[v]} is also a "
                 f"child port")


@pytest.mark.parametrize("port_model", ["designer", "adversary"])
def test_a_deleted_child_leaves_no_port_behind(port_model):
    """The stored ports of a removed leaf's edge are dropped with it, so
    no entry for it can linger at its parent; compact child ports are
    positions and never stored."""
    net, core = _grown(port_model)
    leaf = next(v for v in net.alive_nodes() if v != net.root
                and net.is_leaf(v) and len(net.children[net.parent[v]]) > 1)
    core.apply_remove(leaf)
    assert leaf not in net.down_port and leaf not in net.up_port
    edges = set(net.alive_list) - {net.root}
    assert net.up_port.keys() == edges
    assert net.down_port.keys() == (set() if port_model == "designer"
                                    else edges)
    assert core.scan_invariants() == []


def test_adversary_port_above_cap_fires():
    net, core = _grown("adversary")
    v = next(v for v in net.alive_nodes() if net.children[v])
    c = net.children[v][0]
    net.down_port[c] = net.port_cap + 1
    _fires(core, f"node {v}: adversary ports")


def test_unreachable_node_fires():
    net, core = _grown("designer")
    leaf = next(v for v in net.alive_nodes() if v != net.root
                and net.is_leaf(v))
    net.children[net.parent[leaf]].remove(leaf)
    msgs = _fires(core, f"node {leaf} unreachable from root")
    assert "alive count does not match reachable set" in msgs


@pytest.mark.parametrize("port_model", ["adversary", "stable"])
def test_misordered_children_fire(port_model):
    """Two children swapped in their parent's list are out of port
    order.  Compact child ports are list positions, so they cannot be."""
    text = "are not in port order"
    net, core = _grown(port_model)
    v = next(v for v in sorted(net.alive_nodes())
             if len(net.children[v]) >= 2)
    kids = net.children[v]
    kids[0], kids[1] = kids[1], kids[0]
    for msgs in (core.scan_invariants(), net.check_ports()):
        assert any(m.startswith(f"node {v}: ") and text in m
                   for m in msgs), msgs


def test_scope_query_violation_is_reported_once():
    """A bad scope read shows in the scan after its event, not again in
    the scans after later events."""
    net = Network()
    s = FiniteScheme(net, "distance", quota=50, levels=3, verify_scopes=True)
    for _ in range(6):
        s.add_leaf(0)
    s.core.states[0].watermark[1] -= 1
    s.add_leaf(0)
    first = [m for m in s.scan_invariants() if m.startswith("scope query")]
    assert first and first[0].startswith("scope query at node 0 level 1")
    s.add_leaf(0)
    assert not set(first) & set(s.scan_invariants())


def test_scope_query_violation_is_reported_by_a_finished_scheme():
    net = Network()
    s = FiniteScheme(net, "distance", quota=2, levels=2, verify_scopes=True)
    for _ in range(3):
        s.add_leaf(0)
    s.core.states[0].watermark[1] -= 1
    s.add_leaf(0)                     # fills the top quota
    assert s.finished
    msgs = s.scan_invariants()
    assert [m for m in msgs if m.startswith("scope query at node 0 level 1")]
    assert s.scan_invariants() == []


def test_closure_fault_is_reported_by_a_finished_scheme():
    """A finished scheme skips the per-level checks, but a child flagged
    above its parent still breaks the descendant closure."""
    net = Network()
    s = FiniteScheme(net, "distance", quota=2, levels=2)
    a = s.add_leaf(0)
    while not s.finished:
        b = s.add_leaf(a)
    assert s.scan_invariants() == []
    t = s.core.states[a].top_scope
    assert t < s.core.levels
    s.core.states[b].top_scope = t + 1
    assert s.scan_invariants() == [
        f"descendant closure broken at {a}->{b} level {t + 1}"]


def test_corpus_messages_match_the_recorded_ones():
    """The recorded file holds the scan's messages on the corpus of
    ``_corpus.py``; a change to the scan may not add, drop or reword any
    of them."""
    recorded = [json.loads(line) for line in CORPUS_FILE.read_text()
                .splitlines()]
    got = [[name, msgs] for name, msgs in corpus()]
    assert [name for name, _ in got] == [name for name, _ in recorded]
    for (name, msgs), (_, want) in zip(got, recorded):
        assert msgs == want, name
    # the corpus reaches the checks it is meant to exercise
    fired = Counter(m.split(" at ")[0] for _, msgs in got for m in msgs)
    assert fired["descendant closure broken"] > 0
    assert fired["adversary count"] > 0
    assert fired["designer watermark"] > 0


# random streams: (kind, index into the picked pool); a removal under the
# leaf-increasing model adds instead
STREAMS = st.lists(st.tuples(st.sampled_from("AAR"), st.integers(0, 1 << 16)),
                   min_size=10, max_size=120)


def _check_pairs(core):
    """(name, the scan's check, its reference) for every rewritten check."""
    flag = scan_flags(core)
    bk = (ref_designer_faults if core.bookkeeping.kind == "designer"
          else ref_adversary_faults)
    pairs = [("bookkeeping", core.bookkeeping.check(flag), bk(core, flag)),
             ("ever-share", core._ever_share_faults(flag),
              ref_ever_share_faults(core, flag)),
             ("ports", core.net.check_ports(), ref_port_faults(core.net))]
    if core.backups is not None:
        pairs.append(("backups", core.backups.check(),
                      ref_backup_faults(core.backups)))
    return [(name, sorted(got), sorted(want)) for name, got, want in pairs]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(port_model=st.sampled_from(["designer", "adversary"]),
       model=st.sampled_from([IncreasingScheme, DynamicScheme]),
       seed=st.integers(0, 1000), events=STREAMS)
def test_scan_checks_report_what_the_per_level_checks_report(
        port_model, model, seed, events):
    """After a random stream and then after one corruption of the
    corpus's kinds, each check reports the same messages as its
    per-level reference."""
    assignment = {"designer": PortAssignment.COMPACT,
                  "adversary": PortAssignment.ADVERSARY}[port_model]
    net = Network(assignment=assignment, rng=random.Random(seed))
    scheme = model(net, "distance", QuotaFunction.parse("pow:0.5"))
    for kind, i in events:
        leaves = [v for v in net.alive_list if v != net.root
                  and net.is_leaf(v)]
        if kind == "R" and leaves and model is DynamicScheme:
            scheme.remove_leaf(leaves[i % len(leaves)])
        else:
            scheme.add_leaf(net.alive_list[i % len(net.alive_list)])
    core = scheme.core
    for name, got, want in _check_pairs(core):
        assert got == want == [], name
    kinds = list(SCHEME_FIELDS)
    if core.levels >= 2 and net.alive_count > 1:
        kinds += (["watermark"] if port_model == "designer"
                  else ["scoped_count", "slot_table", "slot_backref"])
    if core.backups is not None and any(core.backups.copies.values()):
        kinds.append("backup")
    rng = random.Random(seed)
    _corrupt(rng, net, core, rng.choice(kinds))
    for name, got, want in _check_pairs(core):
        assert got == want, name
