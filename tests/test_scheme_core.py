import dataclasses
import itertools
import random

import pytest

from dynlabel import (DynamicScheme, FiniteScheme, IncreasingScheme, Network,
                      PortAssignment, QuotaFunction, RunConfig, bits,
                      decode_labels, decode_dynamic_label,
                      dynamic_label_bits, encode_dynamic_label,
                      generate_scenario, get_function, run, scheme_for)
from dynlabel import static_schemes
from dynlabel.harness import RUN_ERRORS, build_network, build_runner
from dynlabel.scheme_core import SchemeCore, SchemeError
from dynlabel.simnet import InvalidEvent
from dynlabel.static_schemes import DecodeError

from _util import build_net, grow_random, scope_of, stale_labels


def _label_depth(lab):
    d = 1
    while lab[0] == "N":
        d += 1
        lab = lab[3]
    return d


def test_singleton_install_gives_one_label_no_messages():
    net = Network()
    s = FiniteScheme(net, "distance", quota=2, levels=3)
    assert net.ledger.messages_total == 0
    assert s.query(0, 0) == 0


def test_second_add_finishes_when_quota_two():
    net = Network()
    s = FiniteScheme(net, "ancestry", quota=2, levels=1)
    s.add_leaf(0)
    assert not s.finished
    s.add_leaf(0)
    assert s.finished
    assert s.joins_at_finish == 2


def test_quota_three_single_level_takes_three_joins():
    net = Network()
    s = FiniteScheme(net, "ancestry", quota=3, levels=1)
    resets_before = net.ledger.reset_count
    for i in range(3):
        s.add_leaf(0)
    assert s.finished
    assert s.joins_at_finish == 3
    assert net.ledger.reset_count - resets_before == 3


def test_each_add_triggers_exactly_one_level_one_reset():
    net = Network()
    s = FiniteScheme(net, "distance", quota=50, levels=1)
    for i in range(1, 8):
        before = net.ledger.reset_count
        s.add_leaf(0)
        assert net.ledger.reset_count - before == 1


def test_reset_of_five_node_scope_costs_eight_count_messages():
    net = Network()
    s = FiniteScheme(net, "ancestry", quota=60, levels=1)
    for _ in range(3):
        s.add_leaf(0)
    count_before = net.ledger.category("reset_count")
    marker_before = net.ledger.category("marker")
    s.add_leaf(0)  # fifth node joins; the whole 5-node scope resets
    assert net.ledger.category("reset_count") - count_before == 8
    assert net.ledger.category("marker") - marker_before == 8


@pytest.mark.parametrize("assignment", [PortAssignment.COMPACT,
                                        PortAssignment.ADVERSARY])
def test_reset_below_the_top_reads_no_child_list(assignment, monkeypatch):
    """A level-1 reset walks the scope the port bookkeeping names once;
    counting, marking and bookkeeping read that map, so a join under
    the root of a 300-child star never lists a node's children."""
    net = Network(assignment=assignment, rng=random.Random(5))
    s = FiniteScheme(net, "ancestry", quota=1000, levels=2)
    for _ in range(300):
        s.add_leaf(0)
    calls = []
    listed = Network.children_by_port
    monkeypatch.setattr(Network, "children_by_port",
                        lambda net, v: calls.append(v) or listed(net, v))
    resets = net.ledger.reset_count
    marker = net.ledger.category("marker")
    s.add_leaf(0)
    assert net.ledger.reset_count == resets + 1
    assert net.ledger.category("marker") - marker == 2 * 301  # all 302 nodes
    assert calls == []


def test_consecutive_resets_reissue_fresh_labels():
    net = Network()
    s = FiniteScheme(net, "ancestry", quota=10, levels=1)
    s.add_leaf(0)
    first = s.core.states[0].statics[1]
    s.add_leaf(0)
    second = s.core.states[0].statics[1]
    assert first != second


def test_two_levels_quota_two_needs_four_joins():
    net = Network()
    s = FiniteScheme(net, "distance", quota=2, levels=2)
    last = 0
    while not s.finished:
        last = s.add_leaf(last)
    assert s.joins_at_finish == 4


def test_promotion_seeds_fresh_scope_roots_exactly_on_members():
    net = Network()
    s = FiniteScheme(net, "distance", quota=2, levels=3)
    s.add_leaf(0)
    members_before = sorted(net.alive_nodes())
    s.add_leaf(0)  # fills the level-1 quota, promoting to level 2
    core = s.core
    for v in members_before:
        assert core.states[v].top_scope >= 1
    # the node added after the promotion is not a scope root
    fresh = s.add_leaf(0)
    assert core.states[fresh].top_scope == 0


def test_top_tally_counts_top_resets():
    net = Network()
    s = FiniteScheme(net, "distance", quota=3, levels=2)
    last = 0
    for _ in range(3):
        last = s.add_leaf(last)
    assert s.core.states[0].tally[2] == 1
    for _ in range(3):
        last = s.add_leaf(last)
    assert s.core.states[0].tally[2] == 2


def test_finish_applies_seeding_quota_minus_one_times():
    net = Network()
    s = FiniteScheme(net, "ancestry", quota=2, levels=2)
    last = 0
    while not s.finished:
        last = s.add_leaf(last)
    assert s.joins_at_finish == 4
    # one seeding broadcast over the three members alive at promotion
    assert net.ledger.category("broadcast") == 2


def test_add_after_finish_rejected():
    net = Network()
    s = FiniteScheme(net, "ancestry", quota=2, levels=1)
    s.add_leaf(0)
    s.add_leaf(0)
    with pytest.raises(SchemeError):
        s.add_leaf(0)


def test_removal_rejected_without_dynamic_mode():
    net = Network()
    s = FiniteScheme(net, "ancestry", quota=9, levels=1)
    s.add_leaf(0)
    with pytest.raises(InvalidEvent):
        net.remove_leaf(1)


def test_quota_below_two_rejected():
    net = Network()
    with pytest.raises(SchemeError):
        FiniteScheme(net, "ancestry", quota=1, levels=1)


def test_level_one_labels_are_bare_static_labels():
    net = Network()
    s = FiniteScheme(net, "distance", quota=5, levels=1)
    s.add_leaf(0)
    lab = s.label(1)
    assert lab[0] == "L"
    assert _label_depth(lab) == 1


def test_anchor_link_value_is_self_value():
    net = Network()
    s = FiniteScheme(net, "distance", quota=2, levels=2)
    s.add_leaf(0)
    s.add_leaf(0)  # promotion: level-2 wrapper appears
    lab = s.label(0)
    assert lab[0] == "N"
    assert lab[2] == 0  # distance from the scope root to itself


def test_nesting_depth_bounded_by_levels_and_reaches_them():
    rng = random.Random(8)
    net = Network()
    s = FiniteScheme(net, "distance", quota=2, levels=3)
    hit = False
    while not s.finished:
        pool = net.alive_list
        s.add_leaf(pool[rng.randrange(len(pool))])
        depths = [_label_depth(s.label(v)) for v in net.alive_nodes()]
        assert max(depths) <= 3
        if max(depths) == 3:
            hit = True
    assert hit


def test_decode_same_node_gives_identity():
    net = Network()
    s = FiniteScheme(net, "distance", quota=2, levels=2)
    s.add_leaf(0)
    s.add_leaf(1)
    for v in net.alive_nodes():
        assert s.query(v, v) == 0


def test_cross_scope_decode_composes_hand_built_labels():
    """Two nodes speak through their scope roots: two hops on one side,
    four between the roots, one on the other side, seven in total."""
    # 0-1-2-3-4 is the root path, 5-6 hang under 0, 7 hangs under 4
    net = build_net([0, 1, 2, 3, 0, 5, 4])
    pi = scheme_for("distance")
    fn = get_function("distance")
    statics = pi.marker(net, 0, scope_of(net, 0, net.alive_nodes()))
    lx = ("N", statics[0], 2, ("L", statics[6]))
    ly = ("N", statics[4], 1, ("L", statics[7]))
    assert decode_labels(fn, pi, lx, ly) == 7
    assert fn.oracle(net, 6, 7) == 7


def test_decode_mismatched_nesting_rejected():
    net = build_net([0])
    pi = scheme_for("distance")
    fn = get_function("distance")
    statics = pi.marker(net, 0, scope_of(net, 0, {0, 1}))
    with pytest.raises(DecodeError):
        decode_labels(fn, pi, ("L", statics[0]),
                      ("N", statics[1], 1, ("L", statics[1])))


@pytest.mark.parametrize("name", ["ancestry", "distance", "seplevel", "routing"])
def test_random_growth_queries_match_oracle(name):
    from dynlabel import PortAssignment
    rng = random.Random(61)
    if name == "routing":
        net = Network(assignment=PortAssignment.STABLE)
        s = FiniteScheme(net, name, quota=3, levels=3)
    else:
        net = Network()
        s = FiniteScheme(net, name, quota=3, levels=3)
    fn = get_function(name)
    while not s.finished and s.joins < 60:
        pool = net.alive_list
        s.add_leaf(pool[rng.randrange(len(pool))])
        nodes = net.alive_nodes()
        for _ in range(30):
            u = nodes[rng.randrange(len(nodes))]
            v = nodes[rng.randrange(len(nodes))]
            assert s.query(u, v) == fn.oracle(net, u, v), (name, u, v)


@pytest.mark.parametrize("port_model", ["designer", "adversary"])
@pytest.mark.parametrize("name", ["ancestry", "distance", "seplevel", "routing"])
def test_increasing_ever_shares_stay_one(name, port_model):
    """Without deletions every alive node's ever-share is 1 at every
    level after every event, phase shifts included, so the ever-share
    sum a reset counts is its member count."""
    config = RunConfig(seed=5, events=300, function=name,
                       port_model=port_model)
    net = build_network(config)
    runner = build_runner(config, net)
    for ev in generate_scenario(config.seed, config.events, 0.0):
        runner.apply(ev)
        states, ones = runner.core.states, [1] * runner.levels
        assert all(states[v].ever_share[1:] == ones
                   for v in net.alive_list), ev
    assert runner.phase_log


def test_decomposition_invariants_hold_after_every_event():
    rng = random.Random(71)
    net = Network()
    s = FiniteScheme(net, "distance", quota=2, levels=3, verify_scopes=True)
    while not s.finished:
        pool = net.alive_list
        s.add_leaf(pool[rng.randrange(len(pool))])
        assert s.scan_invariants() == []


def test_message_bound_five_per_level_per_quota():
    for quota, levels in [(2, 1), (2, 3), (3, 2)]:
        rng = random.Random(quota * 10 + levels)
        net = Network()
        s = FiniteScheme(net, "ancestry", quota=quota, levels=levels)
        while not s.finished:
            pool = net.alive_list
            s.add_leaf(pool[rng.randrange(len(pool))])
        bound = 5 * levels * quota * net.ledger.marker_max_messages
        assert net.ledger.protocol_messages() <= bound


def test_dynamic_label_wire_round_trip():
    rng = random.Random(77)
    net = Network()
    s = FiniteScheme(net, "seplevel", quota=3, levels=3)
    grow_random(s, net, rng, 10)
    pi = scheme_for("seplevel")
    fn = get_function("seplevel")
    for v in net.alive_nodes():
        lab = s.label(v)
        wire = encode_dynamic_label(pi, fn, lab)
        assert len(wire) == dynamic_label_bits(fn, lab)
        back, pos = decode_dynamic_label(pi, fn, wire)
        assert back == lab and pos == len(wire)


def test_grown_core_decodes_from_wire_alone():
    rng = random.Random(83)
    net = Network()
    s = FiniteScheme(net, "distance", quota=4, levels=2)
    grow_random(s, net, rng, 15)
    pi = scheme_for("distance")
    fn = get_function("distance")
    nodes = net.alive_nodes()
    for _ in range(50):
        u = nodes[rng.randrange(len(nodes))]
        v = nodes[rng.randrange(len(nodes))]
        lu, _ = decode_dynamic_label(pi, fn, encode_dynamic_label(pi, fn, s.label(u)))
        lv, _ = decode_dynamic_label(pi, fn, encode_dynamic_label(pi, fn, s.label(v)))
        assert decode_labels(fn, pi, lu, lv) == fn.oracle(net, u, v)


@pytest.mark.parametrize("name", ["ancestry", "distance", "seplevel", "routing"])
def test_wire_blocks_with_trailing_bits_are_rejected(name):
    """A static or value block must hold exactly what its layout reads:
    padding either one gives a second wire for the same label."""
    net = build_net([0, 0], assignment=PortAssignment.STABLE)
    pi, fn = scheme_for(name), get_function(name)
    labels = pi.marker(net, 0, scope_of(net, 0, net.alive_nodes()))
    lab = ("N", labels[0], fn.oracle(net, 0, 1), ("L", labels[1]))
    wire = encode_dynamic_label(pi, fn, lab)
    assert decode_dynamic_label(pi, fn, wire) == (lab, len(wire))
    static, _, pos = bits.read_block(pi.layout, wire, 1)
    value, _, pos = bits.read_block(fn.layout, wire, pos)
    static = bits.encode(pi.layout, static)
    value = bits.encode(fn.layout, value)
    inner = wire[pos:]
    for pad in ("0", "1", "1111"):
        with pytest.raises(bits.BitsError):
            decode_dynamic_label(pi, fn, "0" + bits.block(static + pad))
        with pytest.raises(bits.BitsError):
            decode_dynamic_label(pi, fn, "1" + bits.block(static)
                                 + bits.block(value + pad) + inner)


@pytest.mark.parametrize("name", ["ancestry", "distance", "seplevel", "routing"])
def test_static_labels_are_sized_once_when_built(monkeypatch, name):
    """Over a grown leaf-dynamic run, every label a marker builds
    carries its layout's exact bit count, and the static layout is never
    sized while an event's labels are measured: nested labels are sized
    from the bits their parts carry.  (The separator marker sizes its
    labels as it builds them, without ``bits.size``.)"""
    pi = scheme_for(name)
    built, sized, flushing = [], [], []
    real_size, real_flush = bits.size, SchemeCore._flush_event

    def size(layout, value):
        if layout is pi.layout and flushing:
            sized.append(value)
        return real_size(layout, value)

    def marker(*args):
        labels = pi.marker(*args)
        built.extend(labels.values())
        return labels

    def flush(core):
        flushing.append(core)
        try:
            real_flush(core)
        finally:
            flushing.pop()

    monkeypatch.setattr(bits, "size", size)
    monkeypatch.setattr(SchemeCore, "_flush_event", flush)
    monkeypatch.setitem(static_schemes.SCHEMES, name,
                        dataclasses.replace(pi, marker=marker))
    net = Network(assignment=PortAssignment.STABLE, rng=random.Random(5))
    s = DynamicScheme(net, name, QuotaFunction.parse("pow:0.5"))
    for ev in generate_scenario(5, 300, 0.3):
        s.apply(ev)
    assert s.restart_log and len(built) > 300
    assert sized == []
    assert [lab for lab in built
            if lab[-1] != real_size(pi.layout, lab[:-1])] == []


def _checked_flushes(monkeypatch):
    """Compare every stored label and anchor row with a walk to the
    root after every flush; returns the list of flushes checked."""
    real = SchemeCore._flush_event
    checked = []

    def flush(core):
        real(core)
        assert stale_labels(core) == []
        checked.append(core.net.alive_count)
    monkeypatch.setattr(SchemeCore, "_flush_event", flush)
    return checked


@pytest.mark.parametrize("function", ["ancestry", "distance", "seplevel",
                                      "routing"])
def test_stored_labels_match_a_walk_over_real_runs(monkeypatch, function):
    checked = _checked_flushes(monkeypatch)
    for model, p_delete in (("increasing", 0.0), ("dynamic", 0.3)):
        for port_model in ("designer", "adversary"):
            r = run(RunConfig(seed=1, events=200, model=model,
                              p_delete=p_delete, port_model=port_model,
                              function=function, verify="sampled:4"))
            assert r.passed(), (model, port_model)
    assert len(checked) >= 4 * 200


def test_stored_labels_match_a_walk_on_a_chain(monkeypatch):
    checked = _checked_flushes(monkeypatch)
    net = Network()
    s = IncreasingScheme(net, "distance", QuotaFunction.parse("pow:0.5"))
    last = 0
    for _ in range(400):
        last = s.add_leaf(last)
    assert checked[-1] == 401 and s.phase_log


def test_labels_are_assembled_once_per_dirty_node_at_flush(monkeypatch):
    """Labels are built only while a flush runs, once for each alive node
    the event marked; queries and oracle checks only read them."""
    flush, refresh = SchemeCore._flush_event, SchemeCore._refresh_label
    open_flushes, outside, sizes = [], [], []

    def flushing(core):
        want = sorted(filter(core.net.is_alive, core._dirty))
        open_flushes.append([])
        flush(core)
        assert open_flushes.pop() == want
        sizes.append(len(want))

    def refreshing(core, x):
        (open_flushes[-1] if open_flushes else outside).append(x)
        return refresh(core, x)
    monkeypatch.setattr(SchemeCore, "_flush_event", flushing)
    monkeypatch.setattr(SchemeCore, "_refresh_label", refreshing)
    for verify, events in (("sampled:64", 300), ("exhaustive", 120)):
        r = run(RunConfig(seed=3, events=events, model="dynamic",
                          p_delete=0.3, function="distance", verify=verify))
        assert r.passed() and r.queries_checked > events
    assert outside == [] and sum(sizes) > 300


def test_label_objects_change_with_their_values_and_are_sized_once(
        monkeypatch):
    """After every flush the stored label of each refreshed node equals
    the one just rebuilt, and a node keeps its label object exactly when
    the rebuilt label equals the stored one; the ledger's maximum label
    size is the largest size of any label object ever stored, so a kept
    object needs no sizing again."""
    flush, refresh = SchemeCore._flush_event, SchemeCore._refresh_label
    rebuilt = {}
    largest = kept = changed = 0

    def refreshing(core, x):
        rebuilt[x] = refresh(core, x)
        return rebuilt[x]

    def flushing(core):
        nonlocal largest, kept, changed
        before = dict(core.labels)
        rebuilt.clear()
        flush(core)
        labels = core.labels
        for x, lab in rebuilt.items():
            assert labels[x] == lab
            if x in before:
                assert (labels[x] is before[x]) == (lab == before[x])
                kept += labels[x] is before[x]
                changed += labels[x] is not before[x]
        for x, lab in labels.items():
            assert (lab is before.get(x)) or x in rebuilt
            largest = max(largest, dynamic_label_bits(core.fn, lab))
        assert core.net.ledger.max_label_bits == largest

    monkeypatch.setattr(SchemeCore, "_flush_event", flushing)
    monkeypatch.setattr(SchemeCore, "_refresh_label", refreshing)
    grid = itertools.product(("ancestry", "distance", "seplevel", "routing"),
                             ("increasing", "dynamic"),
                             ("designer", "adversary"))
    for seed, (function, model, port_model) in enumerate(grid):
        largest = 0
        r = run(RunConfig(seed=seed, events=300, model=model,
                          p_delete=0.3 if model == "dynamic" else 0.0,
                          port_model=port_model, function=function,
                          verify="off", invariants="off"))
        assert r.passed() and r.events_applied == 300
    assert kept > 0 and changed > 0


def test_a_removed_leaf_has_no_label():
    net = Network()
    s = DynamicScheme(net, "distance", QuotaFunction.parse("pow:0.5"))
    grow_random(s, net, random.Random(5), 20)
    leaf = next(v for v in net.alive_list if v != net.root and net.is_leaf(v))
    s.remove_leaf(leaf)
    for w in (leaf, net.next_id):
        with pytest.raises(SchemeError, match="not alive"):
            s.label(w)
    assert issubclass(SchemeError, RUN_ERRORS)
