"""Shared test helpers: exhaustive tree enumeration and builders."""

import random

from dynlabel import Network, PortAssignment, bits, scheme_core
from dynlabel.functions import outward
from dynlabel.harness import (AUTO_EXHAUSTIVE_LIMIT, EXHAUSTIVE_HARD_CAP,
                              ExhaustiveCapError, Mismatch)
from dynlabel.memory import BackupStore, counter_list_bits, take_snapshot
from dynlabel.simnet import SimulationError
from dynlabel.static_schemes import INTERVAL, SEPARATOR


def rooted_trees(n):
    """Yield the parent vector of every non-isomorphic rooted tree on n
    nodes (node 0 is the root, parents precede children).

    Enumerates canonical level sequences in reverse lexicographic order:
    start from the path and repeatedly copy the tail segment that starts
    at the previous occurrence of the shallower level.
    """
    if n == 1:
        yield []
        return
    levels = list(range(1, n + 1))
    while True:
        yield _parents_from_levels(levels)
        p = max((i for i in range(n) if levels[i] > 2), default=None)
        if p is None:
            return
        q = max(i for i in range(p) if levels[i] == levels[p] - 1)
        for i in range(p, n):
            levels[i] = levels[i - (p - q)]


def _parents_from_levels(levels):
    parents = []
    latest = {1: 0}
    for i in range(1, len(levels)):
        parents.append(latest[levels[i] - 1])
        latest[levels[i]] = i
    return parents


def build_net(parents, assignment=PortAssignment.COMPACT, seed=0,
              port_cap=1 << 20):
    """Network holding the tree described by a parent vector."""
    net = Network(assignment=assignment, rng=random.Random(seed),
                  port_cap=port_cap)
    for p in parents:
        net.add_leaf(p)
    return net


def child_ports(net, v):
    """v's child ports in list order: the positions 1..k on compact
    ports, the stored down ports otherwise."""
    kids = net.children[v]
    if net.assignment is PortAssignment.COMPACT:
        return list(range(1, len(kids) + 1))
    return [net.down_port[c] for c in kids]


def ports_at(net, v):
    """Every port number at v, sorted: its child ports and, below the
    root, its own up port."""
    ports = child_ports(net, v)
    if v in net.up_port:
        ports.append(net.up_port[v])
    return sorted(ports)


def random_parents(rng, n):
    """Parent vector of a uniformly grown random tree on n nodes."""
    return [rng.randrange(i + 1) for i in range(n - 1)]


def grow_random(scheme, net, rng, adds):
    for _ in range(adds):
        scheme.add_leaf(net.alive_list[rng.randrange(len(net.alive_list))])


def scope_of(net, root, members):
    """Scope map of a member set, as resets hand it to markers and
    convergecasts: each member that root reaches inside the set, mapped
    to its children inside the set in port order, listed in depth-first
    preorder, children in port order."""
    members = set(members)
    return preorder_scope(root, lambda v: [c for c in net.children[v]
                                           if c in members])


def preorder_scope(root, children):
    """The map of ``children(v)`` over every member reached from root,
    listed as a stack walk pops them in depth-first preorder, each
    member's children in the order named."""
    scope = {}
    stack = [root]
    while stack:
        v = stack.pop()
        scope[v] = children(v)
        stack.extend(reversed(scope[v]))
    return scope


def ref_preorder_numbering(root, scope):
    """Ancestry labels of a scope by a depth-first preorder of its own,
    children in port order, whatever order the map lists: member i of
    that preorder (from 1) and its subtree size - 1, sized by their
    codec."""
    order = list(preorder_scope(root, scope.__getitem__))
    size = {}
    for v in reversed(order):
        size[v] = 1 + sum(size[c] for c in scope[v])
    return {v: bits.sized(INTERVAL, (i, size[v] - 1))
            for i, v in enumerate(order, 1)}


def walk_anchors(core, w):
    """Reference anchor row of w by a walk to the root: entry l is the
    nearest ancestor-or-self that roots a level-l scope (its
    ``top_scope`` clamped to levels is >= l)."""
    levels, states, parent = core.levels, core.states, core.net.parent
    anchors = [None] * (levels + 1)
    filled = 0
    x = w
    while filled < levels:
        if x is None:
            raise AssertionError("root is not flagged at the top level")
        t = states[x].top_scope
        if t > filled:
            t = min(t, levels)
            anchors[filled + 1:t + 1] = [x] * (t - filled)
            filled = t
        x = parent[x]
    return anchors


def walk_label(core, w, anchors):
    """Reference label of w, assembled from its walked anchor row."""
    states = core.states
    st = states[w]
    lab = ("L", st.statics[1])
    for l in range(2, core.levels + 1):
        if states[anchors[l]].tally[l] >= 1:
            lab = ("N", states[anchors[l - 1]].statics[l], st.links[l], lab)
    return lab


def stale_labels(core):
    """Alive nodes whose stored anchor row or label differs from the
    walk reference, after any mismatch of the stored keys with the
    alive set."""
    alive = set(core.net.alive_nodes())
    out = [(name, sorted(set(stored) ^ alive))
           for name, stored in (("labels", core.labels),
                                ("rows", core._anchor_rows))]
    out = [entry for entry in out if entry[1]]
    for w in sorted(alive & core.labels.keys() & core._anchor_rows.keys()):
        anchors = walk_anchors(core, w)
        if core._anchor_rows[w] != anchors:
            out.append(("row", w))
        if core.labels[w] != walk_label(core, w, anchors):
            out.append(("label", w))
    return out


# -- reference scan checks ---------------------------------------------------
#
# Every node checked in full: the bookkeeping and ever-share checks level
# by level, as the scan ran them before it confined per-level work to the
# nodes holding a scoped child, and the port and backup checks node by
# node and child by child.  The scan's checks must report what these
# report.


def scan_flags(core):
    """Every node reachable from the root over the children lists, in
    the scan's walk order (parents first), mapped to its scope flag:
    ``top_scope`` clamped to 0..levels, the root at levels."""
    levels, states, children = core.levels, core.states, core.net.children
    root = core.net.root
    flag = {root: levels}
    stack = [root]
    while stack:
        v = stack.pop()
        for c in children[v]:
            flag[c] = max(0, min(states[c].top_scope, levels))
        stack.extend(children[v])
    return flag


def ref_designer_faults(core, flag):
    """Watermarks against the scoped children, level by level."""
    levels, states, net = core.levels, core.states, core.net
    out = []
    for v in flag:
        order = net.children[v]
        watermark = states[v].watermark
        if not order and not any(watermark[1:levels]):
            continue
        for l in range(1, levels):
            if watermark[l] < 0:
                out.append(f"designer watermark at node {v} level {l}: "
                           f"{watermark[l]} < 0")
            got = set(range(1, watermark[l] + 1))
            want = {p for c, p in zip(order, child_ports(net, v))
                    if flag[c] < l}
            if got != want:
                out.append(f"designer watermark at node {v} level {l}: "
                           f"{sorted(got)} != {sorted(want)}")
    return out


def ref_adversary_faults(core, flag):
    """Counts, tables and back-references against the scoped children,
    level by level."""
    levels, states, net = core.levels, core.states, core.net
    out = []
    for v in flag:
        order = net.children[v]
        scoped_count = states[v].scoped_count
        if not order and not any(scoped_count[1:levels]):
            continue
        rows = [(u, net.down_port[u], states[u]) for u in order]
        for l in range(1, levels):
            want = {p for u, p, _ in rows if flag[u] < l}
            c = scoped_count[l]
            if c != len(want):
                out.append(f"adversary count at node {v} level {l}: "
                           f"{c} != {len(want)}")
                continue
            got = {st.slot_table[l] for _, _, st in rows[:c]}
            if got != want:
                out.append(f"adversary tables at node {v} level {l}: "
                           f"{sorted(map(str, got))} != "
                           f"{sorted(map(str, want))}")
            if not core.deletions:
                continue
            for u, p, st in rows:
                ref = st.slot_backref[l]
                if (ref is None) != (p not in want):
                    out.append(f"adversary backref presence at node {v} "
                               f"level {l} child {u}")
                elif ref is not None:
                    holders = [w for w, q, _ in rows if q == ref]
                    if not holders or states[holders[0]].slot_table[l] != p:
                        out.append(f"adversary backref target at node "
                                   f"{v} level {l} child {u}")
    return out


def ref_ever_share_faults(core, flag):
    """Per scope, the members' ever-shares summed bottom-up against the
    root's ever-count, one full-length running total per node."""
    states, parent, levels = core.states, core.net.parent, core.levels
    acc = {}
    out = []
    for v, t in reversed(flag.items()):
        total = states[v].ever_share
        if v in acc:
            total = [a + b for a, b in zip(acc.pop(v), total)]
        if t:
            want = states[v].ever_count
            out.extend(f"ever-share sum of level-{l} scope at {v}: "
                       f"{total[l]} != {want[l]}"
                       for l in range(1, t + 1) if total[l] != want[l])
            if t == levels:
                continue
            total = [0] * (t + 1) + total[t + 1:]
        p = parent[v]
        acc[p] = ([a + b for a, b in zip(acc[p], total)] if p in acc
                  else total)
    return out


def ref_port_faults(net):
    """Port faults, node by node."""
    bad = []
    for v in net.alive_list:
        got = child_ports(net, v)
        if got != sorted(set(got)):
            bad.append(f"node {v}: child ports {got} are not in port order")
        if v in net.up_port and net.up_port[v] in got:
            bad.append(f"node {v}: parent port {net.up_port[v]} is also a "
                       f"child port")
        pv = ports_at(net, v)
        if (net.assignment is PortAssignment.ADVERSARY and pv
                and (pv[0] < 0 or pv[-1] > net.port_cap)):
            bad.append(f"node {v}: adversary ports {pv} exceed "
                       f"0..{net.port_cap}")
    return bad


def ref_backup_faults(store):
    """Backup placement faults, child by child and holder by holder."""
    net, copies = store.engine.net, store.copies
    out = []
    for v in net.alive_list:
        order = net.children[v]
        for u, nxt in zip(order, order[1:] + order[:1]):
            if u not in copies.get(v, {}) and u not in copies.get(nxt, {}):
                out.append(f"no copy of child {u} at {v} or {nxt}")
    for holder, held in copies.items():
        if held and not net.is_alive(holder):
            out.append(f"dead node {holder} holds copies")
        if len(held) > 2:
            out.append(f"node {holder} holds {len(held)} copies")
    return out


# -- reference verification and backup placement ----------------------------


def ref_verify_step(runner, fn, mode, sample_size, rng, event_index, seed,
                    report, memo=None):
    """``harness.verify_step`` with no memo: every pair of an exhaustive
    check is decoded and compared with the value from u's ``outward``
    walk.  Takes (and ignores) the memo, so it can stand in for the real
    step inside ``harness.run``; it decodes through
    ``scheme_core.decode_labels`` as the step does, so a patched decode
    reaches both."""
    net = runner.net
    n = net.alive_count
    exhaustive = (mode == "exhaustive"
                  or (mode == "sampled" and n <= AUTO_EXHAUSTIVE_LIMIT))
    if mode == "exhaustive" and n > EXHAUSTIVE_HARD_CAP:
        raise ExhaustiveCapError(f"exhaustive verification is capped at "
                                 f"{EXHAUSTIVE_HARD_CAP} nodes")
    checked = 0
    if exhaustive:
        decode = scheme_core.decode_labels
        nodes = sorted(net.alive_nodes())
        labels = {v: runner.label(v) for v in nodes}
        pi = runner.core.pi
        ordered = not fn.symmetric
        for i, u in enumerate(nodes):
            start = 0 if ordered else i
            row = {v: fn.value(net, u, v, a, via)
                   for v, a, via in outward(net, u)}
            for v in nodes[start:]:
                got = decode(fn, pi, labels[u], labels[v])
                want = row[v]
                checked += 1
                if got != want:
                    report.mismatches.append(Mismatch(
                        seed, event_index, u, v, repr(got), repr(want)))
    else:
        pool = net.alive_list
        for _ in range(sample_size):
            u = pool[rng.randrange(len(pool))]
            v = pool[rng.randrange(len(pool))]
            got = runner.query(u, v)
            want = fn.oracle(net, u, v)
            checked += 1
            if got != want:
                report.mismatches.append(Mismatch(
                    seed, event_index, u, v, repr(got), repr(want)))
    report.queries_checked += checked


class RefBackupStore(BackupStore):
    """``BackupStore`` placing copies as it did before it kept an index
    of each subject's holders and shared equal copies: a refresh erases
    the subject's copy at its parent and at every sibling, O(degree) per
    refresh, and every placement builds a new copy."""

    def _erase(self, holder, subject):
        held = self.copies.get(holder)
        if held is not None:
            held.pop(subject, None)

    def _place(self, holder, subject):
        net = self.engine.net
        snap = take_snapshot(self.engine.states[subject])
        self.copies.setdefault(holder, {})[subject] = snap
        net.ledger.count("backup", 1 if holder == net.parent[subject] else 2)

    def _refresh(self, subject, order):
        parent = self.engine.net.parent[subject]
        holder = (parent if len(order) == 1
                  else order[(order.index(subject) + 1) % len(order)])
        for s in list(self.copies.get(holder, ())):
            if s in order and s != subject:
                self._erase(holder, s)
        for x in (parent, *order):
            self._erase(x, subject)
        self._place(holder, subject)

    def refresh(self, subject):
        v = self.engine.net.parent[subject]
        if v is not None:
            self._refresh(subject, self.engine.net.children[v])

    def on_leaf_added(self, parent, child):
        net = self.engine.net
        order = net.children[parent]
        self._refresh(child, order)
        if len(order) > 1:
            self._place(child, order[order.index(child) - 1])

    def on_child_removed(self, parent, child):
        order = self.engine.net.children[parent]
        rest = [w for w in order if w != child]
        if rest:
            self._refresh(order[order.index(child) - 1], rest)
        for x in (parent, *order):
            self._erase(x, child)
        self.copies.pop(child, None)


# -- reference memory sizing -------------------------------------------------
#
# Memory sized as it was before backup copies carried their size and a
# node's memory was sized in one pass: field by field, with every held
# copy re-sized on every call.  Copies and ``SchemeCore.memory_bits``
# must give what these give.


def int_bits(x: int) -> int:
    return 1 + max(1, abs(x).bit_length())


def slot_list_bits(xs: list) -> int:
    """A presence bit per slot, plus ``int_bits`` of each filled one."""
    return len(xs) + counter_list_bits([x for x in xs if x is not None])


def ref_snapshot_bits(snap) -> int:
    n = int_bits(snap["top_scope"])
    for f in ("tally", "ever_share", "watermark", "scoped_count"):
        n += counter_list_bits(snap[f])
    for f in ("slot_table", "slot_backref"):
        n += slot_list_bits(snap[f])
    return n


def ref_memory_bits(core, v) -> int:
    st = core.states[v]
    lv = core.levels
    n = core.levels + int_bits(core.net.depth[v])
    n += counter_list_bits(st.tally[1:])
    n += counter_list_bits(st.ever_share[1:])
    if core.bookkeeping.kind == "designer":
        n += counter_list_bits(st.watermark[1:lv])
    else:
        n += counter_list_bits(st.scoped_count[1:lv])
        n += slot_list_bits(st.slot_table[1:lv])
        if core.deletions:
            n += slot_list_bits(st.slot_backref[1:lv])
    if v in core.net.up_port:
        n += int_bits(core.net.up_port[v])
    if core.backups is not None:
        n += sum(ref_snapshot_bits(s)
                 for s in core.backups.copies.get(v, {}).values())
    return n


# -- reference messaging and separator marker -------------------------------
#
# Relays and convergecasts as they ran before a traversal became one
# ledger entry: one ``send``, and so one ledger entry, per hop.  And the
# separator marker as it ran before one walk per component: a walk of
# each component to find its centroid, then a second walk out of the
# centroid for the distances.  The network's walkers and the marker must
# return, raise and charge what these do.


def ref_charge_path(net, frm, ancestor, category):
    """``Network.charge_path`` by one ``send`` per hop."""
    hops = 0
    x = frm
    while x != ancestor:
        p = net.parent[x]
        if p is None:
            raise SimulationError(f"{ancestor} is not an ancestor of {frm}")
        net.send(x, p, category)
        x = p
        hops += 1
    return hops


def ref_broadcast_convergecast(net, subtree_root, children, aggregate,
                               category="reset_count"):
    """``Network.broadcast_convergecast`` by one ``send`` per crossing."""
    if not net.is_alive(subtree_root):
        raise SimulationError(f"subtree root {subtree_root} not alive")
    total = aggregate(subtree_root)
    walked = {}
    stack = [subtree_root]
    while stack:
        v = stack.pop()
        walked[v] = children(v)
        for c in walked[v]:
            net.send(v, c, category)      # down
            net.send(c, v, category)      # up
            total += aggregate(c)
        stack.extend(reversed(walked[v]))
    return total, walked


def ref_separator_marker(net, root, scope):
    """``static_schemes.separator_marker`` by two walks per component."""
    nbrs = {v: kids if v == root else kids + [net.parent[v]]
            for v, kids in scope.items()}
    uid = {v: i for i, v in enumerate(sorted(scope))}
    entries = {v: [] for v in scope}
    removed = set()
    work = [root]
    while work:
        seed = work.pop()
        comp, c = _ref_centroid(seed, nbrs, removed)
        dist = _ref_tree_dist(c, nbrs, removed)
        for v in comp:
            entries[v].append((uid[c], dist[v]))
        removed.add(c)
        for w in nbrs[c]:
            if w not in removed:
                work.append(w)
    return {v: bits.sized(SEPARATOR, (uid[v], net.depth[v], tuple(entries[v])))
            for v in scope}


def _ref_centroid(seed, nbrs, removed):
    """The seed's component in DFS order, and its centroid: the member
    whose removal leaves the smallest largest part, ties to smallest
    id."""
    order = []
    par = {seed: None}
    stack = [seed]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in nbrs[v]:
            if w not in removed and w != par[v]:
                par[w] = v
                stack.append(w)
    m = len(order)
    size = dict.fromkeys(order, 1)
    big = dict.fromkeys(order, 0)
    for v in reversed(order):
        p = par[v]
        if p is not None:
            size[p] += size[v]
            if size[v] > big[p]:
                big[p] = size[v]
    return order, min(order, key=lambda v: (max(m - size[v], big[v]), v))


def _ref_tree_dist(start, nbrs, removed):
    """Distances from start to the members not removed."""
    dist = {start: 0}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in nbrs[v]:
            if w not in removed and w not in dist:
                dist[w] = dist[v] + 1
                stack.append(w)
    return dist
