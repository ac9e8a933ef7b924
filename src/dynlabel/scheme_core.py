"""Core machinery of the finite nested-reset labeling scheme.

The scheme maintains, per node and per level l up to the current height,
a nested-subtree decomposition: every node belongs to exactly one
level-l subtree, whose root is its nearest ancestor-or-self flagged as a
level-l scope root.  Every join triggers a relabeling reset of the
joining node's level-1 subtree; when a level's reset tally reaches the
quota, the enclosing level is reset and every member becomes the root
of fresh lower-level scopes.  After the top level's quota fills, the
scheme finishes (standalone use) or hands control to a phase controller.

A node's queryable label nests one layer per level whose enclosing
scope has been reset at least once:

    <static label of the lower-level scope root,
     F(that root, node),
     label one level down>

bottoming out at the node's own static label from its latest level-1
reset.  The decoder recurses while the outer static parts match and
otherwise combines the two stored values with the static decoder's
answer for the two scope roots.

Labels are kept state.  Every write that can change a node's label or
anchor row (its nearest scope root per level) marks the node dirty, and
the flush that ends each event rebuilds the row of each dirty node from
its parent's and assembles its label once from the row.  Queries read
the stored labels.
"""

from __future__ import annotations

from . import bits
from .functions import get_function
from .memory import (AdversaryBookkeeping, BackupStore, DesignerBookkeeping,
                     counter_list_bits, int_bits)
from .simnet import InvalidEvent, PortAssignment
from .static_schemes import DecodeError, scheme_for


class SchemeError(RuntimeError):
    pass


class NodeState:
    """Per-node scheme memory; lists are indexed by level, slot 0 unused."""

    __slots__ = ("top_scope", "tally", "ever_share", "ever_count",
                 "statics", "links", "watermark", "scoped_count",
                 "slot_table", "slot_backref")

    def __init__(self, levels: int):
        self.top_scope = 0
        self.tally = [0] * (levels + 1)
        self.ever_share = [0] + [1] * levels
        self.ever_count = [0] * (levels + 1)
        self.statics = [None] * (levels + 1)
        self.links = [None] * (levels + 1)
        self.watermark = [0] * (levels + 1)
        self.scoped_count = [0] * (levels + 1)
        self.slot_table = [None] * (levels + 1)
        self.slot_backref = [None] * (levels + 1)


class SchemeCore:
    """One running scheme instance over a live network.

    With ``deletions`` (the leaf-dynamic model) resets count every node
    that ever joined a scope, and backup copies let a parent repair its
    memory when a child leaves.  Port bookkeeping follows the network's
    ports: designer renumbering on compact ones, child tables otherwise.
    """

    def __init__(self, net, function: str, *, quota: int, levels: int,
                 deletions: bool = False, verify_scopes: bool = False):
        if quota < 2:
            raise SchemeError("reset quota must exceed 1")
        if levels < 1:
            raise SchemeError("need at least one level")
        self.net = net
        self.fn = get_function(function)
        self.pi = scheme_for(function)
        compact = net.assignment is PortAssignment.COMPACT
        if function == "routing" and compact:
            raise SchemeError("routing labels pin port numbers; the network "
                              "must use stable or adversary ports")
        self.quota = quota
        self.levels = levels
        self.deletions = deletions
        self.verify_scopes = verify_scopes
        self.states: dict[int, NodeState] = {}
        self.bookkeeping = (DesignerBookkeeping(self) if compact
                            else AdversaryBookkeeping(self))
        self.backups = BackupStore(self) if deletions else None
        self.finished = False
        self.joins = 0
        self.on_finished = None          # callback(last reset count)
        self.last_reset_labels = None    # member -> label, root first
        self.last_reset_count = None
        self.violations: list[str] = []
        self._dirty: set[int] = set()    # label or memory changed this event
        # alive node -> its anchor row: entry l is the nearest
        # ancestor-or-self rooting a level-l scope (entry 0 unused).
        # Rows are replaced, never mutated, so a node whose own flag is 0
        # shares its parent's list.
        self._anchor_rows: dict[int, list] = {}
        self.labels: dict = {}           # alive node -> assembled label

    # -- installation ---------------------------------------------------

    def install_fresh(self) -> None:
        """Start on a single-node tree; labels installed without a
        counted reset so the root is queryable from the start.  Only
        then does the core listen to the network's events, so a core
        that was never installed leaves the network as it found it."""
        net = self.net
        if net.alive_count != 1:
            raise SchemeError("fresh install requires a singleton tree")
        root = net.root
        labels = self.pi.marker(net, root, {root: []})
        self._fresh_states(labels)
        self.last_reset_labels = labels
        self.last_reset_count = 1
        self._flush_event()
        net.on_add(self._joined)
        net.on_remove(self._leaving)

    def install_on_tree(self) -> None:
        """Start (or restart) on the current multi-node tree: one counted
        whole-tree reset, then every node roots fresh lower scopes."""
        net = self.net
        root = net.root
        scope = self._collect_scope(self.levels, root)
        labels = self.pi.marker(net, root, scope)
        self._fresh_states(labels)
        count = self._count_scope(root, scope, self.levels)
        rst = self.states[root]
        rst.tally[self.levels] = 1
        rst.ever_count[self.levels] = count
        self.bookkeeping.on_whole_tree_reset(scope)
        net.ledger.reset_count += 1
        self.last_reset_labels = labels
        self.last_reset_count = count
        self.finished = False
        self._flush_event()

    def transition(self, quota: int, levels: int) -> None:
        """Swap phase parameters in place, reusing the labels of the
        whole-tree reset that just completed."""
        if quota < 2:
            raise SchemeError("reset quota must exceed 1")
        labels = self.last_reset_labels
        states = self.states
        old_levels = self.levels
        carry = [states[v].ever_share[old_levels] for v in labels]
        carry_total = states[self.net.root].ever_count[old_levels]
        self.quota, self.levels = quota, levels
        self._fresh_states(labels)
        for v, share in zip(labels, carry):
            states[v].ever_share[levels] = share
        rst = states[self.net.root]
        rst.tally[levels] = 1
        rst.ever_count[levels] = carry_total
        self.finished = False

    def _fresh_states(self, labels) -> None:
        """New memory for every member of a whole-tree reset (the keys
        of its ``labels``), broadcast from the root: each member roots
        every scope below the top (the root every scope), counts once at
        every level and holds its new static label at every level."""
        net, levels = self.net, self.levels
        self_value = self.fn.self_value
        for v, lab in labels.items():
            st = NodeState(levels)
            st.top_scope = levels if v == net.root else levels - 1
            st.ever_count[1:] = [1] * levels
            st.statics[1:] = [lab] * levels
            st.links[2:] = [self_value(net, v)] * (levels - 1)
            self.states[v] = st
        if len(labels) > 1:
            net.ledger.count("broadcast", len(labels) - 1)
        self._dirty.update(labels)

    # -- event entry points ----------------------------------------------

    def apply_add(self, parent: int) -> int:
        if self.finished:
            raise SchemeError("scheme already finished")
        child = self.net.add_leaf(parent)
        self._flush_event()
        return child

    def apply_remove(self, leaf: int) -> None:
        if self.finished:
            raise SchemeError("scheme already finished")
        self.net.remove_leaf(leaf)
        self._flush_event()

    # -- network listeners -------------------------------------------------

    def _joined(self, parent: int, child: int) -> None:
        net = self.net
        st = NodeState(self.levels)
        self.states[child] = st
        pst = self.states[parent]
        edge = self.fn.edge_value(net, parent, child)
        for l in range(2, self.levels + 1):
            st.links[l] = self.fn.compose(pst.links[l], edge)
        anchors = self._anchor_rows[parent]
        for l in range(1, self.levels + 1):
            self.states[anchors[l]].ever_count[l] += 1
        self.joins += 1
        self.bookkeeping.on_leaf_added(parent, child)
        if self.backups is not None:
            self.backups.on_leaf_added(parent, child)
        self._dirty.update((parent, child))
        self._cascade(child, anchors)

    def _leaving(self, leaf: int) -> None:
        if not self.deletions:
            raise InvalidEvent("deletions need the leaf-dynamic scheme")
        net = self.net
        parent = net.parent[leaf]
        snap = self.backups.read_copy(parent, leaf)
        top = self.states[leaf].top_scope
        pst = self.states[parent]
        for l in range(top + 1, self.levels + 1):
            pst.ever_share[l] += snap["ever_share"][l]
        self.bookkeeping.on_child_removed(parent, leaf, snap)
        self.backups.on_child_removed(parent, leaf)
        del self.states[leaf]
        del self._anchor_rows[leaf]
        del self.labels[leaf]
        self._dirty.add(parent)
        self._dirty.discard(leaf)

    # -- reset cascade ---------------------------------------------------

    def _cascade(self, child: int, anchors) -> None:
        net = self.net
        level, root = 1, anchors[1]
        net.charge_path(child, root, "signal")
        scope = self._reset(level, root)
        while True:
            rst = self.states[root]
            rst.tally[level] += 1
            if rst.tally[level] < self.quota:
                if level >= 2:
                    self._seed_fresh_scopes(scope, level)
                return
            if level == self.levels:
                self._top_finished()
                return
            nxt = anchors[level + 1]
            net.charge_path(root, nxt, "signal")
            level, root = level + 1, nxt
            scope = self._reset(level, root)

    def _top_finished(self) -> None:
        self.finished = True
        if self.on_finished is not None:
            self.on_finished(self.last_reset_count)

    def _reset(self, level: int, root: int):
        """Count and relabel one decomposition subtree; returns its
        scope map."""
        net = self.net
        if self.states[root].top_scope < level:
            raise SchemeError(f"reset target {root} is not a level-{level} scope root")
        scope = self._collect_scope(level, root)
        count = self._count_scope(root, scope, level)
        labels = self.pi.marker(net, root, scope)
        if len(set(labels.values())) != len(labels):
            raise SchemeError("marker produced duplicate labels")
        for w, lab in labels.items():
            st = self.states[w]
            for l in range(1, level + 1):
                st.statics[l] = lab
            for l in range(1, level):
                st.ever_share[l] = 1
        if level == self.levels:
            self.bookkeeping.on_whole_tree_reset(scope)
        else:
            self.bookkeeping.on_reset(scope, level)
        net.ledger.reset_count += 1
        self.last_reset_labels = labels
        self.last_reset_count = count
        self._dirty.update(scope)
        return scope

    def _count_scope(self, root, scope, level) -> int:
        if self.deletions:
            agg = lambda w: self.states[w].ever_share[level]
        else:
            agg = lambda w: 1
        return self.net.broadcast_convergecast(
            root, scope, agg, category="reset_count")

    def _seed_fresh_scopes(self, members, level: int) -> None:
        """Every member becomes the root of fresh scopes below `level`."""
        net = self.net
        if len(members) > 1:
            net.ledger.count("broadcast", len(members) - 1)
        for w in members:
            st = self.states[w]
            if st.top_scope < level - 1:
                st.top_scope = level - 1
            for l in range(1, level):
                st.tally[l] = 0
                st.ever_count[l] = 1
            for l in range(2, level + 1):
                st.links[l] = self.fn.self_value(net, w)
        self._dirty.update(members)

    def _collect_scope(self, level: int, root: int) -> dict:
        """The scope map of the level-`level` subtree at `root`: each
        member, root first, mapped to its in-scope children in port
        order.  Below the top level the port bookkeeping names them; the
        top level holds every child."""
        top = level == self.levels
        scope = {}
        stack = [root]
        while stack:
            v = stack.pop()
            if top:
                kids = self.net.children_by_port(v)
            else:
                kids = self.bookkeeping.children_in_scope(v, level)
                if self.verify_scopes:
                    truth = self.ground_children_in_scope(v, level)
                    if sorted(kids) != sorted(truth):
                        self.violations.append(
                            f"scope query at node {v} level {level}: "
                            f"{sorted(kids)} != {sorted(truth)}")
                        kids = truth
            scope[v] = kids
            stack.extend(kids)
        return scope

    def ground_children_in_scope(self, v: int, level: int):
        """v's children inside its level-``level`` scope (below the top
        level), read off their scope flags."""
        return [c for c in self.net.children[v]
                if self.states[c].top_scope < level]

    # -- labels and decoding ------------------------------------------------

    def label(self, w: int):
        """w's label as the last flush assembled it."""
        try:
            return self.labels[w]
        except KeyError:
            raise SchemeError(f"node {w} is not alive") from None

    def query(self, u: int, v: int):
        return decode_labels(self.fn, self.pi, self.label(u), self.label(v))

    # -- per-event bookkeeping ------------------------------------------------

    def mark_memory_dirty(self, nodes) -> None:
        self._dirty.update(nodes)

    def _flush_event(self) -> None:
        """Refresh the backup of every node the event changed, then its
        anchor row and label, and size its label and memory (with the
        copies it now holds).

        A node's row is its own id up to its scope flag and its parent's
        row above.  Dirty nodes go in id order and ``Network.add_leaf``
        hands out increasing ids, so a dirty parent's row is refreshed
        before its children's rows are built from it."""
        net = self.net
        dirty = sorted(filter(net.is_alive, self._dirty))
        self._dirty.clear()
        if self.backups is not None:
            for x in dirty:
                if x != net.root:
                    self.backups.refresh(x)
        fn, ledger = self.fn, net.ledger
        for x in dirty:
            lab = self._refresh_label(x)
            ledger.note_label_bits(dynamic_label_bits(fn, lab))
            ledger.note_memory_bits(self.memory_bits(x))

    def _refresh_label(self, x: int):
        """Rebuild x's anchor row from its parent's and assemble its
        label from the row; store both and return the label."""
        levels, states = self.levels, self.states
        rows = self._anchor_rows
        st = states[x]
        t = st.top_scope
        if t > levels:
            t = levels
        p = self.net.parent[x]
        if p is None:
            if t < levels:
                raise SchemeError("root is not flagged at the top level")
            row = [None] + [x] * levels
        elif t <= 0:
            row = rows[p]
        else:
            row = [None] + [x] * t + rows[p][t + 1:]
        rows[x] = row
        statics, links = st.statics, st.links
        lab = ("L", statics[1])
        for l in range(2, levels + 1):
            if states[row[l]].tally[l] >= 1:
                lab = ("N", states[row[l - 1]].statics[l], links[l], lab)
        self.labels[x] = lab
        return lab

    def memory_bits(self, v: int) -> int:
        st = self.states[v]
        n = self.levels + int_bits(self.net.depth[v])
        n += counter_list_bits(st.tally[1:])
        n += counter_list_bits(st.ever_share[1:])
        n += self.bookkeeping.memory_bits(v)
        if v in self.net.up_port:
            n += int_bits(self.net.up_port[v])
        if self.backups is not None:
            n += self.backups.held_bits(v)
        return n

    # -- invariant scanning -----------------------------------------------

    def scan_invariants(self) -> list[str]:
        """Check the structural invariants in one walk from the root.

        The walk reads every reachable node's scope flag: its
        ``top_scope`` clamped to 0..levels, with the root anchoring
        every level.  The port, ever-share, bookkeeping and backup
        checks work from those flags and from the children lists, which
        the network keeps in port order.

        Cost: the walk, then one pass over the nodes per check; per-level
        comparisons run only at hosts, the nodes with a child flagged
        below ``levels - 1`` (see ``memory._hosts``), and messages are
        worded only for faults.
        """
        net = self.net
        root = net.root
        levels = self.levels
        states = self.states
        children = net.children
        flag = {root: levels}    # reachable node -> its scope flag
        closure = []
        stack = [root]
        while stack:
            v = stack.pop()
            kids = children[v]
            if kids:
                tv = flag[v]
                for c in kids:
                    t = states[c].top_scope
                    t = 0 if t < 0 else levels if t > levels else t
                    flag[c] = t
                    # a child may root its own scopes only at levels where
                    # v roots one too
                    if t > tv:
                        closure.extend(f"descendant closure broken at "
                                       f"{v}->{c} level {l}"
                                       for l in range(tv + 1, t + 1))
                stack.extend(kids)
        # scope-query violations recorded since the last scan
        violations, self.violations = self.violations, []
        out = net.check_tree_shape(flag) + net.check_ports(flag)
        if self.finished:
            # terminal state: the final whole-tree reset has cleared the
            # per-level bookkeeping and nothing re-seeds the scopes
            return out + violations
        if states[root].top_scope != levels:
            out.append("root is not a top-level scope root")
        out.extend(self._ever_share_faults(flag))
        out.extend(closure)
        out.extend(self.bookkeeping.check(flag))
        if self.backups is not None:
            out.extend(self.backups.check())
        out.extend(violations)
        return out

    def _ever_share_faults(self, flag) -> list[str]:
        """Per scope, the members' ever-shares must sum to the root's
        ever-count.  ``flag`` lists the reachable nodes with their scope
        flags, parents before children; sums are accumulated bottom-up,
        a node adding only the levels above its own flag into its
        parent's running total, which starts as a copy of the parent's
        ever-shares."""
        states = self.states
        parent = self.net.parent
        levels = self.levels
        acc = {}     # node -> its ever-shares plus its children's parts
        out = []
        for v, t in reversed(flag.items()):
            total = acc.pop(v, None) or states[v].ever_share
            if t:
                want = states[v].ever_count
                if total[1:t + 1] != want[1:t + 1]:
                    out.extend(f"ever-share sum of level-{l} scope at {v}: "
                               f"{total[l]} != {want[l]}"
                               for l in range(1, t + 1)
                               if total[l] != want[l])
                if t == levels:
                    continue
            p = parent[v]
            into = acc.get(p)
            if into is None:
                into = acc[p] = states[p].ever_share.copy()
            if t == levels - 1:     # most nodes: the top level alone
                into[levels] += total[levels]
            else:
                for l in range(t + 1, levels + 1):
                    into[l] += total[l]
        return out


# -- pure decoding over assembled labels -------------------------------------


def decode_labels(fn, pi, lx, ly):
    """Evaluate F from two labels alone."""
    while True:
        tx, ty = lx[0], ly[0]
        if tx == "L" and ty == "L":
            return pi.decoder(lx[1], ly[1])
        if tx == "N" and ty == "N":
            if lx[1] == ly[1]:
                lx, ly = lx[3], ly[3]
                continue
            mid = pi.decoder(lx[1], ly[1])
            return fn.compose(fn.reverse(lx[2]), fn.compose(mid, ly[2]))
        raise DecodeError("mismatched label nesting")


def dynamic_label_bits(fn, lab) -> int:
    """Exact wire length of a nested label, in O(levels): each static
    label carries its own bit count."""
    n = 0
    while lab[0] == "N":
        n += (1 + bits.block_bits(lab[1][-1])
              + bits.block_bits(bits.size(fn.layout, lab[2])))
        lab = lab[3]
    return n + 1 + bits.block_bits(lab[1][-1])


def encode_dynamic_label(pi, fn, lab) -> str:
    parts = []
    while lab[0] == "N":
        parts.append("1" + bits.block(bits.encode(pi.layout, lab[1]))
                     + bits.block(bits.encode(fn.layout, lab[2])))
        lab = lab[3]
    parts.append("0" + bits.block(bits.encode(pi.layout, lab[1])))
    return "".join(parts)


def decode_dynamic_label(pi, fn, s: str, pos: int = 0):
    """Decode one nested label at ``pos``; every block must hold exactly
    the value its layout reads.  Returns (label, pos)."""
    if pos >= len(s):
        raise bits.BitsError("empty label wire")
    tag = s[pos]
    fields, n, pos = bits.read_block(pi.layout, s, pos + 1)
    static = (*fields, n)
    if tag == "0":
        return ("L", static), pos
    fval, _, pos = bits.read_block(fn.layout, s, pos)
    inner, pos = decode_dynamic_label(pi, fn, s, pos)
    return ("N", static, fval, inner), pos
