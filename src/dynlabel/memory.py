"""Per-node external memory: scoped-port bookkeeping and backup copies.

Each node must be able to tell, for every level l below the current
scheme height, which of its ports lead to children inside its level-l
subtree.  Two strategies are provided:

* designer: on compact ports, where a child's port is its position in
  the children list, the node keeps its scoped ports as the contiguous
  prefix 1..watermark[l].

* adversary: ports are immutable, so each child carries a table with
  one slot per level; the union of the first ``count[l]`` children's
  slots (in port order) is exactly the scoped port set.  In the
  leaf-dynamic model every child also carries a back-reference slot
  pointing at the child whose table mentions it, so deletions can be
  repaired from a backup copy.

Backups keep, for every child u of a node v, one copy of u's scheme
memory: at v when u is an only child, else at u's next sibling in cyclic
port order.  v also keeps a former only child's copy once a second
child joins, until that child's memory next changes (``BackupStore``).
"""

from __future__ import annotations

from itertools import compress, count


class MemoryError_(RuntimeError):
    pass


def int_bits(x: int) -> int:
    return 1 + max(1, abs(x).bit_length())


def counter_list_bits(xs: list) -> int:
    """``int_bits`` summed over xs: a bit each, plus each magnitude's
    bit length, a zero counting one."""
    return len(xs) + xs.count(0) + sum(map(int.bit_length, map(abs, xs)))


def slot_list_bits(xs: list) -> int:
    """A presence bit per slot, plus ``int_bits`` of each filled one."""
    return len(xs) + counter_list_bits([x for x in xs if x is not None])


# -- sibling order helpers ---------------------------------------------------


def next_sibling(net, v, u):
    order = net.children[v]
    return order[(order.index(u) + 1) % len(order)]


def copy_holder(net, v, u):
    """Where v's child u keeps its backup copy: at v when u is an only
    child, else at u's next sibling in cyclic port order."""
    order = net.children[v]
    if len(order) == 1:
        return v
    return order[(order.index(u) + 1) % len(order)]


# -- port bookkeeping --------------------------------------------------------


class DesignerBookkeeping:
    """Scoped ports kept as the prefix 1..watermark[l] of v's ports."""

    kind = "designer"

    def __init__(self, engine):
        self.engine = engine

    def on_leaf_added(self, parent, child):
        st = self.engine.states[parent]
        for l in range(1, self.engine.levels):
            st.watermark[l] += 1

    def on_reset(self, scope, level):
        if level <= 1:
            return
        for w in scope:
            st = self.engine.states[w]
            for l in range(1, level):
                st.watermark[l] = 0

    def on_whole_tree_reset(self, scope):
        """Top-level reset: normalize ports (parent gets the degree) and
        zero every watermark."""
        for v in scope:
            self.engine.net.normalize_ports(v)
        self.on_reset(scope, self.engine.levels)

    def on_child_removed(self, parent, child, snapshot):
        # the leaf's port: its position, read before it leaves the list
        q = self.engine.net.children[parent].index(child) + 1
        st = self.engine.states[parent]
        for l in range(1, self.engine.levels):
            if st.watermark[l] >= q:
                st.watermark[l] -= 1

    def children_in_scope(self, v, level):
        # a compact child's port is its position in the list
        return self.engine.net.children[v][
            :self.engine.states[v].watermark[level]]

    def memory_bits(self, v):
        return counter_list_bits(
            self.engine.states[v].watermark[1:self.engine.levels])

    def check(self, flag) -> list[str]:
        """Watermarks against the ground scopes at every node of
        ``flag``, which maps nodes to their scope flag (``top_scope``
        clamped to 0..levels); a child is inside its parent's level-l
        scope when its flag is below l.

        Only hosts (see ``_hosts``) have a scoped child, so every other
        node must hold all-zero watermarks, one list comparison each
        (the unused slots, 0 and the top level, stay 0).  Per-level
        comparisons run at hosts and at nodes failing that test."""
        engine = self.engine
        levels = engine.levels
        states, children = engine.states, engine.net.children
        hosts = _hosts(flag, engine.net.parent, levels)
        zero = [0] * (levels + 1)
        out = []
        for v in [v for v in flag
                  if v in hosts or states[v].watermark != zero]:
            watermark = states[v].watermark
            joins = _scope_joins(children[v], count(1), flag, levels)
            want = set()
            for l in range(1, levels):
                want.update(joins[l])
                m = watermark[l]
                if m < 0:
                    out.append(f"designer watermark at node {v} level {l}: "
                               f"{m} < 0")
                got = range(1, m + 1)
                if len(got) != len(want) or not want.issuperset(got):
                    out.append(f"designer watermark at node {v} level {l}: "
                               f"{list(got)} != {sorted(want)}")
        return out


class AdversaryBookkeeping:
    """Per-child table slots whose prefix union is the scoped port set."""

    kind = "adversary"

    def __init__(self, engine):
        self.engine = engine

    def _write(self, nodes):
        nodes = set(nodes)
        self.engine.net.ledger.count("membook", len(nodes))
        self.engine.mark_memory_dirty(nodes)

    def on_leaf_added(self, parent, child):
        net = self.engine.net
        states = self.engine.states
        order = net.children[parent]
        j = order.index(child) + 1
        port_u = net.down_port[child]
        vst = states[parent]
        backrefs = self.engine.deletions
        touched = set()
        for l in range(1, self.engine.levels):
            c = vst.scoped_count[l]
            if j <= c:
                states[child].slot_table[l] = port_u
                if backrefs:
                    states[child].slot_backref[l] = port_u
                touched.add(child)
            else:
                target = order[c]
                states[target].slot_table[l] = port_u
                touched.add(target)
                if backrefs:
                    states[child].slot_backref[l] = net.down_port[target]
                    touched.add(child)
            vst.scoped_count[l] = c + 1
        if touched:
            self._write(touched)

    def on_reset(self, scope, level):
        """A reset of ``scope`` (member -> in-scope children) empties
        every member's lower scopes: tables and back-references."""
        if level <= 1:
            return
        net = self.engine.net
        states = self.engine.states
        touched = set()
        for v, kids in scope.items():
            vst = states[v]
            order = net.children[v]
            for l in range(1, level):
                for i in range(vst.scoped_count[l]):
                    states[order[i]].slot_table[l] = None
                    touched.add(order[i])
                vst.scoped_count[l] = 0
            if self.engine.deletions:
                for c in kids:
                    for l in range(1, level):
                        if states[c].slot_backref[l] is not None:
                            states[c].slot_backref[l] = None
                            touched.add(c)
        if touched:
            self._write(touched)

    def on_whole_tree_reset(self, scope):
        self.on_reset(scope, self.engine.levels)

    def on_child_removed(self, parent, child, snapshot):
        """Repair tables and counters from the deleted child's backup."""
        net = self.engine.net
        states = self.engine.states
        vst = states[parent]
        order_pre = net.children[parent]
        order_post = [w for w in order_pre if w != child]
        j = order_pre.index(child) + 1
        down, child_at = net.down_port, net.child_at
        touched = set()
        for l in range(1, self.engine.levels):
            c = vst.scoped_count[l]
            tbl_u = snapshot["slot_table"][l]
            ref_u = snapshot["slot_backref"][l]
            if j <= c:
                x = child_at(parent, tbl_u)
                if x == child:
                    vst.scoped_count[l] = c - 1
                elif ref_u is None:
                    target = order_post[c - 1]
                    states[target].slot_table[l] = tbl_u
                    states[x].slot_backref[l] = down[target]
                    touched.update((target, x))
                else:
                    w = child_at(parent, ref_u)
                    states[w].slot_table[l] = tbl_u
                    states[x].slot_backref[l] = down[w]
                    vst.scoped_count[l] = c - 1
                    touched.update((w, x))
            elif ref_u is not None:
                w = child_at(parent, ref_u)
                target = order_post[c - 1]
                port_y = states[target].slot_table[l]
                y = child_at(parent, port_y)
                states[w].slot_table[l] = port_y
                states[target].slot_table[l] = None
                vst.scoped_count[l] = c - 1
                touched.update((w, target))
                if y != child:
                    states[y].slot_backref[l] = down[w]
                    touched.add(y)
        touched.discard(child)
        if touched:
            self._write(touched)

    def children_in_scope(self, v, level):
        # the first count children's slots name the ports; a round trip each
        net = self.engine.net
        states = self.engine.states
        order = net.children[v]
        c = states[v].scoped_count[level]
        net.ledger.count("membook", 2 * c)
        ports = {states[order[i]].slot_table[level] for i in range(c)}
        return [net.child_at(v, p) for p in sorted(ports)]

    def memory_bits(self, v):
        st = self.engine.states[v]
        lv = self.engine.levels
        n = counter_list_bits(st.scoped_count[1:lv])
        n += slot_list_bits(st.slot_table[1:lv])
        if self.engine.deletions:
            n += slot_list_bits(st.slot_backref[1:lv])
        return n

    def check(self, flag) -> list[str]:
        """Counts, tables and back-references against the ground scopes
        at every node of ``flag``, which maps nodes to their scope flag
        (``top_scope`` clamped to 0..levels); a child is inside its
        parent's level-l scope when its flag is below l.

        Only hosts (see ``_hosts``) have a scoped child, so every other
        node must hold all-zero counts and its children no
        back-references, one list comparison each (the unused slots, 0
        and the top level, stay empty).  Per-level comparisons run at
        hosts and at nodes failing that test, and read the
        back-references of scoped children and of children holding
        one."""
        engine = self.engine
        levels = engine.levels
        states, net = engine.states, engine.net
        children, down = net.children, net.down_port
        backrefs = engine.deletions
        zero, empty = [0] * (levels + 1), [None] * (levels + 1)
        todo = _hosts(flag, net.parent, levels)
        if backrefs:
            # the parents of children holding a back-reference
            todo.update([net.parent.get(u) for u in flag
                         if states[u].slot_backref != empty])
        out = []
        for v in [v for v in flag
                  if v in todo or states[v].scoped_count != zero]:
            order = children[v]
            scoped_count = states[v].scoped_count
            if not backrefs:
                kids = ()
            elif len(set(map(down.__getitem__, order))) < len(order):
                kids = order      # a shared port may be in scope for both
            else:
                # any other child is outside every lower scope with no
                # back-reference, as it should be
                kids = [u for u in order if flag[u] < levels - 1
                        or states[u].slot_backref != empty]
            joins = _scope_joins(order, map(down.__getitem__, order), flag,
                                 levels)
            want = set()
            for l in range(1, levels):
                want.update(joins[l])
                c = scoped_count[l]
                if c != len(want):
                    out.append(f"adversary count at node {v} level {l}: "
                               f"{c} != {len(want)}")
                    continue
                got = {states[u].slot_table[l] for u in order[:c]}
                if got != want:
                    out.append(f"adversary tables at node {v} level {l}: "
                               f"{sorted(map(str, got))} != "
                               f"{sorted(map(str, want))}")
                for u in kids:
                    p = down[u]
                    ref = states[u].slot_backref[l]
                    if (ref is None) != (p not in want):
                        out.append(f"adversary backref presence at node {v} "
                                   f"level {l} child {u}")
                    elif ref is not None:
                        w = net.child_at(v, ref)
                        if w is None or states[w].slot_table[l] != p:
                            out.append(f"adversary backref target at node "
                                       f"{v} level {l} child {u}")
        return out


def _hosts(flag, parent, levels) -> set:
    """The nodes of ``flag`` holding a child inside one of their lower
    scopes: the parents of nodes flagged below ``levels - 1``."""
    return {parent[v] for v, t in flag.items() if t < levels - 1}


def _scope_joins(order, ports, flag, levels) -> list:
    """Entry l, for 1 <= l < levels: the ports (``ports`` is aligned
    with ``order``) of the children flagged l - 1, which join the level-l
    scope and stay in every higher one, so the scope's ports are the
    union of entries 1..l."""
    joins = [[] for _ in range(levels)]
    for c, p in zip(order, ports):
        t = flag[c]
        if t < levels - 1:
            joins[t + 1].append(p)
    return joins


# -- backup copies -----------------------------------------------------------


SNAPSHOT_FIELDS = ("tally", "ever_share", "watermark", "scoped_count",
                   "slot_table", "slot_backref")


def take_snapshot(state) -> dict:
    snap = {f: list(getattr(state, f)) for f in SNAPSHOT_FIELDS}
    snap["top_scope"] = state.top_scope
    return snap


def snapshot_bits(snap) -> int:
    n = int_bits(snap["top_scope"])
    for f in ("tally", "ever_share", "watermark", "scoped_count"):
        n += counter_list_bits(snap[f])
    for f in ("slot_table", "slot_backref"):
        n += slot_list_bits(snap[f])
    return n


class BackupStore:
    """Copies of child scheme memories, each placed by ``_refresh``.

    A parent keeps its former only child's copy after a second child
    joins: the copy is current, but it counts toward the parent's memory
    and ``read_copy`` reads it there instead of paying two messages.
    """

    def __init__(self, engine):
        self.engine = engine
        self.copies = {}        # holder -> {subject: snapshot}
        self.holders = {}       # subject -> the nodes holding its copy

    def _erase(self, holder, subject):
        held = self.copies.get(holder)
        if held is not None:
            held.pop(subject, None)
        holders = self.holders.get(subject)
        if holders is not None:
            holders.discard(holder)

    def _erase_all(self, subject):
        """Drop every copy of subject, wherever it is held."""
        copies = self.copies
        for holder in self.holders.pop(subject, ()):
            held = copies.get(holder)
            if held is not None:
                held.pop(subject, None)

    def _place(self, holder, subject):
        net = self.engine.net
        snap = take_snapshot(self.engine.states[subject])
        self.copies.setdefault(holder, {})[subject] = snap
        holders = self.holders.get(subject)
        if holders is None:
            self.holders[subject] = {holder}
        else:
            holders.add(holder)
        # a hop to the parent, two when relayed on to a sibling
        net.ledger.count("backup", 1 if holder == net.parent[subject] else 2)

    def _refresh(self, subject, holder):
        """Place subject's copy at ``holder`` (see ``copy_holder``).  The
        holder drops any copy of another child of subject's parent, and
        every other copy of subject goes.  A holder keeps at most two
        copies and a subject has at most two holders, so this costs O(1)
        whatever the parent's degree."""
        held = self.copies.get(holder)
        if held:
            parent_of = self.engine.net.parent
            parent = parent_of[subject]
            for s in tuple(held):
                if s != subject and parent_of[s] == parent:
                    self._erase(holder, s)
        self._erase_all(subject)
        self._place(holder, subject)

    def refresh(self, subject):
        """Re-place the copy after subject's memory changed."""
        net = self.engine.net
        v = net.parent[subject]
        if v is not None:
            self._refresh(subject, copy_holder(net, v, subject))

    def on_leaf_added(self, parent, child):
        """Back up the new child, and its previous sibling at it."""
        net = self.engine.net
        order = net.children[parent]
        self._refresh(child, copy_holder(net, parent, child))
        if len(order) > 1:
            self._place(child, order[order.index(child) - 1])

    def read_copy(self, parent, child) -> dict:
        """Fetch the copy of a child's memory; charged if held by a sibling."""
        net = self.engine.net
        held = self.copies.get(parent, {})
        if child in held:
            return held[child]
        nxt = next_sibling(net, parent, child)
        held = self.copies.get(nxt, {})
        if child in held:
            net.ledger.count("backup", 2)
            return held[child]
        raise MemoryError_(f"no backup copy of node {child}")

    def on_child_removed(self, parent, child):
        """Back up the removed child's previous sibling among the rest:
        at the parent if it is left alone, else at the sibling that
        followed the removed child."""
        order = self.engine.net.children[parent]
        if len(order) > 1:
            i = order.index(child)
            holder = (parent if len(order) == 2
                      else order[(i + 1) % len(order)])
            self._refresh(order[i - 1], holder)
        self._erase_all(child)
        for s in self.copies.pop(child, ()):
            self.holders[s].discard(child)

    def held_bits(self, holder) -> int:
        return sum(snapshot_bits(s) for s in self.copies.get(holder, {}).values())

    def check(self) -> list[str]:
        """Every child's copy must sit at its parent or at its next
        sibling in cyclic port order.  Leaves are skipped all at once,
        and each sibling list is read in one pass with no copies of
        it."""
        out = []
        net = self.engine.net
        children = net.children
        copies = self.copies
        none = {}
        nodes = net.alive_list
        for v in compress(nodes, map(children.__getitem__, nodes)):
            order = children[v]
            here = copies.get(v, none)
            u = order[-1]           # each child u before its next one
            for nxt in order:
                if u not in here and u not in copies.get(nxt, none):
                    out.append(f"no copy of child {u} at {v} or {nxt}")
                u = nxt
        alive = net.alive
        if (not all(map(alive.get, copies))
                or max(map(len, copies.values()), default=0) > 2):
            for holder, held in copies.items():
                if held and not alive.get(holder, False):
                    out.append(f"dead node {holder} holds copies")
                if len(held) > 2:
                    out.append(f"node {holder} holds {len(held)} copies")
        return out
