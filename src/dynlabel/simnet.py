"""Deterministic simulated message-passing network over a rooted tree.

The network owns topology (parent pointers, port numbers, liveness), the
only two topological events (add-leaf, remove-leaf), and the message
ledger.  Protocol layers register listeners and are informed of events
synchronously; event notifications themselves cost no messages, only
explicit ``send`` calls are charged, one per hop to a tree neighbour.

A port number belongs to one end of a tree edge.  Stored ports are
keyed by the edge's child end c: ``up_port[c]`` is the port at c toward
its parent, ``down_port[c]`` the port at c's parent toward c.  Port
assignment depends on the port model and on whether the running static
scheme embeds port numbers in labels:

* ``compact``    -- node-chosen ports kept as the prefix 1..deg: a
  child's port is its position in its parent's children list (a new
  child goes first), so it is neither stored nor ever rewritten.
* ``stable``     -- node-chosen ports that never move once assigned
  (required when labels reference ports).
* ``adversary``  -- a seeded callback picks arbitrary distinct
  nonnegative ports up to a configurable cap.
"""

from __future__ import annotations

import bisect
import csv
import random
from dataclasses import dataclass, field
from enum import Enum
from operator import ge


class SimulationError(RuntimeError):
    pass


class InvalidEvent(SimulationError):
    """Topological event rejected by its precondition."""


class DeadNeighborError(SimulationError):
    """A message was addressed to a deleted node."""


class PortAssignment(str, Enum):
    COMPACT = "compact"
    STABLE = "stable"
    ADVERSARY = "adversary"


DEFAULT_PORT_CAP = 1 << 20


@dataclass(frozen=True)
class ScenarioEvent:
    kind: str  # "A" (add leaf under target) or "R" (remove leaf target)
    target: int

    def __post_init__(self):
        if self.kind not in ("A", "R"):
            raise ValueError(f"bad event kind {self.kind!r}")


def parse_scenario(text: str) -> list[ScenarioEvent]:
    """Parse the newline-delimited ``A <id>`` / ``R <id>`` format."""
    events = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        try:
            kind, target = line.split()
            events.append(ScenarioEvent(kind, int(target)))
        except ValueError:
            raise ValueError(f"line {lineno}: bad scenario line "
                             f"{raw!r}") from None
    return events


def format_scenario(events) -> str:
    return "".join(f"{e.kind} {e.target}\n" for e in events)


@dataclass
class MetricsLedger:
    """Message and size accounting for one run."""

    messages_total: int = 0
    by_category: dict = field(default_factory=dict)
    messages_to_dead: int = 0
    max_label_bits: int = 0
    max_memory_bits: int = 0
    reset_count: int = 0
    marker_max_messages: int = 0
    marker_last_messages: int = 0
    per_event_rows: list = field(default_factory=list)

    def count(self, category: str, n: int = 1) -> None:
        self.messages_total += n
        self.by_category[category] = self.by_category.get(category, 0) + n

    def category(self, name: str) -> int:
        return self.by_category.get(name, 0)

    def protocol_messages(self) -> int:
        """Messages belonging to the labeling scheme proper."""
        return sum(
            self.by_category.get(c, 0)
            for c in ("signal", "reset_count", "marker", "broadcast")
        )

    def note_label_bits(self, n: int) -> None:
        if n > self.max_label_bits:
            self.max_label_bits = n

    def note_memory_bits(self, n: int) -> None:
        if n > self.max_memory_bits:
            self.max_memory_bits = n

    def note_marker(self, messages: int) -> None:
        self.marker_last_messages = messages
        if messages > self.marker_max_messages:
            self.marker_max_messages = messages

    def snapshot_event(self, event_index: int, alive_n: int) -> None:
        self.per_event_rows.append(
            (event_index, alive_n, self.messages_total,
             self.max_label_bits, self.max_memory_bits)
        )

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["event", "n", "messages", "maxLabelBits", "maxMemBits"])
            out.writerows(self.per_event_rows)


class Network:
    """Rooted dynamic tree with ports, liveness and charged messaging."""

    def __init__(self, *, assignment=PortAssignment.COMPACT, rng=None,
                 port_cap=DEFAULT_PORT_CAP):
        self.assignment = PortAssignment(assignment)
        self.rng = rng if rng is not None else random.Random(0)
        self.port_cap = port_cap
        self.root = 0
        self.next_id = 1
        self.parent = {0: None}
        self.children = {0: []}          # alive children, port order
        self.depth = {0: 0}
        self.alive = {0: True}
        self.alive_list = [0]            # alive nodes, stable swap-remove order
        self._alive_pos = {0: 0}
        # stored port numbers of each tree edge, keyed by its child end c
        self.down_port = {}              # c -> port at parent(c) toward c,
                                         # stable and adversary edges only
        self.up_port = {}                # c -> port at c toward parent(c)
        self.ledger = MetricsLedger()
        self._add_listeners = []
        self._remove_listeners = []

    # -- registration -------------------------------------------------

    def on_add(self, cb) -> None:
        self._add_listeners.append(cb)

    def on_remove(self, cb) -> None:
        self._remove_listeners.append(cb)

    # -- queries ------------------------------------------------------

    @property
    def alive_count(self) -> int:
        return len(self.alive_list)

    def is_alive(self, v) -> bool:
        return self.alive.get(v, False)

    def is_leaf(self, v) -> bool:
        return not self.children[v]

    def alive_nodes(self) -> list:
        return list(self.alive_list)

    def children_by_port(self, v) -> list:
        """v's alive children in port order: the stored list, not a copy."""
        return self.children[v]

    def child_at(self, v, port):
        """v's child behind a stored ``port`` (stable or adversary
        ports), or None: a bisect over the children list, which is kept
        in port order."""
        kids = self.children[v]
        down = self.down_port
        i = bisect.bisect_left(kids, port, key=down.__getitem__)
        if i < len(kids) and down[kids[i]] == port:
            return kids[i]
        return None

    # -- topological events ---------------------------------------------

    def add_leaf(self, parent: int) -> int:
        """Attach a fresh leaf under an alive parent; returns its id."""
        if not self.is_alive(parent):
            raise InvalidEvent(f"add-leaf: parent {parent} not alive")
        child = self.next_id
        self._assign_ports(parent, child)
        self.next_id += 1
        self.parent[child] = parent
        self.children[child] = []
        self.depth[child] = self.depth[parent] + 1
        self.alive[child] = True
        self._alive_pos[child] = len(self.alive_list)
        self.alive_list.append(child)
        for cb in self._add_listeners:
            cb(parent, child)
        return child

    def remove_leaf(self, leaf: int) -> None:
        """Delete an alive non-root leaf; listeners run before teardown."""
        if not self.is_alive(leaf):
            raise InvalidEvent(f"remove-leaf: {leaf} not alive")
        if leaf == self.root:
            raise InvalidEvent("remove-leaf: root is never deleted")
        if self.children[leaf]:
            raise InvalidEvent(f"remove-leaf: {leaf} has children")
        for cb in self._remove_listeners:
            cb(leaf)
        self.children[self.parent[leaf]].remove(leaf)
        self.down_port.pop(leaf, None)
        del self.up_port[leaf]
        self.alive[leaf] = False
        i = self._alive_pos.pop(leaf)
        last = self.alive_list.pop()
        if last != leaf:
            self.alive_list[i] = last
            self._alive_pos[last] = i

    def _assign_ports(self, parent, child):
        """Number the new edge at both ends (q at the parent, r at the
        child) and place the child in the parent's port-ordered list.  A
        compact child goes first, so its position is its port q = 1; the
        parent's own up port moves up past it, and q is not stored."""
        down, up, kids = self.down_port, self.up_port, self.children[parent]
        if self.assignment is PortAssignment.COMPACT:
            if parent in up:
                up[parent] += 1
            up[child] = 1
            kids.insert(0, child)
            return
        if self.assignment is PortAssignment.STABLE:
            q = max(up.get(parent, 0), down[kids[-1]] if kids else 0) + 1
            r = 0
        else:
            q = self._adversary_port(parent)
            # the child's first port: no other port at it to avoid
            r = self.rng.randrange(self.port_cap + 1)
        down[child] = q
        up[child] = r
        bisect.insort(kids, child, key=down.__getitem__)

    def _adversary_port(self, node):
        """A port at node drawn until it is neither node's parent port
        nor a child's."""
        own = self.up_port.get(node)
        if len(self.children[node]) + (own is not None) > self.port_cap:
            raise InvalidEvent(f"add-leaf: node {node} has no free port "
                               f"in 0..{self.port_cap}")
        while True:
            q = self.rng.randrange(self.port_cap + 1)
            if q != own and self.child_at(node, q) is None:
                return q

    def normalize_ports(self, v) -> None:
        """Designer renumbering of a compact node: its children's ports
        are their positions 1..k, so only the port to its parent moves,
        to k+1."""
        if v in self.up_port:
            self.up_port[v] = len(self.children[v]) + 1

    # -- messaging ------------------------------------------------------

    def send(self, frm: int, to: int, category: str):
        """One charged hop from an alive node frm to its tree neighbour
        ``to``."""
        parent = self.parent
        if not (self.alive.get(frm)
                and (parent.get(to) == frm or parent.get(frm) == to)):
            raise SimulationError(f"node {to} is not a neighbour of {frm}")
        if not self.alive[to]:
            self.ledger.messages_to_dead += 1
            raise DeadNeighborError(f"message from {frm} to deleted node {to}")
        self.ledger.count(category)
        return to

    def charge_path(self, frm: int, ancestor: int, category: str) -> int:
        """Relay a signal from frm up to an ancestor, one hop per edge."""
        hops = 0
        x = frm
        while x != ancestor:
            p = self.parent[x]
            if p is None:
                raise SimulationError(f"{ancestor} is not an ancestor of {frm}")
            self.send(x, p, category)
            x = p
            hops += 1
        return hops

    def broadcast_convergecast(self, subtree_root: int, scope, aggregate,
                               category="reset_count"):
        """Broadcast down and converge back up over a subtree.

        ``scope`` maps each member to its children inside the subtree
        (``children`` itself for the whole tree below ``subtree_root``);
        ``aggregate(node)`` yields each member's contribution, and the
        sum over the members reached from ``subtree_root`` is returned.
        Charges exactly 2*(m-1) messages for the m members reached.
        """
        if not self.is_alive(subtree_root):
            raise SimulationError(f"subtree root {subtree_root} not alive")
        total = aggregate(subtree_root)
        stack = [subtree_root]
        while stack:
            v = stack.pop()
            for c in scope[v]:
                self.send(v, c, category)      # down
                self.send(c, v, category)      # up
                total += aggregate(c)
                stack.append(c)
        return total

    # -- structural checks ----------------------------------------------

    def check_ports(self, nodes=None) -> list[str]:
        """Port faults at every node of ``nodes`` (all alive nodes when
        omitted): a node's parent port must not be one of its child
        ports, stored child ports must increase strictly in list order,
        and adversary ports must lie in 0..port_cap.

        Compact child ports are list positions, so they cannot skip,
        repeat or fall out of order; a stored port is kept once, keyed
        by its edge's child end, so it cannot outlive its edge.  One
        pass over the nodes reads their child ports; message strings
        are built only at faults."""
        if nodes is None:
            nodes = self.alive_list
        down, up, children = self.down_port, self.up_port, self.children
        compact = self.assignment is PortAssignment.COMPACT
        bad = []
        for v in nodes:
            kids = children[v]
            if not kids:
                continue
            if compact:
                if 1 <= up.get(v, 0) <= len(kids):
                    bad.append(f"node {v}: parent port {up[v]} is also a "
                               f"child port")
                continue
            got = list(map(down.__getitem__, kids))
            if any(map(ge, got, got[1:])):
                bad.append(f"node {v}: child ports {got} are not in "
                           f"port order")
            if up.get(v) in got:
                bad.append(f"node {v}: parent port {up[v]} is also a "
                           f"child port")
        if self.assignment is PortAssignment.ADVERSARY:
            cap = self.port_cap
            used = [up[v] for v in nodes if v in up]
            used += [down[c] for v in nodes for c in children[v]]
            if used and (min(used) < 0 or max(used) > cap):
                for v in nodes:
                    pv = [down[c] for c in children[v]]
                    if v in up:
                        pv.append(up[v])
                    if pv and (min(pv) < 0 or max(pv) > cap):
                        bad.append(f"node {v}: adversary ports {sorted(pv)} "
                                   f"exceed 0..{cap}")
        return bad

    def check_tree_shape(self, seen=None) -> list[str]:
        """Alive nodes must form one tree rooted at the root; ``seen``
        holds the nodes reachable from the root, when already known."""
        bad = []
        if seen is None:
            seen = set()
            stack = [self.root]
            while stack:
                v = stack.pop()
                seen.add(v)
                stack.extend(self.children[v])
        for v in self.alive_list:
            if v not in seen:
                bad.append(f"node {v} unreachable from root")
        if len(seen) != self.alive_count:
            bad.append("alive count does not match reachable set")
        return bad
