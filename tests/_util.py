"""Shared test helpers: exhaustive tree enumeration and builders."""

import random

from dynlabel import Network, PortAssignment


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


def random_parents(rng, n):
    """Parent vector of a uniformly grown random tree on n nodes."""
    return [rng.randrange(i + 1) for i in range(n - 1)]


def grow_random(scheme, net, rng, adds):
    for _ in range(adds):
        scheme.add_leaf(net.alive_list[rng.randrange(len(net.alive_list))])


def scope_of(net, root, members):
    """Scope map of a member set, as resets hand it to markers and
    convergecasts: each member, root first, mapped to its children inside
    the set in port order."""
    members = set(members)
    order = [root] + sorted(members - {root})
    return {v: [c for c in net.children[v] if c in members] for v in order}


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
