"""Static labeling schemes run as root-coordinated marker protocols.

A marker labels every member of a connected subtree in one invocation.
It takes the subtree as a scope map: each member mapped to its children
inside the subtree in port order, listed parents first (the root first,
every other member after its parent), as ``SchemeCore._reset``'s count
convergecast walks it and ``install_fresh`` builds it.  A marker only
labels: it writes nothing to the network or its ledger.
``SchemeCore._reset`` charges each invocation as a traversal that
crosses each subtree edge once in each direction (2*(m-1) ``marker``
messages for m members).  Decoders are pure functions of two labels
from the same invocation.

A label is the tuple of its wire fields, in the order its scheme's
``layout`` declares them, followed by its exact bit count, which the
marker sets once when it builds the label: through ``bits.sized``, or,
in the separator marker, as a running size that gains each field's bits
by the codec's rule as the field is filled.

Each marker walks its scope once per job: the interval and routing
markers share one preorder (``_preorder``) and the subtree sizes read
off it (``_sizes``).  The separator marker pays one pass per component
of its decomposition: the root's component is read off the scope map
itself, and every other part is walked once, out of the centroid that
split it off.  A walk reads a member's neighbours off the scope map (its
children) and the network's parent pointers, and builds no neighbour
lists.  It appends each member's (separator, distance) entry and adds
the entry's bits to the member's running size, and gives the part the
order and walk parents from which its own centroid is found.  Entries
are immutable and shared: a separator makes one (separator, distance)
entry per distance, held by every member at that distance, and only its
own (separator, 0) is held by one label alone.

Schemes provided:

* ancestry  -- depth-first intervals [a, a + d], stored as (a, d): the
  preorder index and the subtree size - 1; ancestor intervals contain
  descendant intervals,
* distance  -- centroid-separator entries (separator id, distance) per
  decomposition level plus the node's global depth,
* seplevel  -- the distance labels decoded to the depth of the nearest
  common ancestor,
* routing   -- depth-first intervals plus parent/heavy-child ports and
  the list of light ports on the path from the subtree root, giving an
  exact two-label first-hop decoder without renumbering any ports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import bits
from .budgets import (interval_label_budget, marker_message_budget,
                      routing_label_budget, separator_label_budget)
from .functions import ROUTE_SELF


class DecodeError(ValueError):
    pass


@dataclass(frozen=True)
class StaticScheme:
    # (net, root, scope map) -> {node: label}; writes nothing, and
    # SchemeCore._reset charges each invocation
    marker: Callable
    decoder: Callable         # (label_u, label_v) -> F value
    layout: tuple             # wire fields of a label (bits.encode/read)
    ls_budget: Callable       # (n, port bits) -> bit budget
    mc_budget: Callable = marker_message_budget   # n -> message budget


# -- ancestry: depth-first intervals ---------------------------------------


INTERVAL = (bits.UINT, bits.UINT)       # a, d: the interval [a, a + d]


def dfs_interval_marker(net, root, scope):
    order = _preorder(root, scope)
    size = _sizes(order, scope)
    return {v: bits.sized(INTERVAL, (i, size[v] - 1))
            for i, v in enumerate(order, 1)}


def _preorder(root, scope):
    """Scope members in depth-first preorder, children in port order."""
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(scope[v]))
    return order


def _sizes(order, scope):
    """Subtree sizes inside the scope, from any preorder of it."""
    size = {}
    for v in reversed(order):
        size[v] = 1 + sum(size[c] for c in scope[v])
    return size


def dfs_interval_decode(lu, lv):
    """Ancestor-or-self in both directions from interval containment."""
    au, du, _ = lu
    av, dv, _ = lv
    return (au <= av <= au + du, av <= au <= av + dv)


# -- distance / separation level: centroid separators ----------------------


# uid, depth, one (separator uid, distance) pair per decomposition level
SEPARATOR = (bits.UINT, bits.UINT, bits.PAIRS)
_uint_bits = bits.UINT.size


def separator_marker(net, root, scope):
    """Recursive centroid decomposition; labels carry one (separator,
    distance) entry per level plus the node's depth in the whole tree.

    Each component costs one pass.  The root's is read off the scope
    map, which lists parents first; every other part is walked once, out
    of the centroid that split it off, and the walk appends each member's
    entry and adds the entry's bits to the member's running size.  Equal
    entries are one object: a centroid makes one (separator, distance)
    entry per distance, shared by all its walks.  A member's neighbours
    are its children in the scope map and its tree parent; the scope
    root's parent lies outside the scope, so it starts out removed and
    no walk crosses to it.  A member's label is built when it becomes a
    centroid, as its entries are then complete; a part of one member is
    its own centroid."""
    parent, depth = net.parent, net.depth
    uid = {v: i for i, v in enumerate(sorted(scope))}
    entries = {v: [] for v in scope}
    size = dict.fromkeys(scope, 0)          # bits of the entries so far
    labels = dict.fromkeys(scope)
    removed = {parent[root]}
    at = {v: j for j, v in enumerate(scope)}
    work = [(list(scope), [at.get(parent[v], -1) for v in scope])]
    while work:
        order, up = work.pop()
        c = order[0] if len(order) == 1 else _centroid(order, up)
        removed.add(c)
        sep = uid[c]
        sep_bits = _uint_bits(sep)
        own = (sep, 0)
        # (sep, d) and its bits for each distance d from c, made once
        # and shared by all of c's walks; c's own (sep, 0) first
        shared = [(own, sep_bits + 1)]
        e = entries[c]
        e.append(own)
        # sized field by field: uid, depth, the entry count, then the
        # entries walked so far and this last one, (sep, 0)
        labels[c] = (sep, depth[c], tuple(e),
                     sep_bits + _uint_bits(depth[c]) + _uint_bits(len(e))
                     + size[c] + sep_bits + 1)
        # every neighbour not removed roots one part of the component
        for w in scope[c]:
            if w not in removed:
                work.append(_walk(w, c, scope, parent, removed, sep,
                                  sep_bits, shared, entries, size))
        w = parent[c]
        if w not in removed:
            work.append(_walk(w, c, scope, parent, removed, sep, sep_bits,
                              shared, entries, size))
    return labels


def _walk(start, frm, scope, parent, removed, sep, sep_bits, shared,
          entries, size):
    """One DFS over start's part: the members not removed that it
    reaches without crossing frm, the separator, whose id ``sep`` takes
    ``sep_bits`` bits.  Neighbours are read off the scope map and the
    parent pointers.  ``shared`` holds frm's entry (sep, d) and its bits
    per distance d, (sep, 0) first; the first member any of frm's walks
    reaches at a new distance adds that distance's pair, and every
    member at distance d (start's being 1) gets the same entry appended
    and its bits added to its running size.  Returns the part in walk
    order (parents first) and each member's walk parent as a position
    in that order (-1 for start)."""
    order, up = [], []
    stack = [(start, frm, -1, 1)]
    while stack:
        v, p, i, d = stack.pop()
        j = len(order)
        order.append(v)
        up.append(i)
        if d == len(shared):
            shared.append(((sep, d), sep_bits + _uint_bits(d)))
        entry, entry_bits = shared[d]
        entries[v].append(entry)
        size[v] += entry_bits
        d += 1
        for w in scope[v]:
            if w != p and w not in removed:
                stack.append((w, v, j, d))
        w = parent[v]
        if w != p and w not in removed:
            stack.append((w, v, j, d))
    return order, up


def _centroid(order, up):
    """The member of a part whose removal leaves the smallest largest
    part, ties to smallest id.  ``order`` lists the part parents first
    (a walk, or the root's component as the scope map lists it) and
    ``up`` holds each member's parent as a position in it (-1 for the
    first).  A tree has one such member, or two joined by an edge that
    halves it (Jordan), and the descent from the first member toward
    the larger half ends at one of them; the parts do not depend on
    which member is first or on the order, so neither does the
    result."""
    m = len(order)
    size = [1] * m
    big = [0] * m                           # largest child part
    heavy = [0] * m                         # its position
    for j in range(m - 1, 0, -1):
        p, s = up[j], size[j]
        size[p] += s
        if s > big[p]:
            big[p] = s
            heavy[p] = j
    j = 0
    while 2 * big[j] > m:
        j = heavy[j]
    if 2 * big[j] == m:
        return min(order[j], order[heavy[j]])
    return order[j]


def separator_distance_decode(lu, lv):
    best = None
    for (su, du), (sv, dv) in zip(lu[2], lv[2]):
        if su != sv:
            break
        if best is None or du + dv < best:
            best = du + dv
    if best is None:
        raise DecodeError("labels share no separator level")
    return best


def separator_seplevel_decode(lu, lv):
    d = separator_distance_decode(lu, lv)
    total = lu[1] + lv[1] - d
    if total % 2:
        raise DecodeError("inconsistent depths in separator labels")
    return total // 2


# -- routing: intervals plus light-edge port lists --------------------------


# a, d (the interval [a, a + d]), parent port and heavy-child port (-1
# for none), then one (ancestor a, port) pair per light edge from the root
ROUTING = (bits.UINT, bits.UINT, bits.SINT, bits.SINT, bits.PAIRS)


def routing_marker(net, root, scope):
    size = _sizes(_preorder(root, scope), scope)
    down = net.down_port
    heavy = {v: max(kids, key=lambda c: (size[c], -down[c]))
             if kids else None for v, kids in scope.items()}
    out = {}
    counter = 0
    # preorder with the heavy child first keeps light lists logarithmic
    stack = [(root, ())]
    while stack:
        v, light = stack.pop()
        counter += 1
        h = heavy[v]
        for c in reversed(scope[v]):
            if c != h:
                stack.append((c, light + ((counter, down[c]),)))
        if h is not None:
            stack.append((h, light))
        out[v] = bits.sized(ROUTING, (
            counter, size[v] - 1, net.up_port.get(v, -1),
            -1 if h is None else down[h], light))
    return out


def _routing_hop(lu, lv):
    """Port at the node labeled lu of the first hop toward lv."""
    au, du, pp, hp = lu[:4]
    av = lv[0]
    if not (au <= av <= au + du):
        if pp < 0:
            raise DecodeError("routing target outside a rootless scope")
        return pp
    for anc_a, port in lv[4]:
        if anc_a == au:
            return port
    if hp < 0:
        raise DecodeError("leaf label asked for a downward hop")
    return hp


def routing_decode(lu, lv):
    if lu[0] == lv[0]:
        return ROUTE_SELF
    return ("port", _routing_hop(lu, lv), _routing_hop(lv, lu))


# -- registry ----------------------------------------------------------------


SCHEMES = {
    "ancestry": StaticScheme(
        dfs_interval_marker, dfs_interval_decode, INTERVAL,
        interval_label_budget),
    "distance": StaticScheme(
        separator_marker, separator_distance_decode, SEPARATOR,
        separator_label_budget),
    "seplevel": StaticScheme(
        separator_marker, separator_seplevel_decode, SEPARATOR,
        separator_label_budget),
    "routing": StaticScheme(
        routing_marker, routing_decode, ROUTING,
        routing_label_budget),
}


def scheme_for(function_name: str) -> StaticScheme:
    try:
        return SCHEMES[function_name]
    except KeyError:
        raise DecodeError(f"no static scheme for {function_name!r}") from None
