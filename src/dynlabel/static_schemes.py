"""Static labeling schemes run as root-coordinated marker protocols.

A marker labels every member of a connected subtree in one invocation.
It takes the subtree as a scope map: each member, root first, mapped to
its children inside the subtree in port order.  The invocation is
charged as a traversal that crosses each subtree edge once in each
direction (2*(m-1) messages for m members).  Decoders are pure
functions of two labels from the same invocation.

A label is the tuple of its wire fields, in the order its scheme's
``layout`` declares them, followed by its exact bit count, which the
marker sets once when it builds the label (``bits.sized``).

Each marker walks its scope once per job: the interval and routing
markers share one preorder (``_preorder``) and the subtree sizes read
off it (``_sizes``), and the separator marker finds each centroid with
one walk of its component, whose order is the component.

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
    name: str
    marker: Callable          # (net, root, scope map) -> {node: label}
    decoder: Callable         # (label_u, label_v) -> F value
    layout: tuple             # wire fields of a label (bits.encode/read)
    ls_budget: Callable       # (n, port bits) -> bit budget
    mc_budget: Callable = marker_message_budget   # n -> message budget


def _charge_traversal(net, root, scope):
    """Walk every scope edge down and back, one message per crossing;
    the scope must be connected below its root."""
    before = net.ledger.messages_total
    seen = net.broadcast_convergecast(root, scope, lambda v: 1,
                                      category="marker")
    net.ledger.note_marker(net.ledger.messages_total - before)
    if seen != len(scope):
        raise DecodeError("marker scope is not connected")


# -- ancestry: depth-first intervals ---------------------------------------


INTERVAL = (bits.UINT, bits.UINT)       # a, d: the interval [a, a + d]


def dfs_interval_marker(net, root, scope):
    _charge_traversal(net, root, scope)
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


def separator_marker(net, root, scope):
    """Recursive centroid decomposition; labels carry one (separator,
    distance) entry per level plus the node's depth in the whole tree."""
    _charge_traversal(net, root, scope)
    # the traversal reached every member but the root from its parent
    nbrs = {v: kids if v == root else kids + [net.parent[v]]
            for v, kids in scope.items()}
    uid = {v: i for i, v in enumerate(sorted(scope))}
    entries = {v: [] for v in scope}
    removed = set()
    work = [root]
    while work:
        seed = work.pop()
        comp, c = _centroid(seed, nbrs, removed)
        dist = _tree_dist(c, nbrs, removed)
        for v in comp:
            entries[v].append((uid[c], dist[v]))
        removed.add(c)
        # every neighbour not removed seeds one part of the component
        for w in nbrs[c]:
            if w not in removed:
                work.append(w)
    return {v: bits.sized(SEPARATOR, (uid[v], net.depth[v], tuple(entries[v])))
            for v in scope}


def _centroid(seed, nbrs, removed):
    """One DFS over the seed's component (the members not removed that
    it reaches); returns its order and the centroid, the member whose
    removal leaves the smallest largest part, ties to smallest id."""
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
    big = dict.fromkeys(order, 0)           # largest child part
    for v in reversed(order):
        p = par[v]
        if p is not None:
            size[p] += size[v]
            if size[v] > big[p]:
                big[p] = size[v]
    # an explicit loop measured faster than min(key=...) on Python 3.11
    best = None
    for v in order:
        key = (max(m - size[v], big[v]), v)
        if best is None or key < best:
            best = key
    return order, best[1]


def _tree_dist(start, nbrs, removed):
    """Distances from start to the members not removed (one path each)."""
    dist = {start: 0}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in nbrs[v]:
            if w not in removed and w not in dist:
                dist[w] = dist[v] + 1
                stack.append(w)
    return dist


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
    _charge_traversal(net, root, scope)
    size = _sizes(_preorder(root, scope), scope)
    port_to = net.port_to
    heavy = {v: max(kids, key=lambda c: (size[c], -port_to[v][c]))
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
                stack.append((c, light + ((counter, port_to[v][c]),)))
        if h is not None:
            stack.append((h, light))
        p = net.parent[v]
        out[v] = bits.sized(ROUTING, (
            counter, size[v] - 1, -1 if p is None else port_to[v][p],
            -1 if h is None else port_to[v][h], light))
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
        "ancestry", dfs_interval_marker, dfs_interval_decode, INTERVAL,
        interval_label_budget),
    "distance": StaticScheme(
        "distance", separator_marker, separator_distance_decode, SEPARATOR,
        separator_label_budget),
    "seplevel": StaticScheme(
        "seplevel", separator_marker, separator_seplevel_decode, SEPARATOR,
        separator_label_budget),
    "routing": StaticScheme(
        "routing", routing_marker, routing_decode, ROUTING,
        routing_label_budget),
}


def scheme_for(function_name: str) -> StaticScheme:
    try:
        return SCHEMES[function_name]
    except KeyError:
        raise DecodeError(f"no static scheme for {function_name!r}") from None
