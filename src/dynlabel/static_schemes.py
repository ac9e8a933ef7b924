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

Schemes provided:

* ancestry  -- depth-first intervals [a, a + d], stored as (a, d);
  ancestor intervals contain descendant intervals,
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
    mc_budget: Callable       # n -> message budget


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
    a, b = {}, {}
    counter = 0
    stack = [(root, False)]
    while stack:
        v, done = stack.pop()
        if done:
            b[v] = max((b[c] for c in scope[v]), default=a[v])
            continue
        counter += 1
        a[v] = counter
        b[v] = counter
        stack.append((v, True))
        for c in reversed(scope[v]):
            stack.append((c, False))
    return {v: bits.sized(INTERVAL, (a[v], b[v] - a[v])) for v in scope}


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
    nbrs = {}
    for v in scope:
        out = list(scope[v])
        p = net.parent[v]
        if p in scope:
            out.append(p)
        nbrs[v] = out
    uid = {v: i for i, v in enumerate(sorted(scope))}
    entries = {v: [] for v in scope}
    removed = set()
    work = [root]
    while work:
        seed = work.pop()
        comp = _component(seed, nbrs, removed)
        c = _centroid(comp, seed, nbrs, removed)
        dist = _bfs_dist(c, nbrs, removed, comp)
        for v in comp:
            entries[v].append((uid[c], dist[v]))
        removed.add(c)
        for w in nbrs[c]:
            if w in comp and w not in removed:
                work.append(w)
    return {v: bits.sized(SEPARATOR, (uid[v], net.depth[v], tuple(entries[v])))
            for v in scope}


def _component(seed, nbrs, removed):
    seen = {seed}
    stack = [seed]
    while stack:
        v = stack.pop()
        for w in nbrs[v]:
            if w not in removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _centroid(comp, seed, nbrs, removed):
    """Minimize the largest part left by removal; ties to smallest id."""
    m = len(comp)
    order = []
    par = {seed: None}
    stack = [seed]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in nbrs[v]:
            if w in comp and w not in removed and w != par[v]:
                par[w] = v
                stack.append(w)
    size = {v: 1 for v in comp}
    for v in reversed(order):
        if par[v] is not None:
            size[par[v]] += size[v]
    best, best_key = None, None
    for v in comp:
        worst = m - size[v]
        for w in nbrs[v]:
            if w in comp and w not in removed and par.get(w) == v:
                worst = max(worst, size[w])
        key = (worst, v)
        if best_key is None or key < best_key:
            best, best_key = v, key
    return best


def _bfs_dist(start, nbrs, removed, comp):
    dist = {start: 0}
    queue = [start]
    while queue:
        nxt = []
        for v in queue:
            for w in nbrs[v]:
                if w in comp and w not in removed and w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        queue = nxt
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
    size = {}
    for v in _postorder(root, scope):
        size[v] = 1 + sum(size[c] for c in scope[v])
    heavy = {}
    for v in scope:
        if scope[v]:
            heavy[v] = max(scope[v], key=lambda c: (size[c], -net.port_to[v][c]))
        else:
            heavy[v] = None
    a = {}
    light = {}
    counter = 0
    # preorder with the heavy child first keeps light lists logarithmic
    stack = [(root, ())]
    while stack:
        v, acc = stack.pop()
        counter += 1
        a[v] = counter
        light[v] = acc
        order = []
        if heavy[v] is not None:
            order.append((heavy[v], acc))
        for c in scope[v]:
            if c != heavy[v]:
                order.append((c, acc + ((a[v], net.port_to[v][c]),)))
        for item in reversed(order):
            stack.append(item)
    out = {}
    for v in scope:
        pp = -1 if net.parent[v] is None else net.port_to[v][net.parent[v]]
        hp = -1 if heavy[v] is None else net.port_to[v][heavy[v]]
        out[v] = bits.sized(ROUTING, (a[v], size[v] - 1, pp, hp, light[v]))
    return out


def _postorder(root, scope):
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(scope[v])
    return reversed(order)


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
        interval_label_budget, marker_message_budget),
    "distance": StaticScheme(
        "distance", separator_marker, separator_distance_decode, SEPARATOR,
        separator_label_budget, marker_message_budget),
    "seplevel": StaticScheme(
        "seplevel", separator_marker, separator_seplevel_decode, SEPARATOR,
        separator_label_budget, marker_message_budget),
    "routing": StaticScheme(
        "routing", routing_marker, routing_decode, ROUTING,
        routing_label_budget, marker_message_budget),
}


def scheme_for(function_name: str) -> StaticScheme:
    try:
        return SCHEMES[function_name]
    except KeyError:
        raise DecodeError(f"no static scheme for {function_name!r}") from None
