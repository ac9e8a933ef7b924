"""Tree functions, their brute-force oracles and value algebra.

Each supported function F on node pairs provides:

* ``oracle(net, u, v)``  -- exact value from an explicit tree walk,
  used as ground truth throughout the test harness,
* ``oracle_row(net, u)`` -- ``{v: oracle(net, u, v)}`` for every node v
  of u's tree, from one outward walk,
* ``compose(a, b)``      -- combine F(u,w) and F(w,v) into F(u,v) for
  any w on the u-v path,
* ``reverse(a)``         -- F(v,u) from F(u,v),
* ``self_value(net, w)`` / ``edge_value(net, parent, child)`` -- the
  values a node can produce locally, used for incremental label
  maintenance,
* ``layout``              -- the wire layout of a value, from which
  ``bits.encode``, ``bits.read`` and ``bits.size`` derive its coding.

Values are plain tuples/ints so the query hot path stays cheap:

* ancestry     -> ``(u_before_v, v_before_u)`` booleans (ancestor-or-self)
* distance     -> int (edge count)
* seplevel     -> int (depth of the nearest common ancestor)
* routing      -> ``("self",)`` or ``("port", fwd, bwd)`` with fwd the
  first-hop port at the first argument toward the second.
"""

from __future__ import annotations

from . import bits

ROUTE_SELF = ("self",)


class FunctionError(ValueError):
    pass


def _walk_to_depth(net, x, d):
    while net.depth[x] > d:
        x = net.parent[x]
    return x


def nca(net, u, v):
    """Nearest common ancestor of two alive nodes."""
    x, y = u, v
    d = min(net.depth[x], net.depth[y])
    x = _walk_to_depth(net, x, d)
    y = _walk_to_depth(net, y, d)
    while x != y:
        x = net.parent[x]
        y = net.parent[y]
    return x


def first_hop_port(net, u, v):
    """Port at u of the first edge on the path toward v (u != v)."""
    a = nca(net, u, v)
    if u != a:
        return net.port_to[u][net.parent[u]]
    # v is a strict descendant of u: step v up to depth(u)+1
    c = _walk_to_depth(net, v, net.depth[u] + 1)
    return net.port_to[u][c]


def _outward(net, u):
    """(v, nca(u, v), via) for every node v of u's tree, from one walk
    out of u that reads only ``parent`` and ``children``.  ``via`` is the
    child of u toward a strict descendant v, the child of v toward u
    when v is a strict ancestor, and None otherwise."""
    children = net.children
    row = [(u, u, None)]
    for c in children[u]:
        stack = [c]
        while stack:
            x = stack.pop()
            row.append((x, u, c))
            stack.extend(children[x])
    prev, a = u, net.parent[u]
    while a is not None:
        row.append((a, a, prev))
        for c in children[a]:
            if c != prev:
                stack = [c]
                while stack:
                    x = stack.pop()
                    row.append((x, a, None))
                    stack.extend(children[x])
        prev, a = a, net.parent[a]
    return row


class TreeFunction:
    """Base for the supported functions; subclasses fill in the algebra."""

    name = ""
    symmetric = True
    layout = None           # wire layout of a value (see ``bits``)

    def oracle(self, net, u, v):
        raise NotImplementedError

    def oracle_row(self, net, u) -> dict:
        raise NotImplementedError

    def compose(self, a, b):
        raise NotImplementedError

    def reverse(self, a):
        return a

    def self_value(self, net, w):
        raise NotImplementedError

    def edge_value(self, net, parent, child):
        """F(parent, child) for a tree edge, known locally at creation."""
        raise NotImplementedError


class Ancestry(TreeFunction):
    name = "ancestry"
    layout = (bits.FLAG, bits.FLAG)

    def oracle(self, net, u, v):
        a = nca(net, u, v)
        return (a == u, a == v)

    def oracle_row(self, net, u):
        return {v: (a == u, a == v) for v, a, _ in _outward(net, u)}

    def compose(self, a, b):
        return (a[0] and b[0], a[1] and b[1])

    def reverse(self, a):
        return (a[1], a[0])

    def self_value(self, net, w):
        return (True, True)

    def edge_value(self, net, parent, child):
        return (True, False)


class Distance(TreeFunction):
    name = "distance"
    layout = bits.UINT

    def oracle(self, net, u, v):
        a = nca(net, u, v)
        return net.depth[u] + net.depth[v] - 2 * net.depth[a]

    def oracle_row(self, net, u):
        depth = net.depth
        du = depth[u]
        return {v: du + depth[v] - 2 * depth[a]
                for v, a, _ in _outward(net, u)}

    def compose(self, a, b):
        return a + b

    def self_value(self, net, w):
        return 0

    def edge_value(self, net, parent, child):
        return 1


class SeparationLevel(TreeFunction):
    name = "seplevel"
    layout = bits.UINT

    def oracle(self, net, u, v):
        return net.depth[nca(net, u, v)]

    def oracle_row(self, net, u):
        depth = net.depth
        return {v: depth[a] for v, a, _ in _outward(net, u)}

    def compose(self, a, b):
        return min(a, b)

    def self_value(self, net, w):
        return net.depth[w]

    def edge_value(self, net, parent, child):
        return net.depth[parent]


class Routing(TreeFunction):
    """First-hop routing; asymmetric, so values carry both directions."""

    name = "routing"
    symmetric = False
    layout = (bits.tag(ROUTE_SELF[0], "port"), bits.UINT, bits.UINT)

    def oracle(self, net, u, v):
        if u == v:
            return ROUTE_SELF
        return ("port", first_hop_port(net, u, v), first_hop_port(net, v, u))

    def oracle_row(self, net, u):
        parent, port_to = net.parent, net.port_to
        up = port_to[u].get(parent[u])      # u's port toward its parent
        row = {}
        for v, a, via in _outward(net, u):
            if v == u:
                row[v] = ROUTE_SELF
                continue
            fwd = port_to[u][via] if a == u else up
            bwd = port_to[v][via] if a == v else port_to[v][parent[v]]
            row[v] = ("port", fwd, bwd)
        return row

    def compose(self, a, b):
        if a == ROUTE_SELF:
            return b
        if b == ROUTE_SELF:
            return a
        return ("port", a[1], b[2])

    def reverse(self, a):
        if a == ROUTE_SELF:
            return a
        return ("port", a[2], a[1])

    def self_value(self, net, w):
        return ROUTE_SELF

    def edge_value(self, net, parent, child):
        return ("port", net.port_to[parent][child], net.port_to[child][parent])


FUNCTIONS = {
    f.name: f for f in (Ancestry(), Distance(), SeparationLevel(), Routing())
}


def get_function(name: str) -> TreeFunction:
    try:
        return FUNCTIONS[name]
    except KeyError:
        raise FunctionError(f"unknown tree function {name!r}") from None

