"""Tree functions, their brute-force oracles and value algebra.

Each supported function F on node pairs provides:

* ``value(net, u, v, a, via)`` -- the one rule for F(u, v), given
  a = nca(u, v) and ``via``: the child of u toward v when u is a strict
  ancestor of v, the child of v toward u when v is a strict ancestor of
  u, and None otherwise.  Both oracles derive from it:
  ``oracle(net, u, v)`` finds (a, via) with one upward walk
  (``nca_via``), and ``oracle_row(net, u)`` gives ``{v: F(u, v)}`` for
  every node v of u's tree from one outward walk; they are the ground
  truth of the test harness,
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


def nca_via(net, u, v):
    """(nca(u, v), via) of two alive nodes from one upward walk; ``via``
    is as ``value`` takes it: the last node the deeper walker left
    before it met the other argument, or None."""
    parent, depth = net.parent, net.depth
    via = None
    x, y = u, v
    dx, dy = depth[u], depth[v]
    while dx > dy:
        via, x = x, parent[x]
        dx -= 1
    while dy > dx:
        via, y = y, parent[y]
        dy -= 1
    if x == y:
        return x, via
    while x != y:
        x, y = parent[x], parent[y]
    return x, None


def _outward(net, u):
    """(v, nca(u, v), via) for every node v of u's tree, ``via`` as
    ``value`` takes it, from one walk out of u that reads only
    ``parent`` and ``children``."""
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

    def value(self, net, u, v, a, via):
        """F(u, v) given a = nca(u, v) and ``via`` (see the module
        docstring); the one rule both oracles read."""
        raise NotImplementedError

    def oracle(self, net, u, v):
        a, via = nca_via(net, u, v)
        return self.value(net, u, v, a, via)

    def oracle_row(self, net, u) -> dict:
        value = self.value
        return {v: value(net, u, v, a, via) for v, a, via in _outward(net, u)}

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

    def value(self, net, u, v, a, via):
        return (a == u, a == v)

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

    def value(self, net, u, v, a, via):
        depth = net.depth
        return depth[u] + depth[v] - 2 * depth[a]

    def compose(self, a, b):
        return a + b

    def self_value(self, net, w):
        return 0

    def edge_value(self, net, parent, child):
        return 1


class SeparationLevel(TreeFunction):
    name = "seplevel"
    layout = bits.UINT

    def value(self, net, u, v, a, via):
        return net.depth[a]

    def compose(self, a, b):
        return min(a, b)

    def self_value(self, net, w):
        return net.depth[w]

    def edge_value(self, net, parent, child):
        return net.depth[parent]


class Routing(TreeFunction):
    """First-hop routing; asymmetric, so values carry both directions.
    Values name stored ports: routing needs stable or adversary ports."""

    name = "routing"
    symmetric = False
    layout = (bits.tag(ROUTE_SELF[0], "port"), bits.UINT, bits.UINT)

    def value(self, net, u, v, a, via):
        if u == v:
            return ROUTE_SELF
        down, up = net.down_port, net.up_port
        return ("port", down[via] if a == u else up[u],
                down[via] if a == v else up[v])

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
        return ("port", net.down_port[child], net.up_port[child])


FUNCTIONS = {
    f.name: f for f in (Ancestry(), Distance(), SeparationLevel(), Routing())
}


def get_function(name: str) -> TreeFunction:
    try:
        return FUNCTIONS[name]
    except KeyError:
        raise FunctionError(f"unknown tree function {name!r}") from None

