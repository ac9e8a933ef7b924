"""Tree functions, their brute-force oracles and value algebra.

Each supported function F on node pairs provides:

* ``value(net, u, v, a, via)`` -- the one rule for F(u, v), given
  a = nca(u, v) and ``via``: the child of u toward v when u is a strict
  ancestor of v, the child of v toward u when v is a strict ancestor of
  u, and None otherwise.  (a, via) is the same for (u, v) and (v, u).
  The oracles, the ground truth of the test harness, derive from it:
  ``oracle(net, u, v)`` finds (a, via) with one upward walk
  (``nca_via``), and ``outward(net, w)`` yields (v, a, via) for every
  node v of w's tree from one walk, so ``value`` gives both F(w, v) and
  F(v, w) from it,
* ``facts``              -- the per-node network maps ``value`` reads,
  directly or through (a, via): a pair's value changes only if a fact
  of a node on its path does,
* ``compose(a, b)``      -- combine F(u,w) and F(w,v) into F(u,v) for
  any w on the u-v path,
* ``reverse(a)``         -- F(v,u) from F(u,v),
* ``layout``              -- the wire layout of a value, from which
  ``bits.encode``, ``bits.read`` and ``bits.size`` derive its coding.

The algebra is ``value``, ``compose`` and ``reverse``: ``self_value``
and ``edge_value``, the values a node produces locally for incremental
label maintenance, are ``value`` at (w, w) and across a tree edge.

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


def outward(net, u):
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
    facts = ("parent", "depth")

    def value(self, net, u, v, a, via):
        """F(u, v) given a = nca(u, v) and ``via`` (see the module
        docstring); the one rule every other value derives from."""
        raise NotImplementedError

    def oracle(self, net, u, v):
        a, via = nca_via(net, u, v)
        return self.value(net, u, v, a, via)

    def compose(self, a, b):
        raise NotImplementedError

    def reverse(self, a):
        return a

    def self_value(self, net, w):
        """F(w, w)."""
        return self.value(net, w, w, w, None)

    def edge_value(self, net, parent, child):
        """F(parent, child) for a tree edge, known locally at creation."""
        return self.value(net, parent, child, parent, child)


class Ancestry(TreeFunction):
    name = "ancestry"
    layout = (bits.FLAG, bits.FLAG)

    def value(self, net, u, v, a, via):
        return (a == u, a == v)

    def compose(self, a, b):
        return (a[0] and b[0], a[1] and b[1])

    def reverse(self, a):
        return (a[1], a[0])


class Distance(TreeFunction):
    name = "distance"
    layout = bits.UINT

    def value(self, net, u, v, a, via):
        depth = net.depth
        return depth[u] + depth[v] - 2 * depth[a]

    def compose(self, a, b):
        return a + b


class SeparationLevel(TreeFunction):
    name = "seplevel"
    layout = bits.UINT

    def value(self, net, u, v, a, via):
        return net.depth[a]

    def compose(self, a, b):
        return min(a, b)


class Routing(TreeFunction):
    """First-hop routing; asymmetric, so values carry both directions.
    Values name stored ports: routing needs stable or adversary ports."""

    name = "routing"
    symmetric = False
    layout = (bits.tag(ROUTE_SELF[0], "port"), bits.UINT, bits.UINT)
    facts = ("parent", "depth", "up_port", "down_port")

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


FUNCTIONS = {
    f.name: f for f in (Ancestry(), Distance(), SeparationLevel(), Routing())
}


def get_function(name: str) -> TreeFunction:
    try:
        return FUNCTIONS[name]
    except KeyError:
        raise FunctionError(f"unknown tree function {name!r}") from None

