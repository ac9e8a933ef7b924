"""Golden wire digests: one SHA-256 per wire family over fixed inputs.

The families are the static labels a marker gives every node of a fixed
40-node tree (one per static scheme), the values of every ordered node
pair of that tree (one per tree function), and the nested dynamic
labels of every node of a grown ``FiniteScheme`` (one per function).
Ports are adversary-chosen below 2**20, so routing labels and values
carry wide port numbers.  A digest hashes the family's wire strings in
node (or pair) order, one per line, so a change to any encoding shows.

``python tests/_wire.py > tests/data/wire_digests.json`` records the
file; ``tests/test_wire.py`` replays the families against it.
"""

import hashlib
import json
import random

from dynlabel import (FiniteScheme, Network, PortAssignment, bits,
                      encode_dynamic_label, get_function, scheme_for)

from _util import build_net, grow_random, random_parents, scope_of

FUNCTIONS = ("ancestry", "distance", "seplevel", "routing")
TREE_NODES = 40
SEED = 2006
ADDS = 40


def _hash(wires) -> str:
    return hashlib.sha256("\n".join(wires).encode()).hexdigest()


def _tree():
    parents = random_parents(random.Random(SEED), TREE_NODES)
    return build_net(parents, assignment=PortAssignment.ADVERSARY, seed=SEED)


def _grown(function):
    net = Network(assignment=PortAssignment.ADVERSARY,
                  rng=random.Random(SEED))
    s = FiniteScheme(net, function, quota=3, levels=3)
    rng = random.Random(SEED)
    while not s.finished and s.joins < ADDS:
        grow_random(s, net, rng, 1)
    return s, net


def digests() -> dict:
    net = _tree()
    nodes = net.alive_nodes()
    out = {}
    for name in FUNCTIONS:
        pi = scheme_for(name)
        labels = pi.marker(net, net.root, scope_of(net, net.root, nodes))
        out[f"static {name}"] = _hash(bits.encode(pi.layout, labels[v])
                                      for v in nodes)
    for name in FUNCTIONS:
        fn = get_function(name)
        out[f"values {name}"] = _hash(
            bits.encode(fn.layout, fn.oracle(net, u, v))
            for u in nodes for v in nodes)
    for name in FUNCTIONS:
        s, grown = _grown(name)
        pi, fn = scheme_for(name), get_function(name)
        out[f"dynamic {name}"] = _hash(
            encode_dynamic_label(pi, fn, s.core.label(v))
            for v in grown.alive_nodes())
    return out


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1))
