"""Random event streams, valid or not, through the scheme drivers: only
the run's recorded errors escape, a rejected event changes nothing,
every node's children stay listed in port order, every backup copy
sits where the placement rule puts it, and every stored label and
anchor row matches a walk to the root."""

import pickle
import random

from hypothesis import given, settings, strategies as st

from dynlabel import (DynamicScheme, IncreasingScheme, Network,
                      PortAssignment, QuotaFunction)
from dynlabel.harness import RUN_ERRORS
from dynlabel.simnet import ScenarioEvent

from _util import child_ports, stale_labels

NETWORKS = [(PortAssignment.COMPACT, 1 << 20),
            (PortAssignment.STABLE, 1 << 20),
            (PortAssignment.ADVERSARY, 1),
            (PortAssignment.ADVERSARY, 3),
            (PortAssignment.ADVERSARY, 1 << 20)]

# 60 events of (kind, how the target is picked, index into the picked
# pool), two adds to a removal so the tree grows; "id" ranges over -1,
# every id handed out so far (dead ones included) and two ids not
# handed out yet
EVENTS = st.lists(st.tuples(st.sampled_from("AAR"),
                            st.sampled_from(["alive", "leaf", "id"]),
                            st.integers(0, 1 << 16)),
                  min_size=60, max_size=60)


def _target(net, pick, i):
    if pick == "alive":
        pool = net.alive_list
    elif pick == "leaf":
        pool = [v for v in net.alive_list if net.is_leaf(v)]
    else:
        return i % (net.next_id + 3) - 1
    return pool[i % len(pool)]


def _state(scheme):
    net = scheme.net
    return pickle.dumps((net.parent, net.children, net.down_port, net.up_port,
                         net.alive, net.next_id, scheme.core.states,
                         scheme.core.labels, scheme.core._anchor_rows,
                         scheme.core.backups and scheme.core.backups.copies,
                         net.ledger.messages_total))


def _holder(net, u):
    """Where u's copy belongs: at its parent when it is an only child,
    else at its next sibling in cyclic port order."""
    p = net.parent[u]
    order = net.children[p]
    if len(order) == 1:
        return p
    return order[(order.index(u) + 1) % len(order)]


def _backup_faults(net, copies):
    """Alive non-root nodes without a copy at their holder, and copies
    neither at their holder nor at their subject's parent."""
    missing = [u for u in net.alive_list if u != net.root
               and u not in copies.get(_holder(net, u), {})]
    stray = [(h, u) for h, held in copies.items() for u in held
             if h not in (_holder(net, u), net.parent[u])]
    return missing, stray


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(network=st.sampled_from(NETWORKS),
       model=st.sampled_from([IncreasingScheme, DynamicScheme]),
       seed=st.integers(0, 1000), events=EVENTS)
def test_event_streams_keep_the_state_sound(network, model, seed, events):
    assignment, cap = network
    net = Network(assignment=assignment, rng=random.Random(seed),
                  port_cap=cap)
    scheme = model(net, "distance", QuotaFunction.parse("pow:0.5"))
    for kind, pick, i in events:
        before = _state(scheme)
        try:
            scheme.apply(ScenarioEvent(kind, _target(net, pick, i)))
        except RUN_ERRORS:
            assert _state(scheme) == before
        for v in net.alive_list:
            got = child_ports(net, v)
            assert got == sorted(got)
        assert net.check_ports() == []
        assert scheme.core.labels.keys() == set(net.alive_list)
        assert stale_labels(scheme.core) == []
        if scheme.core.backups is not None:
            assert _backup_faults(net, scheme.core.backups.copies) == ([], [])
