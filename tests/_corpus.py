"""A fixed corpus of corrupted scheme states for the invariant scan.

Forty seeded leaf-dynamic ``distance`` runs, alternating designer and
adversary ports, each followed by eight one-field corruptions of the
final state: five of ``top_scope``, ``ever_share`` or ``ever_count`` and
three of the run's bookkeeping fields or backup copies.  Each corruption
is undone after its scan, so one run serves all eight.

``python tests/_corpus.py`` prints one JSON line per corrupted state:
its name and the sorted messages of ``scan_invariants``.  The corpus
touches only state that every version of the scan reads, so two versions
can be compared by running this file against each.
"""

import json
import random

from dynlabel import DynamicScheme, Network, PortAssignment, QuotaFunction
from dynlabel import generate_scenario

from _util import ports_at

RUNS = 40
EVENTS = 120
SCHEME_FIELDS = ("top_scope", "ever_share", "ever_count")


def _run(seed):
    assignment = (PortAssignment.COMPACT if seed % 2 == 0
                  else PortAssignment.ADVERSARY)
    net = Network(assignment=assignment, rng=random.Random(seed * 31 + 7))
    scheme = DynamicScheme(net, "distance", QuotaFunction.parse("pow:0.5"))
    for ev in generate_scenario(seed, EVENTS, 0.3):
        scheme.apply(ev)
    return net, scheme


def _list_field(rng, st, name, levels, top):
    """(undo, name) after moving one entry of a per-level counter."""
    values = getattr(st, name)
    l = rng.randrange(1, top + 1)
    old = values[l]
    values[l] = old + rng.choice((-2, -1, 1, 2))

    def undo():
        values[l] = old
    return undo, f"{name}[{l}]"


def _slot_field(rng, net, core, name):
    """(undo, name) after pointing one child's table or back-reference
    slot at another of its parent's ports, or clearing it."""
    u = rng.choice([v for v in net.alive_list if v != net.root])
    st = core.states[u]
    values = getattr(st, name)
    l = rng.randrange(1, core.levels)
    old = values[l]
    values[l] = rng.choice(sorted(ports_at(net, net.parent[u])) + [None])

    def undo():
        values[l] = old
    return undo, f"{name}[{l}] of {u}"


def _backup(rng, net, core):
    """(undo, name) after dropping one held copy or adding a third."""
    store = core.backups
    holders = sorted(h for h, held in store.copies.items() if held)
    h = rng.choice(holders)
    held = store.copies[h]
    if rng.random() < 0.5:
        s = rng.choice(sorted(held))
        snap = held.pop(s)

        def undo():
            held[s] = snap
        return undo, f"drop copy of {s} at {h}"
    extra = [v for v in net.alive_list if v not in held][:3 - len(held)]
    for s in extra:
        held[s] = {}

    def undo():
        for s in extra:
            del held[s]
    return undo, f"extra copies {extra} at {h}"


def _corrupt(rng, net, core, kind):
    levels = core.levels
    v = rng.choice(net.alive_list)
    st = core.states[v]
    if kind == "top_scope":
        old = st.top_scope
        st.top_scope = rng.choice([t for t in range(-1, levels + 2)
                                   if t != old])

        def undo():
            st.top_scope = old
        return undo, f"top_scope of {v}"
    if kind in ("ever_share", "ever_count"):
        undo, name = _list_field(rng, st, kind, levels, levels)
        return undo, f"{name} of {v}"
    if kind in ("watermark", "scoped_count"):
        undo, name = _list_field(rng, st, kind, levels, levels - 1)
        return undo, f"{name} of {v}"
    if kind in ("slot_table", "slot_backref"):
        return _slot_field(rng, net, core, kind)
    return _backup(rng, net, core)


def corpus():
    """Yield (name, sorted scan messages) for every corrupted state."""
    for seed in range(RUNS):
        net, scheme = _run(seed)
        core = scheme.core
        assert core.scan_invariants() == []
        rng = random.Random(seed * 7919 + 1)
        if core.bookkeeping.kind == "designer":
            own = ("watermark", "backup")
        else:
            own = ("scoped_count", "slot_table", "slot_backref", "backup")
        kinds = ([rng.choice(SCHEME_FIELDS) for _ in range(5)]
                 + [rng.choice(own) for _ in range(3)])
        for i, kind in enumerate(kinds):
            undo, what = _corrupt(rng, net, core, kind)
            msgs = sorted(core.scan_invariants())
            undo()
            yield f"run {seed} #{i}: {what}", msgs
        assert core.scan_invariants() == []


if __name__ == "__main__":
    for name, msgs in corpus():
        print(json.dumps([name, msgs]))
