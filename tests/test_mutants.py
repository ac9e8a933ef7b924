"""A gallery of mutants that ``harness.run`` must kill.

Each mutant monkeypatches one seam of the program.  Its config must
pass unmutated, and must fail once the mutant is in, through the check
the mutant is aimed at.
"""

import pytest

from dynlabel import RunConfig, run
from dynlabel.memory import AdversaryBookkeeping, DesignerBookkeeping
from dynlabel.scheme_core import SchemeCore
from dynlabel.simnet import MetricsLedger


def _killed(monkeypatch, config, owner, attr, mutant):
    """The report of ``config`` with ``owner.attr`` replaced by
    ``mutant``, after checking that the config passes without it."""
    assert run(config).passed()
    monkeypatch.setattr(owner, attr, mutant)
    r = run(config)
    assert not r.passed()
    return r


@pytest.mark.parametrize("port_model", ["designer", "adversary"])
def test_inflated_memory_breaks_the_memory_budget(monkeypatch, port_model):
    def memory_bits(core, v, _memory_bits=SchemeCore.memory_bits):
        return 10 * _memory_bits(core, v)

    config = RunConfig(seed=2, events=150, model="dynamic", p_delete=0.3,
                       port_model=port_model, verify="off")
    r = _killed(monkeypatch, config, SchemeCore, "memory_bits", memory_bits)
    assert [m for m in r.bound_violations if m.startswith("memory bits ")]


@pytest.mark.parametrize("owner,field", [(DesignerBookkeeping, "watermark"),
                                         (AdversaryBookkeeping,
                                          "scoped_count")])
def test_corrupt_bookkeeping_is_reported_at_its_event(monkeypatch, owner,
                                                      field):
    """One hook call, late enough for a level below the top, takes the
    new child out of its parent's level-1 count; the every-event scan
    reports it at that event."""
    calls = []

    def on_leaf_added(book, parent, child, _hook=owner.on_leaf_added):
        _hook(book, parent, child)
        calls.append(child)
        if len(calls) == 40:
            getattr(book.engine.states[parent], field)[1] -= 1

    port_model = "designer" if owner is DesignerBookkeeping else "adversary"
    config = RunConfig(seed=3, events=60, port_model=port_model,
                       invariants="every-event", verify="off")
    r = _killed(monkeypatch, config, owner, "on_leaf_added", on_leaf_added)
    assert r.invariant_violations[0].startswith(f"event 40: {owner.kind} ")


@pytest.mark.parametrize("fault", ["count", "port"])
def test_unreadable_scope_slots_are_a_run_error(monkeypatch, fault):
    """One hook call raises a parent's level-1 count above its filled
    slots, or points a filled level-1 slot at a port no child holds; the
    reset of that same event reads the scope through them and records a
    memory fault, not a traceback."""
    calls = []

    def on_leaf_added(book, parent, child,
                      _hook=AdversaryBookkeeping.on_leaf_added):
        _hook(book, parent, child)
        calls.append(child)
        if len(calls) == 40:
            states = book.engine.states
            if fault == "count":
                states[parent].scoped_count[1] += 1
            else:
                states[book.engine.net.children[parent][0]].slot_table[1] = 999

    config = RunConfig(seed=3, events=60, port_model="adversary",
                       invariants="every-event", verify="off")
    r = _killed(monkeypatch, config, AdversaryBookkeeping, "on_leaf_added",
                on_leaf_added)
    want = {"count": "scoped count 2 at node 8 level 1 does not fit its 1 "
                     "filled slots",
            "port": "a level-1 slot at node 8 names a port in [999] that "
                    "no child holds"}
    assert r.errors == [f"event 40: MemoryError_: {want[fault]}"]


def test_bloated_restart_marker_is_reported_at_its_event(monkeypatch):
    """Each restart charges 10 M extra marker messages; the restart
    budget reports every restart at its own event, and nothing else."""
    def install_on_tree(core, quota, levels,
                        _install=SchemeCore.install_on_tree):
        _install(core, quota, levels)
        core.net.ledger.count("marker", 10_000_000)

    config = RunConfig(seed=4, events=200, model="dynamic", p_delete=0.3,
                       verify="off")
    r = _killed(monkeypatch, config, SchemeCore, "install_on_tree",
                install_on_tree)
    assert r.restarts
    assert [m.split(": restart messages ")[0] for m in r.bound_violations] \
        == [f"event {i}" for i, _ in r.restarts]


def test_restart_that_charges_no_marker_is_reported_at_its_event(
        monkeypatch):
    """The ledger drops every marker charge, so a restart costs only its
    count and broadcast; the restart floor reports every restart at its
    own event, and nothing else."""
    def count(ledger, category, n=1, _count=MetricsLedger.count):
        if category != "marker":
            _count(ledger, category, n)

    config = RunConfig(seed=4, events=200, model="dynamic", p_delete=0.3,
                       verify="off")
    r = _killed(monkeypatch, config, MetricsLedger, "count", count)
    assert r.restarts
    assert [m.split(": restart messages ")[0] for m in r.bound_violations] \
        == [f"event {i}" for i, _ in r.restarts]
    assert all(" fall below floor " in m for m in r.bound_violations)
