"""A gallery of mutants that ``harness.run`` must kill.

Each mutant monkeypatches one seam of the program.  Its config must
pass unmutated, and must fail once the mutant is in, through the check
the mutant is aimed at.

Two known mutants have no test here, since no check can kill them yet:

* memory sizes never noted (``MetricsLedger.note_memory_bits`` does
  nothing): a final check against every node's ``memory_bits``, like
  the label one, would also report a correct run that ends at the wrong
  event.  ``BackupStore._place`` changes a holder's memory without
  marking it dirty, so the noted maximum falls below a node's memory at
  7 events of a 1,500-event adversary run (seed 1);
* 1,000 extra ``backup`` messages per placement: ``backup`` messages
  are in no bill, so no budget sees them.
"""

import pytest

from dynlabel import RunConfig, generate_scenario, run
from dynlabel.dynamic import DynamicScheme
from dynlabel.memory import (AdversaryBookkeeping, BackupStore,
                             DesignerBookkeeping, MemoryError_)
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


def test_a_scope_fault_mid_walk_charges_the_crossings_made(monkeypatch):
    """Event 35 raises node 24's level-1 count above its filled slots,
    below the root 21 of the scope that event's reset walks.  The run
    records the memory fault, and the reset charges the crossings its
    walk made before it reached node 24: those of a walk of the true
    scope, stopped there."""
    calls, charged = [], []

    def on_leaf_added(book, parent, child,
                      _hook=AdversaryBookkeeping.on_leaf_added):
        _hook(book, parent, child)
        calls.append(child)
        if len(calls) == 35:
            book.engine.states[parent].scoped_count[1] += 1

    def reset(core, level, root, _reset=SchemeCore._reset):
        before = core.net.ledger.category("reset_count")
        try:
            return _reset(core, level, root)
        except MemoryError_:
            reached, stack = 1, [root]
            while (v := stack.pop()) != 24:
                kids = core.ground_children_in_scope(v, level)
                reached += len(kids)
                stack.extend(reversed(kids))
            charged.append((root, core.net.ledger.category("reset_count")
                            - before, 2 * (reached - 1)))
            raise

    monkeypatch.setattr(SchemeCore, "_reset", reset)
    config = RunConfig(seed=3, events=60, port_model="adversary",
                       invariants="every-event", verify="off")
    r = _killed(monkeypatch, config, AdversaryBookkeeping, "on_leaf_added",
                on_leaf_added)
    assert r.errors == ["event 35: MemoryError_: scoped count 4 at node 24 "
                        "level 1 does not fit its 3 filled slots"]
    [(root, got, want)] = charged
    assert root == 21 and got == want > 0


@pytest.mark.parametrize("port_model", ["designer", "adversary"])
def test_copies_never_dropped_are_reported_and_fail_their_read(monkeypatch,
                                                               port_model):
    """``BackupStore._drop`` does nothing, so every moved copy also stays
    where it was.  The every-event scan names the first one left at a
    node that is no holder of it, and the deletion that reads a copy left
    from an older phase records a memory fault, not an index error."""
    config = RunConfig(seed=3, events=300, model="dynamic", p_delete=0.3,
                       port_model=port_model, invariants="every-event",
                       verify="off")
    r = _killed(monkeypatch, config, BackupStore, "_drop",
                lambda store, holder, subject: None)
    assert "event 4: node 2 holds a copy of 1" in r.invariant_violations
    assert r.errors == ["event 6: MemoryError_: the backup copy of node 1 "
                        "does not fit 5 levels"]


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


def test_restart_event_spend_is_billed_to_the_closing_epoch(monkeypatch):
    """Each restart is preceded by 10 M ``signal`` messages in its own
    event; the closing epoch's check, up to the restart's start, reports
    every restart at its own event, and nothing else."""
    def restart(driver, _restart=DynamicScheme._restart):
        driver.net.ledger.count("signal", 10_000_000)
        _restart(driver)

    config = RunConfig(seed=4, events=200, model="dynamic", p_delete=0.3,
                       verify="off")
    r = _killed(monkeypatch, config, DynamicScheme, "_restart", restart)
    assert r.restarts
    assert [m.split(": protocol messages ")[0] for m in r.bound_violations] \
        == [f"event {i}" for i, _ in r.restarts]


def test_uncharged_signals_are_reported_at_every_join(monkeypatch):
    """The ledger drops every ``signal`` charge, so a join's relay to
    its level-1 scope root is free; the join signal floor reports every
    add event, and nothing else."""
    def count(ledger, category, n=1, _count=MetricsLedger.count):
        if category != "signal":
            _count(ledger, category, n)

    config = RunConfig(seed=4, events=200, model="dynamic", p_delete=0.3,
                       verify="off")
    r = _killed(monkeypatch, config, MetricsLedger, "count", count)
    adds = [i for i, ev in enumerate(
        generate_scenario(config.seed, config.events, config.p_delete), 1)
        if ev.kind == "A"]
    assert len(adds) < r.events_applied
    assert [m.split(": signal messages ")[0] for m in r.bound_violations] \
        == [f"event {i}" for i in adds]
    assert all(m.endswith(" fall below floor 1 (joins 1)")
               for m in r.bound_violations)


def test_unnoted_label_sizes_are_reported_at_the_end(monkeypatch):
    """The ledger notes no label size, so its maximum stays 0; the final
    check against the stored labels reports it once."""
    config = RunConfig(seed=4, events=200, model="dynamic", p_delete=0.3,
                       verify="off")
    r = _killed(monkeypatch, config, MetricsLedger, "note_label_bits",
                lambda ledger, n: None)
    assert r.max_label_bits == 0
    [m] = r.bound_violations
    assert m.startswith("label bits 0 fall below a stored label's ")
