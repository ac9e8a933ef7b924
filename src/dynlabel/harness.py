"""Run orchestration: scenario generation and replay, per-event oracle
verification, invariant scanning, bound checks, metrics emission.

A run is fully described by a ``RunConfig``; identical configs produce
byte-identical metrics CSVs.  The report's exit contract: a run passes
iff there are zero decoder mismatches, zero invariant violations and
zero bound violations.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import random
from dataclasses import dataclass, field

from . import budgets, scheme_core
from .bits import BitsError
from .dynamic import TRACKERS, DynamicScheme, IncreasingScheme, QuotaFunction
from .functions import get_function, outward
from .memory import MemoryError_
from .scheme_core import SchemeError
from .simnet import (DEFAULT_PORT_CAP, Network, PortAssignment, ScenarioEvent,
                     SimulationError, parse_scenario)
from .static_schemes import DecodeError

EXHAUSTIVE_HARD_CAP = 128
AUTO_EXHAUSTIVE_LIMIT = 64

# RunConfig's option vocabularies (functions: ``functions.FUNCTIONS``).
MODELS = ("increasing", "dynamic")
PORT_MODELS = ("designer", "adversary")
INVARIANT_MODES = ("every-event", "final", "off")


class ExhaustiveCapError(ValueError):
    """Exhaustive verification asked of a tree above the hard cap."""


# Scheme failures a run records as an error before it stops;
# SimulationError covers InvalidEvent and DeadNeighborError.
RUN_ERRORS = (SimulationError, SchemeError, DecodeError, MemoryError_,
              BitsError, ExhaustiveCapError)

# Report fields copied verbatim from the run's ledger.
LEDGER_FIELDS = ("messages_total", "messages_to_dead", "max_label_bits",
                 "max_memory_bits", "reset_count", "marker_max_messages")


@dataclass
class RunConfig:
    seed: int = 0
    events: int = 100
    p_delete: float = 0.0
    model: str = "increasing"          # one of MODELS
    port_model: str = "designer"       # one of PORT_MODELS
    function: str = "distance"
    quota_fn: str = "pow:0.5"
    tracker: str = "exact"
    verify: str = "sampled:64"         # exhaustive | sampled:<m> | off
    invariants: str = "final"          # one of INVARIANT_MODES
    bounds: bool = True
    port_cap: int = DEFAULT_PORT_CAP
    scenario_path: str | None = None
    out_path: str | None = None
    mem_out_path: str | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.port_model not in PORT_MODELS:
            raise ValueError(f"unknown port model {self.port_model!r}")
        get_function(self.function)
        if self.model == "increasing" and self.p_delete != 0:
            raise ValueError("the leaf-increasing model forbids deletions")
        _check_scenario_params(self.events, self.p_delete)
        if self.invariants not in INVARIANT_MODES:
            raise ValueError(f"unknown invariant mode {self.invariants!r}")
        if self.port_cap < 0:
            raise ValueError("the port cap must be nonnegative")
        if self.tracker not in TRACKERS:
            raise ValueError(f"unknown change tracker {self.tracker!r}")
        QuotaFunction.parse(self.quota_fn)
        self._parse_verify()

    def _parse_verify(self):
        if self.verify in ("exhaustive", "off"):
            return self.verify, 0
        kind, _, m = self.verify.partition(":")
        if kind != "sampled" or not m.isdigit():
            raise ValueError(f"unknown verify mode {self.verify!r}")
        return "sampled", int(m)


@dataclass
class Mismatch:
    seed: int
    event_index: int
    u: int
    v: int
    got: str
    want: str


@dataclass
class VerificationReport:
    config: dict
    queries_checked: int = 0
    mismatches: list = field(default_factory=list)
    invariant_violations: list = field(default_factory=list)
    bound_violations: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    events_applied: int = 0
    final_n: int = 0
    messages_total: int = 0
    messages_by_category: dict = field(default_factory=dict)
    messages_to_dead: int = 0
    protocol_messages: int = 0
    max_label_bits: int = 0
    max_memory_bits: int = 0
    reset_count: int = 0
    marker_max_messages: int = 0
    restarts: list = field(default_factory=list)
    phases: list = field(default_factory=list)

    def passed(self) -> bool:
        return not (self.mismatches or self.invariant_violations
                    or self.bound_violations or self.errors)

    def to_dict(self) -> dict:
        """The report as plain data, copied one level deep."""
        out = {k: v.copy() if isinstance(v, (list, dict)) else v
               for k, v in vars(self).items()}
        out["mismatches"] = [vars(m).copy() for m in self.mismatches]
        out["passed"] = self.passed()
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, default=str)


def _check_scenario_params(n_events: int, p_delete: float) -> None:
    """Reject an event count or deletion probability that no random
    scenario can be drawn from."""
    if n_events < 0:
        raise ValueError("the event count must be nonnegative")
    if not 0 <= p_delete < 1:
        raise ValueError("deletion probability must lie in [0, 1)")


def generate_scenario(seed: int, n_events: int, p_delete: float):
    """Uniformly random valid events: adds pick a uniform alive parent,
    removals a uniform alive non-root leaf (an add is emitted instead
    when no leaf is removable)."""
    _check_scenario_params(n_events, p_delete)
    rng = random.Random(seed)
    alive = [0]
    parent = {}
    child_count = {0: 0}
    removable = []
    removable_pos = {}

    def _remove_from_removable(v):
        i = removable_pos.pop(v)
        last = removable.pop()
        if last != v:
            removable[i] = last
            removable_pos[last] = i

    def _add_to_removable(v):
        removable_pos[v] = len(removable)
        removable.append(v)

    events = []
    next_id = 1
    for _ in range(n_events):
        if p_delete > 0 and removable and rng.random() < p_delete:
            leaf = removable[rng.randrange(len(removable))]
            events.append(ScenarioEvent("R", leaf))
            _remove_from_removable(leaf)
            alive.remove(leaf)
            p = parent[leaf]
            child_count[p] -= 1
            if child_count[p] == 0 and p != 0:
                _add_to_removable(p)
        else:
            p = alive[rng.randrange(len(alive))]
            node = next_id
            next_id += 1
            events.append(ScenarioEvent("A", p))
            alive.append(node)
            parent[node] = p
            child_count[node] = 0
            if child_count[p] == 0 and p != 0:
                _remove_from_removable(p)
            child_count[p] += 1
            _add_to_removable(node)
    return events


def build_network(config: RunConfig) -> Network:
    if config.port_model == "adversary":
        assignment = PortAssignment.ADVERSARY
    elif config.function == "routing":
        assignment = PortAssignment.STABLE
    else:
        assignment = PortAssignment.COMPACT
    rng = random.Random(config.seed * 31 + 7)
    return Network(assignment=assignment, rng=rng, port_cap=config.port_cap)


def build_runner(config: RunConfig, net: Network):
    driver = IncreasingScheme if config.model == "increasing" else DynamicScheme
    return driver(net, config.function, QuotaFunction.parse(config.quota_fn),
                  tracker=config.tracker,
                  verify_scopes=config.invariants != "off")


class DecodeMemo:
    """One run's last exhaustive check: the label and the tree facts
    (``fn.facts``) each node had then, and the pairs that mismatched,
    as ``(u, v, got, want)`` in (u, v) order."""

    __slots__ = ("labels", "facts", "mismatches")

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.labels = {}
        self.facts = {}
        self.mismatches = []


def verify_step(runner, fn, mode, sample_size, rng, event_index, seed,
                report: VerificationReport, memo: DecodeMemo) -> None:
    """Check decoded values against the oracle for one event's tree.

    The exhaustive branch counts every pair as checked, but decodes and
    compares with a fresh oracle value only the pairs with a changed
    node: one whose label is not the same object (``is``) as at the last
    check, or that is new.  Every other pair carries its outcome from
    ``memo``: its mismatch, if it had one, is reported again under this
    event.  The carried outcome is the fresh one.  The decoder reads
    nothing but the two labels, and the scheme stores a new label object
    whenever a rebuilt label differs from the stored one (a rebuilt label
    equal to it keeps the stored object; a label replaced from outside is
    a new object), so the decoded value is the same.  The oracle value
    reads only the ``fn.facts`` of the nodes on the pair's path, which
    all survive; leaf additions and removals rewrite no fact of a
    surviving node, and if one was rewritten anyway the memo is cleared
    and every pair is checked fresh.  Each changed node w takes one
    ``outward`` walk, whose (a, via) gives both F(w, v) and F(v, w).

    A step that samples (``_check_sample``) clears the memo, so a tree
    grown past the exhaustive limit carries nothing stale.
    """
    net = runner.net
    n = net.alive_count
    exhaustive = (mode == "exhaustive"
                  or (mode == "sampled" and n <= AUTO_EXHAUSTIVE_LIMIT))
    if mode == "exhaustive" and n > EXHAUSTIVE_HARD_CAP:
        raise ExhaustiveCapError(f"exhaustive verification is capped at "
                                 f"{EXHAUSTIVE_HARD_CAP} nodes")
    if exhaustive:
        decode = scheme_core.decode_labels
        nodes = sorted(net.alive_list)
        label = runner.core.label
        labels = {v: label(v) for v in nodes}
        columns = [map(getattr(net, name).get, nodes) for name in fn.facts]
        facts = dict(zip(nodes, zip(*columns)))
        last_facts = memo.facts
        if any(last_facts.get(v, f) != f for v, f in facts.items()):
            memo.clear()
        last = memo.labels
        kept = {v for v in nodes if last.get(v) is labels[v]}
        found = [m for m in memo.mismatches if m[0] in kept and m[1] in kept]
        pi = runner.core.pi
        value = fn.value
        ordered = not fn.symmetric
        failed = None       # (pair, error) of the first failing decode
        for w in nodes:
            if w in kept:
                continue
            for v, a, via in outward(net, w):
                if v < w and v not in kept:
                    continue        # checked from v's walk
                if ordered and v != w:
                    pairs = (w, v), (v, w)
                else:
                    pairs = ((w, v) if w <= v else (v, w),)
                for x, y in pairs:
                    try:
                        got = decode(fn, pi, labels[x], labels[y])
                    except RUN_ERRORS as exc:
                        if failed is None or (x, y) < failed[0]:
                            failed = (x, y), exc
                        continue
                    want = value(net, x, y, a, via)
                    if got != want:
                        found.append((x, y, repr(got), repr(want)))
        found.sort()
        if failed is not None:
            # end as a check in pair order would: a carried pair decoded
            # before, so the first failing pair is a fresh one
            pair, exc = failed
            report.mismatches.extend(Mismatch(seed, event_index, *m)
                                     for m in found if m[:2] < pair)
            raise exc
        memo.labels, memo.facts, memo.mismatches = labels, facts, found
        report.mismatches.extend(Mismatch(seed, event_index, *m)
                                 for m in found)
        report.queries_checked += n * n if ordered else n * (n + 1) // 2
    else:
        memo.clear()
        _check_sample(runner, fn, sample_size, rng, event_index, seed, report)


def _check_sample(runner, fn, sample_size, rng, event_index, seed,
                  report: VerificationReport) -> None:
    """Check ``sample_size`` random pairs of alive nodes, each decoded
    by one ``SchemeCore.query`` and compared with one ``fn.oracle``
    value.  Each node is ``pool[rng.randrange(n)]``, drawn as
    ``randrange`` draws it (``getrandbits`` of n's bit length, drawn
    again while not below n), so a seed gives the same pairs in the same
    order."""
    net = runner.net
    pool = net.alive_list
    n = len(pool)
    query, oracle = runner.core.query, fn.oracle
    draw, k = rng.getrandbits, n.bit_length()
    for _ in range(sample_size):
        r = draw(k)
        while r >= n:
            r = draw(k)
        u = pool[r]
        r = draw(k)
        while r >= n:
            r = draw(k)
        v = pool[r]
        got = query(u, v)
        want = oracle(net, u, v)
        if got != want:
            report.mismatches.append(Mismatch(
                seed, event_index, u, v, repr(got), repr(want)))
    report.queries_checked += sample_size


class _BoundTracker:
    """Per-epoch, per-restart and per-event message checks and size
    budget checks against declared curves."""

    def __init__(self, config, net, runner):
        self.config = config
        self.net = net
        self.runner = runner
        self.pi = runner.core.pi
        # label curves take the width of a port number, as wide as the
        # run's cap under adversary ports
        self.port_bits = (budgets.port_cap_bits(config.port_cap)
                          if net.assignment is PortAssignment.ADVERSARY
                          else budgets.STABLE_PORT_BITS)
        self.epoch_base_messages = 0
        self.epoch_base_joins = 0
        self.epoch_n0 = net.alive_count
        self.restarts_seen = 0
        self.max_levels = runner.levels
        self.signals = net.ledger.category("signal")
        self.joins = runner.core.joins

    def _epoch_ever(self) -> int:
        return self.epoch_n0 + (self.runner.core.joins - self.epoch_base_joins)

    def _check_epoch(self, event_index, report, spent, quota, levels,
                     ever) -> None:
        allowed = budgets.finite_run_message_budget(
            quota, levels, self.pi.mc_budget(ever))
        if spent > allowed:
            report.bound_violations.append(
                f"event {event_index}: protocol messages {spent} exceed "
                f"budget {allowed} (quota {quota}, levels {levels}, "
                f"count {ever})")

    def after_event(self, event_index, report) -> None:
        """Check the epoch's messages and the labels after an event.  At
        a restart's event, the closing epoch is checked up to the
        restart's start in the phase then in force, the restart's own
        messages against the restart curve and floor, and the labels
        against the new epoch's curve.  Every event's ``signal``
        messages are checked against its joins' floor."""
        ledger = self.net.ledger
        restarts = self.runner.restart_log
        signals, joins = ledger.category("signal"), self.runner.core.joins
        floor = budgets.join_signal_floor(joins - self.joins)
        if signals - self.signals < floor:
            report.bound_violations.append(
                f"event {event_index}: signal messages "
                f"{signals - self.signals} fall below floor {floor} "
                f"(joins {joins - self.joins})")
        self.signals, self.joins = signals, joins
        self.max_levels = max(self.max_levels, self.runner.levels)
        if len(restarts) > self.restarts_seen:
            self.restarts_seen = len(restarts)
            n0 = restarts[-1][1]
            spent, began, quota, levels = self.runner.restart_messages[-1]
            self._check_epoch(event_index, report,
                              began - self.epoch_base_messages, quota,
                              levels, self._epoch_ever())
            allowed = budgets.restart_message_budget(
                n0, self.pi.mc_budget(n0))
            if spent > allowed:
                report.bound_violations.append(
                    f"event {event_index}: restart messages {spent} exceed "
                    f"budget {allowed} (count {n0})")
            floor = budgets.restart_message_floor(n0)
            if spent < floor:
                report.bound_violations.append(
                    f"event {event_index}: restart messages {spent} fall "
                    f"below floor {floor} (count {n0})")
            self.epoch_base_messages = ledger.protocol_messages()
            self.epoch_base_joins = self.runner.core.joins
            self.epoch_n0 = n0
            ever = self._epoch_ever()
        else:
            ever = self._epoch_ever()
            self._check_epoch(event_index, report,
                              ledger.protocol_messages()
                              - self.epoch_base_messages,
                              self.runner.quota, self.runner.levels, ever)
        label_budget = budgets.dynamic_label_budget(
            self.pi.ls_budget(ever, self.port_bits), self.runner.levels)
        if ledger.max_label_bits > label_budget:
            report.bound_violations.append(
                f"event {event_index}: label bits {ledger.max_label_bits} "
                f"exceed budget {label_budget}")

    def final(self, report) -> None:
        """Check the run's largest memory against its curve, and the
        noted label maximum against every stored label: a label is
        stored only when flushed, and a flush notes its size."""
        ledger = self.net.ledger
        core = self.runner.core
        stored = max((scheme_core.dynamic_label_bits(core.fn, lab)
                      for lab in core.labels.values()), default=0)
        if ledger.max_label_bits < stored:
            report.bound_violations.append(
                f"label bits {ledger.max_label_bits} fall below a stored "
                f"label's {stored}")
        ever = self._epoch_ever()
        if self.runner.core.bookkeeping.kind == "designer":
            mem_budget = budgets.designer_memory_budget(ever, self.max_levels)
        else:
            mem_budget = budgets.adversary_memory_budget(
                ever, self.max_levels, self.config.port_cap)
        if ledger.max_memory_bits > mem_budget:
            report.bound_violations.append(
                f"memory bits {ledger.max_memory_bits} exceed budget "
                f"{mem_budget}")


def run(config: RunConfig) -> VerificationReport:
    """Replay a scenario through the configured scheme and verify it."""
    if config.scenario_path:
        with open(config.scenario_path) as fh:
            events = parse_scenario(fh.read())
    else:
        events = generate_scenario(config.seed, config.events, config.p_delete)
    net = build_network(config)
    runner = build_runner(config, net)
    fn = runner.core.fn
    mode, sample_size = config._parse_verify()
    rng_verify = random.Random(config.seed * 1_000_003 + 77)
    report = VerificationReport(config=dataclasses.asdict(config))
    bound_tracker = _BoundTracker(config, net, runner) if config.bounds else None
    memo = DecodeMemo()
    for i, ev in enumerate(events, 1):
        try:
            runner.apply(ev)
            report.events_applied = i
            net.ledger.snapshot_event(i, net.alive_count)
            if mode != "off":
                verify_step(runner, fn, mode, sample_size, rng_verify, i,
                            config.seed, report, memo)
            if config.invariants == "every-event":
                for msg in runner.scan_invariants():
                    report.invariant_violations.append(f"event {i}: {msg}")
        except RUN_ERRORS as exc:
            report.errors.append(f"event {i}: {type(exc).__name__}: {exc}")
            break
        if bound_tracker is not None:
            bound_tracker.after_event(i, report)
    if config.invariants == "final":
        report.invariant_violations.extend(runner.scan_invariants())
    if bound_tracker is not None:
        bound_tracker.final(report)
    ledger = net.ledger
    for name in LEDGER_FIELDS:
        setattr(report, name, getattr(ledger, name))
    report.final_n = net.alive_count
    report.messages_by_category = dict(ledger.by_category)
    report.protocol_messages = ledger.protocol_messages()
    report.restarts = list(runner.restart_log)
    report.phases = [(i, p.tree_count, p.quota, p.levels)
                     for i, p in runner.phase_log]
    if config.out_path:
        ledger.write_csv(config.out_path)
    if config.mem_out_path:
        write_memory_report(config.mem_out_path, runner)
    return report


def write_memory_report(path, runner) -> None:
    core = runner.core
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["node", "model", "bits", "level_count"])
        for v in sorted(core.net.alive_nodes()):
            out.writerow([v, core.bookkeeping.kind, core.memory_bits(v),
                          core.levels])
