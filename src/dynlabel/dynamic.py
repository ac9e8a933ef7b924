"""Scheme drivers for the two dynamic tree models.

* ``FiniteScheme``     -- one fixed-parameter nested-reset scheme run on a
  growing tree; finishes after the top level's reset quota fills.
* ``PhasedScheme``     -- chains finite schemes: whenever one finishes,
  the node count taken in its final whole-tree reset picks the next
  quota and height (quota from a user-supplied growth rule, height from
  how many quota-powers fit below twice the count).
* ``IncreasingScheme`` -- the phased driver on a leaf-increasing tree.
* ``DynamicScheme``    -- the phased driver with deletions: resets count
  nodes that were ever in a subtree (ever-count shares), backup copies
  absorb deletions, and a change tracker restarts the whole scheme on
  the current tree once additions or deletions since the last restart
  exceed a ninth of its baseline size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scheme_core import SchemeCore
from .simnet import InvalidEvent, ScenarioEvent


@dataclass(frozen=True)
class PhaseParams:
    tree_count: int
    quota: int
    levels: int


class QuotaFunction:
    """Growth rule n -> quota, clamped to at least 2.

    Kinds: ``pow:e`` is n**e, ``logpow:e`` is (log2 n)**e, ``const:k``
    is the constant k.  Parameters must be finite, and exponents lie in
    ``EXPONENTS[kind]`` so that the value never overflows a float: pow
    keeps the paper's k(n) <= n.
    """

    EXPONENTS = {"pow": (0, 1), "logpow": (0, 16)}

    def __init__(self, kind: str, param: float):
        if kind not in ("pow", "logpow", "const"):
            raise ValueError(f"unknown quota function kind {kind!r}")
        if not math.isfinite(param):
            raise ValueError(f"quota function parameter must be finite: "
                             f"{param}")
        lo, hi = self.EXPONENTS.get(kind, (-math.inf, math.inf))
        if not lo <= param <= hi:
            raise ValueError(f"{kind} exponent must lie in [{lo}, {hi}]: "
                             f"{param}")
        self.kind = kind
        self.param = param

    @classmethod
    def parse(cls, text: str) -> "QuotaFunction":
        kind, _, param = text.partition(":")
        if not param:
            raise ValueError(f"quota function needs a parameter: {text!r}")
        return cls(kind, float(param))

    def value(self, n: int) -> int:
        if n < 1:
            raise ValueError("tree count must be positive")
        if self.kind == "pow":
            raw = int(n ** self.param)
        elif self.kind == "logpow":
            raw = int(max(n, 2).bit_length() ** self.param)
        else:
            raw = int(self.param)
        return max(2, raw)


def compute_phase_params(n: int, qf: QuotaFunction) -> PhaseParams:
    """Quota and height for a phase starting at n counted nodes.

    The height is two more than the largest exponent e with
    quota**e <= 2n, found by integer multiplication so the boundary
    cases are exact.
    """
    if n < 1:
        raise ValueError("tree count must be positive")
    quota = qf.value(n)
    e = 0
    power = 1
    while power * quota <= 2 * n:
        power *= quota
        e += 1
    return PhaseParams(n, quota, e + 2)


class ExactChangeTracker:
    """Counts every addition and deletion at the root, exactly."""

    def __init__(self):
        self.baseline = 0
        self.adds = 0
        self.dels = 0

    def restart_baseline(self, n0: int) -> None:
        self.baseline = n0
        self.adds = 0
        self.dels = 0

    def on_change(self, kind: str) -> bool:
        if kind == "A":
            self.adds += 1
        else:
            self.dels += 1
        return self.crossed()

    def crossed(self) -> bool:
        return 9 * self.adds > self.baseline or 9 * self.dels > self.baseline

    def changes(self) -> int:
        return self.adds + self.dels


TRACKERS = {"exact": ExactChangeTracker}


def make_tracker(name: str):
    try:
        return TRACKERS[name]()
    except KeyError:
        raise ValueError(f"unknown change tracker {name!r}") from None


class _CoreDriver:
    """What every driver answers straight from its running ``SchemeCore``."""

    def label(self, w):
        return self.core.label(w)

    def query(self, u, v):
        return self.core.query(u, v)

    def scan_invariants(self):
        return self.core.scan_invariants()


class FiniteScheme(_CoreDriver):
    """Standalone fixed-parameter scheme on a growing tree."""

    def __init__(self, net, function: str, *, quota: int, levels: int,
                 verify_scopes: bool = False):
        self.net = net
        self.core = SchemeCore(net, function, quota=quota, levels=levels,
                               verify_scopes=verify_scopes)
        self.core.install_fresh()

    @property
    def joins_at_finish(self):
        """The join count once finished (no join follows), else None."""
        return self.core.joins if self.core.finished else None

    @property
    def finished(self) -> bool:
        return self.core.finished

    @property
    def joins(self) -> int:
        return self.core.joins

    def add_leaf(self, parent: int) -> int:
        return self.core.apply_add(parent)


class PhasedScheme(_CoreDriver):
    """Finite phases chained by counted whole-tree resets.

    Each phase is a ``SchemeCore`` run; when its top level's quota
    fills, the count of that final reset picks the next phase's quota
    and height.  With ``deletions`` (the leaf-dynamic model) every change
    is also reported to the root along a ``watch`` path, and the change
    tracker restarts the scheme on the current tree once it crosses.
    """

    deletions = False

    def __init__(self, net, function: str, quota_fn: QuotaFunction, *,
                 tracker: str = "exact", verify_scopes: bool = False):
        self.net = net
        self.quota_fn = quota_fn
        self.event_index = 0        # events applied, rejected ones not counted
        self.phase_log = []
        self.restart_log = []
        # per restart: its protocol messages, the protocol total when it
        # began, and the (quota, levels) in force then
        self.restart_messages = []
        self.tracker = None
        if self.deletions:
            self.tracker = make_tracker(tracker)
            self.tracker.restart_baseline(1)
        # installed last: nothing after it may reject the driver, which
        # would leave a core listening to the network
        self.core = SchemeCore(net, function, quota=quota_fn.value(1),
                               levels=1, deletions=self.deletions,
                               verify_scopes=verify_scopes)
        self.core.on_finished = self._phase_shift
        self.core.install_fresh()

    def _measure_tree(self) -> int:
        """The alive node count, taken by a ``watch`` convergecast: nodes
        can leave, so the root has no standing count."""
        return self.net.broadcast_convergecast(
            self.net.root, self.net.children.__getitem__, lambda v: 1,
            category="watch")[0]

    def _phase_shift(self, count):
        params = compute_phase_params(count, self.quota_fn)
        self.core.transition(params.quota, params.levels)
        # runs inside the core's apply of the event that filled the top
        # quota; the driver counts that event once the core returns
        self.phase_log.append((self.event_index + 1, params))

    @property
    def quota(self):
        return self.core.quota

    @property
    def levels(self):
        return self.core.levels

    def add_leaf(self, parent: int) -> int:
        child = self.core.apply_add(parent)
        self.event_index += 1
        if self.deletions:
            self.net.charge_path(child, self.net.root, "watch")
            if self.tracker.on_change("A"):
                self._restart()
        return child

    def remove_leaf(self, leaf: int) -> None:
        if not self.deletions:
            raise InvalidEvent("the leaf-increasing model has no deletions")
        parent = self.net.parent.get(leaf)   # unknown ids fail in the network
        self.core.apply_remove(leaf)
        self.event_index += 1
        self.net.charge_path(parent, self.net.root, "watch")
        if self.tracker.on_change("R"):
            self._restart()

    def apply(self, event: ScenarioEvent) -> None:
        if event.kind == "A":
            self.add_leaf(event.target)
        else:
            self.remove_leaf(event.target)

    def _restart(self) -> None:
        n0 = self._measure_tree()
        params = compute_phase_params(n0, self.quota_fn)
        ledger = self.net.ledger
        before = ledger.protocol_messages()
        quota, levels = self.quota, self.levels
        self.core.install_on_tree(params.quota, params.levels)
        self.restart_messages.append(
            (ledger.protocol_messages() - before, before, quota, levels))
        self.tracker.restart_baseline(n0)
        self.restart_log.append((self.event_index, n0))


# Two sibling classes, not one class under two names: each model is its
# own type to callers that wrap ``apply`` or ``_restart`` per class.


class IncreasingScheme(PhasedScheme):
    """Leaf-increasing driver: finite phases chained by counted resets."""

    deletions = False


class DynamicScheme(PhasedScheme):
    """Leaf-dynamic driver: ever-counted resets, backups, tracked restarts."""

    deletions = True
