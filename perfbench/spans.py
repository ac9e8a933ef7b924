"""Span tracer that wraps dynlabel callables at their layer boundaries.

Nothing under ``src/`` knows about it: ``instrument`` replaces public
callables (and the three private seams the per-layer metrics name:
``SchemeCore._flush_event``, ``SchemeCore._reset`` and
``DynamicScheme._restart``) with timing wrappers, and ``restore`` puts
the originals back.  A renamed seam raises ``AttributeError`` here
instead of silently reading zero.

Every wrapped call pushes a frame.  Calls that happen a few times per
event become spans kept in memory (id, event id, name, parent, start,
end); calls that happen many times per event (``children_by_port``,
``oracle``, ``decoder``, ``label`` ...) are only aggregated, as count
and total time under their parent span's name.  A frame's self time is
its duration minus the time of its wrapped children, so the self times
of all frames under a root add up to the root's wall time.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from time import perf_counter_ns

_MISSING = object()


class Tracer:
    def __init__(self):
        # frame: [name, start_ns, child_ns, id of the nearest kept span]
        self.stack = []
        self.spans = []          # [id, event, name, parent, start, end]
        self.event_id = 0
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.size = defaultdict(int)
        self.agg = defaultdict(lambda: [0, 0])   # (parent, name) -> [n, ns]

    def wrap(self, name, fn, *, aggregate=False, size=None, event=False):
        """Return ``fn`` timed as ``name``.

        ``size(args, result)`` adds a work count (members labeled, say);
        ``event`` marks the call that starts a scenario event, so the
        spans that follow, checks included, share its event id."""
        stack = self.stack

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                # a re-entrant call (a hook delegating to a sibling hook)
                # stays inside the outer frame
                return fn(*args, **kwargs)
            if event:
                self.event_id += 1
            owner = stack[-1][3] if stack else None
            event_id = self.event_id
            span_id = None
            if not aggregate:
                span_id = len(self.spans)
                self.spans.append(None)
            frame = [name, 0, 0, owner if span_id is None else span_id]
            stack.append(frame)
            frame[1] = start = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][2] += dur
                self.calls[name] += 1
                self.total_ns[name] += dur
                self.self_ns[name] += dur - frame[2]
                if size is not None:
                    self.size[name] += size(args, result)
                if aggregate:
                    a = self.agg[(stack[-1][0] if stack else None, name)]
                    a[0] += 1
                    a[1] += dur
                else:
                    self.spans[span_id] = [span_id, event_id, name, owner,
                                           start, end]

        traced.__wrapped__ = fn
        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own."""
        return self.wrap(name, fn)(*args, **kwargs)

    def write(self, path) -> None:
        """Write spans, then per-parent aggregates, as one CSV."""
        with open(path, "w") as fh:
            fh.write("kind,id,event,name,parent,start_ns,end_ns,count,"
                     "total_ns\n")
            for sid, ev, name, parent, start, end in self.spans:
                p = "" if parent is None else parent
                fh.write(f"span,{sid},{ev},{name},{p},{start},{end},,\n")
            for (parent, name), (n, ns) in sorted(
                    self.agg.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
                fh.write(f"agg,,,{name},{parent or ''},,,{n},{ns}\n")


def _members(args, result):
    return len(args[2])


def _reset_members(args, result):
    return len(result)


def _seams():
    """(owner, attribute, span name, wrap options) for every seam; the
    owner is a class or module of the dynlabel import now loaded."""
    from dynlabel import dynamic, harness, memory, scheme_core, simnet
    core, net = scheme_core.SchemeCore, simnet.Network
    seams = [
        (harness, "verify_step", "harness.verify_step", {}),
        (net, "add_leaf", "simnet.add_leaf", {}),
        (net, "remove_leaf", "simnet.remove_leaf", {}),
        (net, "children_by_port", "simnet.children_by_port",
         {"aggregate": True}),
        (net, "broadcast_convergecast", "simnet.broadcast_convergecast", {}),
        (core, "_flush_event", "scheme_core.flush_event", {}),
        (core, "_reset", "scheme_core.reset", {"size": _reset_members}),
        (core, "install_on_tree", "scheme_core.install_on_tree", {}),
        (core, "transition", "scheme_core.transition", {}),
        (core, "label", "scheme_core.label", {"aggregate": True}),
        (core, "query", "scheme_core.query", {"aggregate": True}),
        (core, "memory_bits", "scheme_core.memory_bits", {"aggregate": True}),
        (core, "scan_invariants", "scheme_core.scan_invariants", {}),
        (scheme_core, "decode_labels", "scheme_core.decode_labels",
         {"aggregate": True}),
        (memory.BackupStore, "refresh", "memory.backups.refresh",
         {"aggregate": True}),
        (memory.BackupStore, "on_leaf_added", "memory.backups.update", {}),
        (memory.BackupStore, "on_child_removed", "memory.backups.update", {}),
        (memory.BackupStore, "read_copy", "memory.backups.update", {}),
        (memory.BackupStore, "check", "memory.backups.check", {}),
        (dynamic.DynamicScheme, "_restart", "dynamic.restart", {}),
    ]
    for cls in (memory.DesignerBookkeeping, memory.AdversaryBookkeeping):
        for hook in ("on_leaf_added", "on_reset", "on_whole_tree_reset",
                     "on_child_removed"):
            seams.append((cls, hook, "memory.bookkeeping.update", {}))
        seams.append((cls, "children_in_scope",
                      "memory.bookkeeping.children_in_scope",
                      {"aggregate": True}))
        seams.append((cls, "check", "memory.bookkeeping.check",
                      {"aggregate": True}))
    for cls in (dynamic.IncreasingScheme, dynamic.DynamicScheme):
        seams.append((cls, "apply", "dynamic.apply", {"event": True}))
    return seams


def patch(undo, owner, attr, value) -> None:
    """Set ``owner.attr``, remembering in ``undo`` how to put it back."""
    undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
    setattr(owner, attr, value)


def instrument(tracer: Tracer) -> list:
    """Wrap every layer seam; returns the undo list for ``restore``."""
    from dynlabel import functions, simnet, static_schemes
    undo = []
    for owner, attr, name, opts in _seams():
        patch(undo, owner, attr, tracer.wrap(name, getattr(owner, attr), **opts))
    # the scheme's network listeners are bound methods registered at
    # construction; wrapping the registration times them as their own
    # layer, so add_leaf's self time is port assignment alone
    for attr, name in (("on_add", "scheme_core.join"),
                       ("on_remove", "scheme_core.leave")):
        register = getattr(simnet.Network, attr)
        patch(undo, simnet.Network, attr,
              lambda net, cb, _r=register, _n=name: _r(net, tracer.wrap(_n, cb)))
    for fn in functions.FUNCTIONS.values():
        patch(undo, fn, "oracle",
              tracer.wrap("functions.oracle", fn.oracle, aggregate=True))
    schemes = static_schemes.SCHEMES
    for key, pi in list(schemes.items()):
        undo.append((schemes, key, pi))
        schemes[key] = dataclasses.replace(
            pi,
            marker=tracer.wrap("static_schemes.marker", pi.marker,
                               size=_members),
            decoder=tracer.wrap("static_schemes.decoder", pi.decoder,
                                aggregate=True))
    return undo


def restore(undo) -> None:
    for owner, attr, old in reversed(undo):
        if isinstance(owner, dict):
            owner[attr] = old
        elif old is _MISSING:
            delattr(owner, attr)
        else:
            setattr(owner, attr, old)
