"""dynlabel benchmark: checked-event throughput and latency per workload.

    python3 perfbench/run.py --workload verify-mix --seed 1 --seconds 30 \
        --trace 0

Run from a checkout: the program is imported from ``src/`` beside this
directory, and nothing is installed.  One process replays the
workload's round of seeded scenarios (see ``workloads.py``) through
``dynlabel.harness.run``, one run after another (closed loop: an event
starts when the previous event's checks have finished), for the number
of whole rounds that lasts closest to ``--seconds``.  Every run goes
through the correctness gate (``gate.py``).

Timed figures are medians over the pass's rounds, so one slow stretch
of the host moves no figure by itself, and each run's times are scaled
to a reference host speed measured between its events
(``hostspeed.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes the
same untraced pass, then replays one round with every layer seam
wrapped (``spans.py``) and prints the per-layer metrics; its spans are
written to ``.perfbench_out/spans-<workload>-seed<seed>.csv``.

The last stdout line is the result object; the line before it holds
run facts (host CPU count, Python version, sample counts).  The exit
code is 0 only when every run passed the gate.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter, perf_counter_ns

import hostspeed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
LEGS = ("chain", "star", "random")
CAL_EVERY_NS = 200_000_000   # host-speed samples within the timed pass
CATEGORIES = ("signal", "reset_count", "marker", "broadcast", "watch",
              "membook", "backup")

END_TO_END = {
    "events_per_s": "1/s",
    "event_p50_us": "us",
    "event_p99_us": "us",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "protocol_msgs_per_event": "msgs/event",
    "max_label_bits": "bits",
    "max_mem_bits": "bits",
}

PER_LAYER = {
    **{f"simnet.msgs.{c}": "msgs/event" for c in CATEGORIES},
    "simnet.children_by_port.calls": "count",
    "simnet.children_by_port.s": "s",
    "simnet.broadcast_convergecast.calls": "count",
    "simnet.broadcast_convergecast.self_s": "s",
    "simnet.add_leaf.self_s": "s",
    "static_schemes.marker.calls": "count",
    "static_schemes.marker.members": "count",
    "static_schemes.marker.self_s": "s",
    "static_schemes.decoder.calls": "count",
    "static_schemes.decoder.s": "s",
    "scheme_core.resets": "count",
    "scheme_core.reset.members": "count",
    "scheme_core.reset.self_s": "s",
    "scheme_core.flush_event.self_s": "s",
    "scheme_core.flush_event.s": "s",
    "scheme_core.label.calls": "count",
    "scheme_core.label.s": "s",
    "scheme_core.memory_bits.s": "s",
    "scheme_core.query.calls": "count",
    "scheme_core.decode_labels.s": "s",
    "scheme_core.label.calls_per_query": "ratio",
    "scheme_core.scan_invariants.calls": "count",
    "scheme_core.scan_invariants.self_s": "s",
    "scheme_core.msgs_over_curve": "ratio",
    "scheme_core.label_over_curve": "ratio",
    "memory.bookkeeping.update.s": "s",
    "memory.bookkeeping.children_in_scope.calls": "count",
    "memory.bookkeeping.children_in_scope.s": "s",
    "memory.bookkeeping.check.s": "s",
    "memory.backups.check.s": "s",
    "memory.backups.refresh.calls": "count",
    "memory.backups.refresh.s": "s",
    "memory.backups.copies_held": "count",
    "functions.oracle.calls": "count",
    "functions.oracle.s": "s",
    "harness.verify_step.self_s": "s",
    "harness.queries_checked": "count",
    "harness.run.self_s": "s",
    "harness.generate_scenario.s": "s",
    "dynamic.restarts": "count",
    "dynamic.phase_shifts": "count",
    "dynamic.restart.s": "s",
    **{f"engine-shapes.leg.{leg}.events_per_s": "1/s" for leg in LEGS},
    "trace.events_per_s": "1/s",
    "trace.untraced_events_per_s": "1/s",
    "trace.overhead": "ratio",
    "trace.wall_s": "s",
    "trace.accounted_share": "ratio",
    "host.kernel_ms": "ms",
    "fail_ratio": "ratio",
}


class CaseRun:
    """One harness run: its wall time (host-speed samples taken inside it
    left out), those samples, the time it took to reach its first event,
    per-event times, report and the simulated quantities that must repeat
    exactly."""

    def __init__(self, case, wall_ns, cal_ns, construct_ns, event_ns,
                 report, digests, problems):
        self.case = case
        self.wall_ns = wall_ns
        self.cal_ns = cal_ns
        self.construct_ns = construct_ns
        self.event_ns = event_ns
        self.report = report
        self.problems = problems
        # 1 for a traced run, which takes no samples
        self.scale = hostspeed.scale(cal_ns) if cal_ns else 1.0
        self.sim = (report.protocol_messages, report.max_label_bits,
                    report.max_memory_bits,
                    tuple(sorted(report.messages_by_category.items())),
                    report.reset_count, len(report.restarts),
                    len(report.phases), report.queries_checked, digests)


class Bench:
    def __init__(self, workload, seed, workdir):
        if not (SRC / "dynlabel" / "__init__.py").is_file():
            raise SystemExit(f"perfbench: no dynlabel sources under {SRC}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.startup_cal = [hostspeed.sample() for _ in range(3)]
        start = perf_counter_ns()
        from dynlabel import dynamic, harness
        self.import_ns = perf_counter_ns() - start
        if Path(harness.__file__).resolve().parent != SRC / "dynlabel":
            raise SystemExit(f"perfbench: imported dynlabel from "
                             f"{harness.__file__}, not from {SRC}")
        import gate
        import spans
        self.harness = harness
        self.dynamic = dynamic
        self.gate = gate
        self.spans = spans
        self.generate_ns = 0     # inside generate_scenario
        self.inputs_ns = 0       # all of input making, files included
        self.cases = self._make_inputs()
        self.startup_cal += [hostspeed.sample() for _ in range(3)]
        self.recorded = gate.load_recorded(workload, seed)
        self.first = {}          # case name -> first run's CaseRun
        self.runs = 0
        self.failed = 0
        self.runner = None
        self.starts = []         # each event's start, for the run going on
        self.ends = []           # the end of each event's checks
        self.cal = []            # host-speed samples of the run going on
        self.paused_ns = 0       # time they took inside the run
        self.next_cal = 0

    def _make_inputs(self):
        """Generate the round's cases and write their scenario files."""
        from dynlabel.simnet import format_scenario
        undo = []
        generate = self.harness.generate_scenario

        def timed_generate(*args):
            t = perf_counter_ns()
            try:
                return generate(*args)
            finally:
                self.generate_ns += perf_counter_ns() - t
        start = perf_counter_ns()
        self.spans.patch(undo, self.harness, "generate_scenario",
                         timed_generate)
        try:
            cases = workloads.build(self.workload, self.seed)
        finally:
            self.spans.restore(undo)
        for case in cases:
            with open(self._paths(case)[0], "w") as fh:
                fh.write(format_scenario(case.events))
        self.inputs_ns = perf_counter_ns() - start
        return cases

    def _paths(self, case):
        base = self.workdir / case.name
        return (f"{base}.txt", f"{base}.csv", f"{base}.mem.csv")

    def _config(self, case):
        scenario, out, mem = self._paths(case)
        return self.harness.RunConfig(**case.config, scenario_path=scenario,
                                      out_path=out, mem_out_path=mem)

    # -- runs -------------------------------------------------------------

    def _hooks(self, stamp_events: bool) -> list:
        """Keep each run's scheme driver, and with ``stamp_events`` the
        start of every event and the end of its checks (the bound check
        is the last of them); returns the undo list."""
        undo = []
        build_runner = self.harness.build_runner

        def keep_runner(config, net):
            self.runner = build_runner(config, net)
            return self.runner
        self.spans.patch(undo, self.harness, "build_runner", keep_runner)
        if stamp_events:
            starts, ends = self.starts, self.ends
            for cls in (self.dynamic.IncreasingScheme,
                        self.dynamic.DynamicScheme):
                def apply(runner, event, _apply=cls.apply):
                    starts.append(perf_counter_ns())
                    return _apply(runner, event)
                self.spans.patch(undo, cls, "apply", apply)
            tracker = self.harness._BoundTracker
            after_event = tracker.after_event

            def checked(*args):
                try:
                    return after_event(*args)
                finally:
                    now = perf_counter_ns()
                    ends.append(now)
                    # between this event's checks and the next event
                    if now >= self.next_cal:
                        self.cal.append(hostspeed.sample())
                        self.next_cal = perf_counter_ns()
                        self.paused_ns += self.next_cal - now
                        self.next_cal += CAL_EVERY_NS
            self.spans.patch(undo, tracker, "after_event", checked)
        return undo

    def run_case(self, case, tracer=None) -> CaseRun:
        config = self._config(case)
        self.starts.clear()
        self.ends.clear()
        # traced runs are not scaled, and sampling would add to their spans
        self.cal = [hostspeed.sample()] if tracer is None else []
        self.paused_ns = 0
        start = perf_counter_ns()
        self.next_cal = start + CAL_EVERY_NS
        if tracer is None:
            report = self.harness.run(config)
        else:
            report = tracer.span("harness.run", self.harness.run, config)
        end = perf_counter_ns()
        # 8 bytes a sample, so the samples of a long pass barely move
        # peak_rss_mib
        event_ns = array.array("q", (b - a for a, b in
                                     zip(self.starts, self.ends)))
        construct_ns = self.starts[0] - start if self.starts else 0
        digests = tuple(self.gate.file_digest(p) for p in self._paths(case)[1:])
        problems = self.gate.check(report, len(case.events), digests,
                                   self.recorded.get(case.name))
        cr = CaseRun(case, end - start - self.paused_ns, self.cal,
                     construct_ns, event_ns, report, digests, problems)
        first = self.first.get(case.name)
        if first is None:
            self.first[case.name] = cr
        elif cr.sim != first.sim:
            problems.append("simulated metrics differ from the case's first "
                            "run" + (" (traced)" if tracer else ""))
        self.runs += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"perfbench: {self.workload} seed {self.seed} "
                      f"{case.name}: {p}", file=sys.stderr)
        return cr

    def timed_pass(self, seconds: float) -> list[list[CaseRun]]:
        """Whole rounds, as many as bring the pass closest to
        ``seconds`` of wall time (at least one)."""
        undo = self._hooks(stamp_events=True)
        rounds = []
        # set-up garbage is collected here, not inside a timed run
        gc.collect()
        try:
            start = last = perf_counter()
            while True:
                rounds.append([self.run_case(c) for c in self.cases])
                now = perf_counter()
                if now - start + (now - last) / 2 >= seconds:
                    break
                last = now
        finally:
            self.spans.restore(undo)
        return rounds

    def traced_round(self):
        """One round with every layer seam wrapped."""
        tracer = self.spans.Tracer()
        undo = self._hooks(stamp_events=False)
        undo += self.spans.instrument(tracer)
        copies = []

        def one_round():
            out = []
            for c in self.cases:
                out.append(self.run_case(c, tracer))
                backups = self.runner.core.backups
                copies.append(sum(map(len, backups.copies.values()))
                              if backups is not None else 0)
            return out
        try:
            runs = tracer.span("bench.round", one_round)
        finally:
            self.spans.restore(undo)
        return tracer, runs, max(copies)

    def setup_s(self, rounds) -> float:
        """Import and input making, once, plus the median over rounds of
        the time the round's runs take to reach their first event
        (scenario parsing, network and scheme construction); all scaled
        to the reference host."""
        construct = statistics.median(
            sum(r.construct_ns * r.scale for r in rnd) for rnd in rounds)
        once = (self.import_ns + self.inputs_ns) * hostspeed.scale(
            self.startup_cal)
        return (once + construct) / 1e9


# -- metrics ------------------------------------------------------------


def _events(runs) -> int:
    return sum(len(r.case.events) for r in runs)


def _throughput(runs) -> float:
    wall = sum(r.wall_ns for r in runs)
    return _events(runs) / (wall / 1e9) if wall else 0.0


def _median_throughput(rounds, keep=lambda run: True, scaled=True) -> float:
    """Median over rounds of the kept runs' events per second, on the
    reference host unless not ``scaled``; 0 when no run is kept."""
    rates = []
    for rnd in rounds:
        kept = [r for r in rnd if keep(r)]
        if kept:
            wall = sum(r.wall_ns * (r.scale if scaled else 1) for r in kept)
            rates.append(_events(kept) / (wall / 1e9))
    return statistics.median(rates) if rates else 0.0


def end_to_end(bench, rounds) -> tuple[dict, dict]:
    # read before the sample lists below are built, which are the
    # benchmark's memory, not the program's
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    p50, p99, samples, beyond = [], [], [], []
    for rnd in rounds:
        xs = [ns * r.scale for r in rnd for ns in r.event_ns]
        cuts = statistics.quantiles(xs, n=100, method="inclusive")
        p50.append(cuts[49])
        p99.append(cuts[98])
        samples.append(len(xs))
        beyond.append(sum(1 for x in xs if x > cuts[98]))
    first = rounds[0]
    values = {
        "events_per_s": _median_throughput(rounds),
        "event_p50_us": statistics.median(p50) / 1e3,
        "event_p99_us": statistics.median(p99) / 1e3,
        "setup_s": bench.setup_s(rounds),
        "peak_rss_mib": peak_rss_mib,
        "protocol_msgs_per_event":
            sum(r.report.protocol_messages for r in first) / _events(first),
        # each run's maximum, averaged over the round: a maximum over
        # all runs would hang on the one extreme tree a seed happens to
        # draw
        "max_label_bits":
            statistics.fmean(r.report.max_label_bits for r in first),
        "max_mem_bits":
            statistics.fmean(r.report.max_memory_bits for r in first),
    }
    facts = {"event_samples_per_round": min(samples),
             "samples_beyond_p99_per_round": min(beyond)}
    return values, facts


def _curves(runs) -> tuple[float, float]:
    """Worst ratio of each run to the paper's amortized curves: protocol
    messages per join over k*log_k(n)*MC(n)/n, and maximum label bits
    over log_k(n)*LS(n), with n the final tree size and k the quota."""
    from dynlabel.dynamic import QuotaFunction
    from dynlabel.static_schemes import scheme_for
    msgs, label = 0.0, 0.0
    for r in runs:
        cfg = r.case.config
        n = max(r.report.final_n, 2)
        k = QuotaFunction.parse(cfg["quota_fn"]).value(n)
        log_k = math.log(n) / math.log(k)
        pi = scheme_for(cfg["function"])
        joins = sum(1 for e in r.case.events if e.kind == "A")
        msgs = max(msgs, (r.report.protocol_messages / joins)
                   / (k * log_k * pi.mc_budget(n) / n))
        label = max(label, r.report.max_label_bits / (log_k * pi.ls_budget(n)))
    return msgs, label


def per_layer(bench, rounds, tracer, traced, copies_held) -> dict:
    events = _events(traced)
    calls, total, self_ns = tracer.calls, tracer.total_ns, tracer.self_ns
    sec = lambda name: total[name] / 1e9
    self_s = lambda name: self_ns[name] / 1e9
    by_cat = {c: sum(r.report.messages_by_category.get(c, 0) for r in traced)
              for c in CATEGORIES}
    msgs_curve, label_curve = _curves(traced)
    traced_eps = _throughput(traced)
    untraced_eps = _median_throughput(rounds, scaled=False)
    round_ns = total["bench.round"]
    values = {
        **{f"simnet.msgs.{c}": by_cat[c] / events for c in CATEGORIES},
        "simnet.children_by_port.calls": calls["simnet.children_by_port"],
        "simnet.children_by_port.s": sec("simnet.children_by_port"),
        "simnet.broadcast_convergecast.calls":
            calls["simnet.broadcast_convergecast"],
        "simnet.broadcast_convergecast.self_s":
            self_s("simnet.broadcast_convergecast"),
        "simnet.add_leaf.self_s": self_s("simnet.add_leaf"),
        "static_schemes.marker.calls": calls["static_schemes.marker"],
        "static_schemes.marker.members": tracer.size["static_schemes.marker"],
        "static_schemes.marker.self_s": self_s("static_schemes.marker"),
        "static_schemes.decoder.calls": calls["static_schemes.decoder"],
        "static_schemes.decoder.s": sec("static_schemes.decoder"),
        "scheme_core.resets": sum(r.report.reset_count for r in traced),
        "scheme_core.reset.members": tracer.size["scheme_core.reset"],
        "scheme_core.reset.self_s": self_s("scheme_core.reset"),
        "scheme_core.flush_event.self_s": self_s("scheme_core.flush_event"),
        "scheme_core.flush_event.s": sec("scheme_core.flush_event"),
        "scheme_core.label.calls": calls["scheme_core.label"],
        "scheme_core.label.s": sec("scheme_core.label"),
        "scheme_core.memory_bits.s": sec("scheme_core.memory_bits"),
        "scheme_core.query.calls": calls["scheme_core.query"],
        "scheme_core.decode_labels.s": sec("scheme_core.decode_labels"),
        "scheme_core.label.calls_per_query":
            (calls["scheme_core.label"] / calls["scheme_core.query"]
             if calls["scheme_core.query"] else 0.0),
        "scheme_core.scan_invariants.calls":
            calls["scheme_core.scan_invariants"],
        "scheme_core.scan_invariants.self_s":
            self_s("scheme_core.scan_invariants"),
        "scheme_core.msgs_over_curve": msgs_curve,
        "scheme_core.label_over_curve": label_curve,
        "memory.bookkeeping.update.s": sec("memory.bookkeeping.update"),
        "memory.bookkeeping.children_in_scope.calls":
            calls["memory.bookkeeping.children_in_scope"],
        "memory.bookkeeping.children_in_scope.s":
            sec("memory.bookkeeping.children_in_scope"),
        "memory.bookkeeping.check.s": sec("memory.bookkeeping.check"),
        "memory.backups.check.s": sec("memory.backups.check"),
        "memory.backups.refresh.calls": calls["memory.backups.refresh"],
        "memory.backups.refresh.s": sec("memory.backups.refresh"),
        "memory.backups.copies_held": copies_held,
        "functions.oracle.calls": calls["functions.oracle"],
        "functions.oracle.s": sec("functions.oracle"),
        "harness.verify_step.self_s": self_s("harness.verify_step"),
        "harness.queries_checked":
            sum(r.report.queries_checked for r in traced),
        "harness.run.self_s": self_s("harness.run"),
        "harness.generate_scenario.s": bench.generate_ns / 1e9,
        "dynamic.restarts": sum(len(r.report.restarts) for r in traced),
        "dynamic.phase_shifts": sum(len(r.report.phases) for r in traced),
        "dynamic.restart.s": sec("dynamic.restart"),
        **{f"engine-shapes.leg.{leg}.events_per_s":
           _median_throughput(rounds, lambda r, leg=leg: r.case.leg == leg)
           for leg in LEGS},
        "trace.events_per_s": traced_eps,
        "trace.untraced_events_per_s": untraced_eps,
        "trace.overhead": untraced_eps / traced_eps,
        "trace.wall_s": round_ns / 1e9,
        # the root's own time is the benchmark's (gate, bookkeeping)
        "trace.accounted_share":
            (sum(self_ns.values()) - self_ns["bench.round"]) / round_ns,
        "host.kernel_ms": statistics.fmean(
            ns for rnd in rounds for r in rnd for ns in r.cal_ns) / 1e6,
        "fail_ratio": bench.failed / bench.runs,
    }
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        bench = Bench(args.workload, args.seed, workdir)
        start = perf_counter()
        rounds = bench.timed_pass(args.seconds)
        pass_s = perf_counter() - start
        if args.trace:
            tracer, traced, copies_held = bench.traced_round()
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
            values = per_layer(bench, rounds, tracer, traced, copies_held)
            units = PER_LAYER
            _, facts = end_to_end(bench, rounds)
        else:
            values, facts = end_to_end(bench, rounds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "rounds": len(rounds), "cases_per_round": len(bench.cases),
        "pass_s": round(pass_s, 3),
        "import_s": bench.import_ns / 1e9, "inputs_s": bench.inputs_ns / 1e9,
    })
    print(json.dumps({"info": facts}))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.runs,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
