"""Acceptance gate: every shipped guarantee checked at its stated scale.

Each test prints one PASS/FAIL line for its criterion (run with -s to
stream them).  Heavy grids fan out over worker processes; every run is
fully seeded, so reruns are bit-stable.
"""

import itertools
import math
import multiprocessing
import os
import random
import time

import pytest

from dynlabel import (DynamicScheme, FiniteScheme, Network, QuotaFunction,
                      budgets, compute_phase_params, scheme_for)
from dynlabel.dynamic import TRACKERS, ExactChangeTracker, make_tracker
from dynlabel.harness import RunConfig, run

FUNCTIONS = ("ancestry", "distance", "seplevel", "routing")
MODELS = ("increasing", "dynamic")
PORTS = ("designer", "adversary")
SEEDS = range(25)

GROWTH_ORDERS = ("chain", "star", "random")


def _report(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def _run_worker(kwargs):
    r = run(RunConfig(**kwargs))
    return {
        "kwargs": kwargs,
        "passed": r.passed(),
        "mismatches": len(r.mismatches),
        "first_mismatch": repr(r.mismatches[0]) if r.mismatches else "",
        "invariant_violations": len(r.invariant_violations),
        "first_violation": (r.invariant_violations[0]
                            if r.invariant_violations else ""),
        "bound_violations": len(r.bound_violations),
        "errors": len(r.errors),
        "messages_to_dead": r.messages_to_dead,
        "queries": r.queries_checked,
        "model": kwargs["model"],
    }


# A worker that dies (killed for memory, say) leaves Pool.map waiting
# forever; a grid fails after this many seconds instead.
POOL_TIMEOUT_S = 3600


def _pool_map(worker, jobs):
    # one worker per CPU this process may run on, not per CPU of the host
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=max(2, len(os.sched_getaffinity(0)))) as pool:
        return pool.map_async(worker, jobs, chunksize=1).get(POOL_TIMEOUT_S)


@pytest.fixture(scope="session")
def decoder_grid_results():
    jobs = []
    for fn, model, ports, seed in itertools.product(
            FUNCTIONS, MODELS, PORTS, SEEDS):
        jobs.append(dict(
            seed=seed, events=1000,
            p_delete=0.3 if model == "dynamic" else 0.0,
            model=model, port_model=ports, function=fn,
            quota_fn="pow:0.5", verify="sampled:64", invariants="off"))
    start = time.time()
    results = _pool_map(_run_worker, jobs)
    elapsed = time.time() - start
    return results, elapsed


def test_criterion_1_decoder_soundness(decoder_grid_results):
    results, elapsed = decoder_grid_results
    bad = [r for r in results if not r["passed"]]
    queries = sum(r["queries"] for r in results)
    detail = (f"decoder soundness: {len(results)} runs, {queries} checked "
              f"queries, {len(bad)} failing runs, {elapsed:.0f}s")
    if bad:
        detail += f"; first failure {bad[0]['kwargs']}: " \
                  f"{bad[0]['first_mismatch'] or bad[0]['first_violation']}"
    _report(1, not bad, detail)


def _finite_worker(args):
    quota, levels, seed = args
    order = GROWTH_ORDERS[seed % len(GROWTH_ORDERS)]
    rng = random.Random(seed * 977 + quota * 31 + levels)
    net = Network()
    scheme = FiniteScheme(net, "ancestry", quota=quota, levels=levels)
    floor = quota ** levels
    cap = 6 * floor
    last = 0
    early = False
    while not scheme.finished and scheme.joins < cap:
        if order == "chain":
            parent = last
        elif order == "star":
            parent = 0
        else:
            parent = net.alive_list[rng.randrange(len(net.alive_list))]
        last = scheme.add_leaf(parent)
        if scheme.finished and scheme.joins_at_finish < floor:
            early = True
    bound = budgets.finite_run_message_budget(
        quota, levels, net.ledger.marker_max_messages)
    return {
        "quota": quota, "levels": levels, "seed": seed, "order": order,
        "early": early, "finished": scheme.finished,
        "joins": scheme.joins_at_finish or scheme.joins,
        "messages": net.ledger.protocol_messages(),
        "bound": bound,
        "over_budget": net.ledger.protocol_messages() > bound,
    }


@pytest.fixture(scope="session")
def finite_grid_results():
    jobs = [(quota, levels, seed)
            for quota in (2, 3)
            for levels in (1, 2, 3, 4)
            for seed in range(20)]
    return _pool_map(_finite_worker, jobs)


def test_criterion_2_stopping_time(finite_grid_results):
    early = [r for r in finite_grid_results if r["early"]]
    finished = sum(1 for r in finite_grid_results if r["finished"])
    detail = (f"stopping time: {len(finite_grid_results)} runs, {finished} "
              f"ran to completion, {len(early)} finished before the floor")
    if early:
        detail += f"; first {early[0]}"
    _report(2, not early, detail)


def test_criterion_3_message_bound(finite_grid_results):
    over = [r for r in finite_grid_results if r["over_budget"]]
    detail = (f"message bound: every run within five marker budgets per "
              f"level per quota unit; {len(over)} violations")
    if over:
        detail += f"; first {over[0]}"
    _report(3, not over, detail)


def _label_growth_run(quota_fn, top_n=4096, seed=13):
    rng = random.Random(seed)
    net = Network()
    scheme_qf = QuotaFunction.parse(quota_fn)
    from dynlabel import IncreasingScheme
    s = IncreasingScheme(net, "ancestry", scheme_qf)
    pi = scheme_for("ancestry")
    checkpoints = {}
    while net.alive_count < top_n:
        s.add_leaf(net.alive_list[rng.randrange(len(net.alive_list))])
        n = net.alive_count
        if n & (n - 1) == 0 and n >= 256:
            k = scheme_qf.value(n)
            denom = (math.log(n) / math.log(k)) * pi.ls_budget(n)
            checkpoints[n] = (net.ledger.max_label_bits,
                              net.ledger.max_label_bits / denom)
    return pi, checkpoints


def test_criterion_4_label_size_scaling():
    pi, sqrt_points = _label_growth_run("pow:0.5")
    ok = True
    details = []
    for n, (bits, _) in sqrt_points.items():
        budget = budgets.LABEL_RATIO_CONSTANT * 2 * pi.ls_budget(n)
        details.append(f"sqrt n={n} bits={bits}")
        ok &= bits <= budget
    _, const_points = _label_growth_run("const:2")
    for n, (bits, _) in const_points.items():
        budget = budgets.LABEL_RATIO_CONSTANT * max(1, math.log2(n)) * \
            pi.ls_budget(n)
        ok &= bits <= budget
    for points in (sqrt_points, const_points):
        ns = sorted(points)
        for a, b in zip(ns, ns[1:]):
            ok &= points[b][1] <= 2 * points[a][1]
    _report(4, ok, "label size scaling to n=4096: "
            + ", ".join(details)
            + "; doubling n never doubles the normalized ratio")


def test_criterion_5_phase_parameters():
    rng = random.Random(2024)
    rules = ["pow:0.3", "pow:0.5", "pow:0.7", "pow:0.9",
             "logpow:0.5", "logpow:1.0", "logpow:2.0",
             "const:2", "const:3", "const:7", "const:64"]
    qfs = [QuotaFunction.parse(s) for s in rules]
    bad = 0
    for _ in range(100_000):
        n = rng.randrange(1, 1 << rng.randrange(1, 31))
        qf = qfs[rng.randrange(len(qfs))]
        p = compute_phase_params(n, qf)
        if not (p.quota ** (p.levels - 2) <= 2 * n < p.quota ** (p.levels - 1)):
            bad += 1
    _report(5, bad == 0,
            f"phase parameters: 100000 random draws, {bad} bracket violations")


@pytest.fixture(scope="session")
def invariant_grid_results():
    jobs = []
    for seed in range(10):
        jobs.append(dict(
            seed=seed + 100, events=5000, p_delete=0.3, model="dynamic",
            port_model=PORTS[seed % 2], function="distance",
            quota_fn="pow:0.5", verify="off", invariants="every-event"))
    return _pool_map(_run_worker, jobs)


def test_criterion_6_invariant_suites(invariant_grid_results):
    bad = [r for r in invariant_grid_results
           if r["invariant_violations"] or r["errors"] or r["bound_violations"]]
    total = sum(r["invariant_violations"] for r in invariant_grid_results)
    detail = (f"invariant suites: 10 runs x 5000 leaf-dynamic events, "
              f"every-event scans, {total} violations")
    if bad:
        detail += f"; first failure {bad[0]['kwargs']}: {bad[0]['first_violation']}"
    _report(6, not bad, detail)


def _restart_window_worker(seed):
    rng = random.Random(seed * 131 + 5)
    net = Network()
    s = DynamicScheme(net, "ancestry", QuotaFunction.parse("pow:0.5"))
    expected = []
    baseline, adds, dels, n_alive = 1, 0, 0, 1
    window_ok = True
    for i in range(1, 801):
        leaves = [v for v in net.alive_nodes() if v != 0 and net.is_leaf(v)]
        if leaves and rng.random() < 0.3:
            s.remove_leaf(leaves[rng.randrange(len(leaves))])
            dels += 1
            n_alive -= 1
        else:
            s.add_leaf(net.alive_list[rng.randrange(len(net.alive_list))])
            adds += 1
            n_alive += 1
        if 9 * adds > baseline or 9 * dels > baseline:
            expected.append((i, n_alive))
            baseline, adds, dels = n_alive, 0, 0
        elif adds + dels > baseline / 2:
            window_ok = False
    return {"seed": seed, "exact": s.restart_log == expected,
            "window_ok": window_ok, "restarts": len(expected)}


def test_criterion_7_restart_window():
    results = _pool_map(_restart_window_worker, list(range(10)))
    bad = [r for r in results if not (r["exact"] and r["window_ok"])]
    total = sum(r["restarts"] for r in results)
    detail = (f"restart window: 10 seeds, {total} restarts, every restart "
              f"at the first estimate crossing, changes between restarts "
              f"within half the baseline")
    if bad:
        detail += f"; first failure seed {bad[0]['seed']}"
    _report(7, not bad, detail)


def test_criterion_8_dead_node_silence(decoder_grid_results,
                                       invariant_grid_results):
    results, _ = decoder_grid_results
    dynamic_runs = [r for r in results if r["model"] == "dynamic"]
    dynamic_runs += list(invariant_grid_results)
    offenders = [r for r in dynamic_runs if r["messages_to_dead"]]
    detail = (f"dead-node silence: {len(dynamic_runs)} leaf-dynamic runs, "
              f"{sum(r['messages_to_dead'] for r in dynamic_runs)} messages "
              f"addressed to deleted nodes")
    _report(8, not offenders, detail)


def test_criterion_9_change_tracking_substitution():
    """The watch protocol's polylog message bound is out of scope by
    declared substitution: the tracker is a pluggable component whose
    default counts changes exactly, so the restart-window guarantees are
    checked exactly (criterion 7) while no message bound is claimed for
    the tracking itself."""
    ok = (TRACKERS.get("exact") is ExactChangeTracker
          and isinstance(make_tracker("exact"), ExactChangeTracker)
          and hasattr(ExactChangeTracker, "restart_baseline")
          and hasattr(ExactChangeTracker, "on_change"))
    net = Network()
    s = DynamicScheme(net, "distance", QuotaFunction.parse("pow:0.5"),
                      tracker="exact")
    ok = ok and isinstance(s.tracker, ExactChangeTracker)
    _report(9, ok, "change-volume tracking is a pluggable estimator; the "
                   "exact counter stands in for the cited sub-polylog "
                   "protocol, whose message bound is not reproduced here")
