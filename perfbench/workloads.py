"""Benchmark workloads: each is one fixed round of cases built from a seed.

A case is one ``dynlabel.harness.run`` call: a run configuration plus
the scenario it replays.  The benchmark replays a workload's round over
and over, so every round does the same work and a pass made of whole
rounds has the same mix however many rounds fit in it.

* ``verify-mix``   -- the decoder-soundness grid (criterion 1's shape):
  four functions x two models x two port models, sampled verification,
  no invariant scans.  Loads oracle checks, label assembly, decoding.
* ``scan-dynamic`` -- leaf-dynamic ``distance`` on both port models with
  every-event invariant scans and no verification (criterion 6's shape).
  Loads ``scan_invariants``, port bookkeeping and backup checks.
* ``engine-shapes`` -- engine only (no verification, no scans) on three
  legs: a chain of adds, a star of adds and a random leaf-dynamic
  stream.  Loads ``_flush_event``, scope anchoring, port renumbering,
  backups and restarts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


FUNCTIONS = ("ancestry", "distance", "seplevel", "routing")
MODELS = ("increasing", "dynamic")
PORTS = ("designer", "adversary")

# Events per case, sized so one round takes a few seconds on a 2-core
# host: long enough that every dynamic case passes several restarts,
# short enough that a timed pass holds several whole rounds.
VERIFY_MIX_EVENTS = 400
# The cost of a scanned event follows the tree a stream happens to grow
# (one 1,000-event stream runs 11% faster or slower than the next), so a
# scan-dynamic round averages over many shorter streams.
SCAN_STREAMS = 8          # per port model
SCAN_EVENTS = 400
CHAIN_ADDS = 800
STAR_ADDS = 2000
RANDOM_EVENTS = 3000
P_DELETE = 0.3


@dataclass(frozen=True)
class Case:
    """One harness run: a name unique in its workload, the engine-shapes
    leg it belongs to (the workload name elsewhere), the ``RunConfig``
    fields other than file paths, and the scenario it replays."""

    name: str
    leg: str
    config: dict
    events: tuple


def _config(seed, events, model, port_model, function, verify, invariants):
    return dict(seed=seed, events=len(events),
                p_delete=P_DELETE if model == "dynamic" else 0.0,
                model=model, port_model=port_model, function=function,
                quota_fn="pow:0.5", verify=verify, invariants=invariants)


def _case_seed(seed: int, i: int) -> int:
    # every case of a round replays its own stream, so a round averages
    # over many independent trees rather than one
    return seed * 100 + i


# The builders import the program when they run, not when this module is
# imported, so the benchmark can time the import as part of set-up.


def verify_mix(seed: int) -> list[Case]:
    from dynlabel import harness
    cases = []
    grid = itertools.product(FUNCTIONS, MODELS, PORTS)
    for i, (fn, model, ports) in enumerate(grid):
        s = _case_seed(seed, i)
        p = P_DELETE if model == "dynamic" else 0.0
        events = tuple(harness.generate_scenario(s, VERIFY_MIX_EVENTS, p))
        cases.append(Case(f"{fn}-{model}-{ports}", "verify-mix",
                          _config(s, events, model, ports, fn,
                                  "sampled:64", "off"), events))
    return cases


def scan_dynamic(seed: int) -> list[Case]:
    from dynlabel import harness
    cases = []
    grid = itertools.product(PORTS, range(SCAN_STREAMS))
    for i, (ports, j) in enumerate(grid):
        s = _case_seed(seed, i)
        events = tuple(harness.generate_scenario(s, SCAN_EVENTS, P_DELETE))
        cases.append(Case(f"distance-dynamic-{ports}-{j}", "scan-dynamic",
                          _config(s, events, "dynamic", ports, "distance",
                                  "off", "every-event"), events))
    return cases


def engine_shapes(seed: int) -> list[Case]:
    # the chain and star are fixed shapes; only the random leg depends
    # on the seed
    from dynlabel import harness
    from dynlabel.simnet import ScenarioEvent
    chain = tuple(ScenarioEvent("A", i) for i in range(CHAIN_ADDS))
    star = tuple(ScenarioEvent("A", 0) for _ in range(STAR_ADDS))
    s = _case_seed(seed, 0)
    random_leg = tuple(harness.generate_scenario(s, RANDOM_EVENTS, P_DELETE))
    return [
        Case("chain", "chain", _config(s, chain, "increasing", "designer",
                                       "distance", "off", "off"), chain),
        Case("star", "star", _config(s, star, "increasing", "designer",
                                     "distance", "off", "off"), star),
        Case("random", "random", _config(s, random_leg, "dynamic",
                                         "designer", "distance", "off",
                                         "off"), random_leg),
    ]


BUILDERS = {"verify-mix": verify_mix, "scan-dynamic": scan_dynamic,
            "engine-shapes": engine_shapes}


def build(workload: str, seed: int) -> list[Case]:
    return BUILDERS[workload](seed)
