"""Command-line entry point.

    dynlabel run --seed 7 --events 1000 --pdelete 0.3 --model dynamic \
        --ports adversary --function distance --kfn pow:0.5 \
        --verify sampled:64 --invariants final --out metrics.csv

Prints a JSON verification report to stdout and exits nonzero when the
run recorded any mismatch, invariant violation or bound violation.
"""

from __future__ import annotations

import argparse
import os
import sys

from .dynamic import QuotaFunction
from .functions import FUNCTIONS
from .harness import (INVARIANT_MODES, MODELS, PORT_MODELS, RunConfig,
                      generate_scenario, run)
from .simnet import DEFAULT_PORT_CAP, format_scenario, parse_scenario


def _quota_rule(text: str) -> str:
    try:
        QuotaFunction.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _scenario_file(path: str) -> str:
    try:
        with open(path) as fh:
            parse_scenario(fh.read())
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return path


def _output_file(path: str) -> str:
    """A path the run can write its output to once it ends: checked up
    front so that a long run does not end in a failed open."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path} is a directory")
    if not os.path.isdir(folder):
        raise argparse.ArgumentTypeError(f"no such directory: {folder}")
    if not os.access(folder, os.W_OK | os.X_OK) or (
            os.path.exists(path) and not os.access(path, os.W_OK)):
        raise argparse.ArgumentTypeError(f"cannot write {path}")
    return path


def _build_parser():
    parser = argparse.ArgumentParser(prog="dynlabel")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="replay a scenario through a scheme")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--events", type=int, default=100)
    p.add_argument("--pdelete", type=float, default=0.0)
    p.add_argument("--model", choices=MODELS, default="increasing")
    p.add_argument("--ports", dest="port_model", choices=PORT_MODELS,
                   default="designer")
    p.add_argument("--function", choices=FUNCTIONS, default="distance")
    p.add_argument("--kfn", type=_quota_rule, default="pow:0.5",
                   help="quota rule: pow:E (E in [0, 1]) | logpow:E "
                        "(E in [0, 16]) | const:K")
    p.add_argument("--watch", default="exact",
                   help="change tracker driving restarts")
    p.add_argument("--verify", default="sampled:64",
                   help="exhaustive | sampled:<m> | off")
    p.add_argument("--invariants", choices=INVARIANT_MODES, default="final")
    p.add_argument("--no-bounds", action="store_true",
                   help="skip budget-curve checks")
    p.add_argument("--port-cap", type=int, default=DEFAULT_PORT_CAP)
    p.add_argument("--scenario", type=_scenario_file,
                   help="replay this scenario file")
    p.add_argument("--out", type=_output_file,
                   help="write the per-event metrics CSV here")
    p.add_argument("--mem-out", type=_output_file,
                   help="write the final memory report CSV here")

    g = sub.add_parser("gen", help="write a random scenario file")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--events", type=int, default=100)
    g.add_argument("--pdelete", type=float, default=0.0)
    g.add_argument("--out", type=_output_file, required=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen":
        try:
            events = generate_scenario(args.seed, args.events, args.pdelete)
        except ValueError as exc:
            parser.error(str(exc))
        with open(args.out, "w") as fh:
            fh.write(format_scenario(events))
        return 0
    try:
        config = RunConfig(
            seed=args.seed, events=args.events, p_delete=args.pdelete,
            model=args.model, port_model=args.port_model,
            function=args.function,
            quota_fn=args.kfn, tracker=args.watch, verify=args.verify,
            invariants=args.invariants, bounds=not args.no_bounds,
            port_cap=args.port_cap, scenario_path=args.scenario,
            out_path=args.out, mem_out_path=args.mem_out)
    except ValueError as exc:
        parser.error(str(exc))
    report = run(config)
    print(report.to_json())
    return 0 if report.passed() else 1


if __name__ == "__main__":
    sys.exit(main())
