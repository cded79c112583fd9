#!/usr/bin/env python3
"""The repository's benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig10-cold --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is a separate run that also gives the per-layer metrics
and writes a Chrome-trace file under ``.perfbench/traces/``.  The last
line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it holds the host stamp, the checks' notes and the
stats digest.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("fig10-cold", "cell-long", "serve-loop")


class Context:
    """What a workload needs from this entry point: its inputs, a scratch
    directory inside the checkout, and the output helpers."""

    def __init__(self, args, work: str) -> None:
        import common

        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.scale = min(1.0, args.seconds / common.FULL_SECONDS)
        self.trace = bool(args.trace)
        self.work = work
        self.notes = []
        self.trace_path = None
        self.probe = None          # a running speed.Probe, set by main()

    def note(self, message: str) -> None:
        self.notes.append(message)
        print(message, file=sys.stderr, flush=True)

    def sampler(self):
        import tracing
        return tracing.Sampler(str(SRC / "repro"))

    def write_trace(self, recorder, sampler, summary) -> None:
        self.trace_path = str(OUT / "traces"
                              / f"{self.workload}-seed{self.seed}.trace.json")
        recorder.write_chrome(self.trace_path, {
            "workload": self.workload, "seed": self.seed,
            "self_s": {k: round(v, 6)
                       for k, v in sorted(sampler.self_s.items())},
            "samples": sampler.samples, "summary": summary})

    def result(self, values, attempted, failed, summary) -> dict:
        return {"values": values, "attempted": attempted,
                "failed": failed, "summary": summary}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement budget; below 30 the work "
                             "shrinks in proportion")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'repro'}; "
              f"run from the root of a full checkout", file=sys.stderr)
        return 2
    import common
    common.pin_environment(str(SRC), str(OUT / "pycache"))
    sys.path.insert(0, str(SRC))

    import cell
    import fig10
    import metrics
    import serveloop
    import speed
    runners = {"fig10-cold": fig10.run, "cell-long": cell.run,
               "serve-loop": serveloop.run}

    load_before = common.loadavg()
    with common.scratch_dir(str(OUT), f"{args.workload}-") as work:
        ctx = Context(args, work)
        with speed.Probe() as ctx.probe:
            out = runners[args.workload](ctx)
    load_after = common.loadavg()

    values, units = out["values"], metrics.units(ctx.trace)
    missing = sorted(set(units) - set(values))
    if missing or any(values[name] is None for name in units):
        raise RuntimeError(f"workload did not measure {missing}")
    failed = out["failed"]
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": dict(common.host_stamp(str(ROOT)),
                     loadavg_before=load_before, loadavg_after=load_after),
        "failed_frac": failed / out["attempted"],
        "notes": ctx.notes, "trace_file": ctx.trace_path,
        **out["summary"],
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": metrics.render(values, units),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
