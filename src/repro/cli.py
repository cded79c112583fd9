"""Command-line interface: ``python -m repro <command>``.

Commands:

``list``                          benchmarks and litmus tests available
``litmus NAME``                   enumerate a litmus test under all models
``explain NAME -m MODEL k=v ...`` happens-before explanation of a witness
``compare NAME``                  ConsistencyChecker: the outcomes x86
                                  allows and 370 forbids, each with
                                  its 370 cycle
``run-file PATH``                 enumerate a litmus test from a file
``sample NAME -m MODEL``          litmus7-style outcome sampling
``bench NAME [-p POLICY]``        run one benchmark, print its stats
``trace NAME [-p POLICY]``        run with full observability: Chrome
                                  trace JSON (Perfetto-loadable) +
                                  JSONL metrics + top-stalls summary
``leak [GADGET ...]``             Spectre gadgets under taint tracking:
                                  transient leaks per policy
``record NAME PATH``              save a benchmark's traces to a file
``replay PATH``                   run a saved trace file
``sweep NAME [NAME ...]``         benchmarks under all 5 configs, in
                                  parallel, with on-disk result caching,
                                  per-job timeouts and bounded retries
``chaos``                         the pipeline conformance check: every
                                  litmus battery program on the five
                                  pipelines under deterministic fault
                                  injection (the chaos gate)
``serve``                         long-lived batch simulation service:
                                  asyncio HTTP JSON API over a sharded
                                  worker pool with admission control and
                                  a persistent result store
                                  (docs/SERVICE.md)
``submit SPEC [SPEC ...]``        submit bench:NAME[:POLICY] /
                                  litmus:NAME[:MODELS] jobs (or --file)
                                  to a running service; --wait polls
                                  them to completion
``poll JOB_ID``                   job status/result from a running
                                  service (also: ``poll healthz``,
                                  ``poll metrics``)
``cache``                         result-cache statistics and LRU
                                  garbage collection (--stats / --gc)
``lint [PATH ...]``               static determinism/zero-overhead
                                  discipline analysis (AST rules, see
                                  docs/STATIC_ANALYSIS.md)
``synth``                         exhaustive bounded litmus synthesis:
                                  enumerate every small program, keep
                                  model-pair distinguishers, minimize,
                                  check, and ``--promote`` them
                                  into the battery (docs/SYNTHESIS.md)
``zoo``                           the memory-model registry: model
                                  table, conformance check (axiomatic vs
                                  operational, lattice) over the
                                  battery and, optionally, random
                                  programs, and the battery's
                                  store-atomicity races
                                  (docs/MEMORY_MODELS.md)

``bench`` and ``replay`` take ``--json`` (machine-readable stats) and
``--obs``/``--obs-out`` (histograms + gate intervals, optionally as
JSONL); ``sweep`` takes ``--obs``/``--obs-out`` to carry per-cell
observability summaries alongside the cached results.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional

from repro.core.policies import POLICY_ORDER
from repro.litmus import (MODELS, enumerate_outcomes, explain,
                          litmus_registry, sample)
from repro.resilience import DEFAULT_CHAOS as DEFAULT_CHAOS_SPEC
from repro.litmus.checker import find_races
from repro.litmus.parser import parse_witness
from repro.litmus.program import Program


def _find_program(name: str) -> Program:
    registry = litmus_registry()
    if name not in registry:
        raise SystemExit(f"unknown litmus test {name!r}; try one of: "
                         + ", ".join(sorted(registry)))
    return registry[name]


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_list(_args) -> int:
    from repro.workloads import PARALLEL_PROFILES, SEQUENTIAL_PROFILES
    print("litmus tests:")
    for name in sorted(litmus_registry()):
        print(f"  {name}")
    print("\nparallel benchmarks (SPLASH-3 / PARSEC):")
    print("  " + ", ".join(PARALLEL_PROFILES))
    print("\nsequential benchmarks (SPECrate CPU2017):")
    print("  " + ", ".join(SEQUENTIAL_PROFILES))
    print("\nconfigurations: " + ", ".join(POLICY_ORDER))
    return 0


def _print_outcomes(program: Program, models: Optional[List[str]],
                    witness: Optional[Dict[str, int]] = None) -> None:
    """The threads, then per model its outcomes (``litmus``,
    ``run-file``), or with ``witness`` whether any outcome matches it."""
    from repro.litmus.operational import _matches
    for tid, thread in enumerate(program.threads):
        print(f"T{tid}: " + " ; ".join(str(op) for op in thread))
    for model in (models or MODELS):
        outcomes = enumerate_outcomes(program, model)
        print(f"\n{model}: {len(outcomes)} outcomes")
        if witness is not None:
            hit = any(_matches(o, witness) for o in outcomes)
            print(f"  exists {witness}: "
                  f"{'ALLOWED' if hit else 'forbidden'}")
        else:
            for outcome in sorted(outcomes, key=str):
                print(f"  {outcome}")


def cmd_litmus(args) -> int:
    _print_outcomes(_find_program(args.name), args.models)
    return 0


def cmd_explain(args) -> int:
    program = _find_program(args.name)
    if not args.witness:
        raise SystemExit("explain needs witness conditions (e.g. r0_rx=1)")
    try:
        witness = parse_witness(program, args.witness)
    except ValueError as exc:
        raise SystemExit(f"explain: witness {exc}")
    print(explain(program, args.model, **witness))
    return 0


def cmd_compare(args) -> int:
    print(find_races(_find_program(args.name)).summary())
    return 0


def cmd_run_file(args) -> int:
    from repro.litmus.parser import LitmusParseError, parse_litmus_file
    try:
        parsed = parse_litmus_file(args.path)
    except (OSError, LitmusParseError) as exc:
        raise SystemExit(str(exc))
    _print_outcomes(parsed.program, args.models, parsed.witness)
    return 0


def cmd_sample(args) -> int:
    program = _find_program(args.name)
    report = sample(program, args.model, runs=args.runs, seed=args.seed)
    print(report.summary(top=args.top))
    return 0


def _emit_obs(report, stats, obs_out: Optional[str]) -> None:
    """Shared --obs tail for bench/replay: summary + optional JSONL."""
    from repro.analysis.report import top_stalls
    print(top_stalls(report, stats))
    if obs_out:
        n = report.write_jsonl(obs_out)
        print(f"wrote {obs_out}: {n} metric records")


def _observe_cell(args, **observe):
    """``observe_run`` on the cell's traces (bench --obs, trace)."""
    from repro.obs.session import observe_run
    from repro.workloads.runner import cell_traces
    traces, warm = cell_traces(args.name, args.cores, args.length,
                               args.seed)
    return observe_run(traces, args.policy, warm_caches=warm, **observe)


def cmd_bench(args) -> int:
    from repro.sim.stats import SystemStats
    from repro.sweep.runner import SweepJob, execute_job

    obs = args.obs or bool(args.obs_out)
    if obs:
        stats, report, _system = _observe_cell(args)
    else:
        # The payload the sweep cache and the serve store hold; its
        # round trip through SystemStats is exact.
        stats = SystemStats.from_dict(execute_job(SweepJob(
            args.name, args.policy, cores=args.cores, length=args.length,
            seed=args.seed)))
    if args.json:
        print(stats.to_json(indent=2))
        if obs and args.obs_out:
            report.write_jsonl(args.obs_out)
        return 0
    total = stats.total
    print(f"{args.name} under {args.policy}: "
          f"{stats.execution_cycles} cycles, "
          f"{total.retired_instructions} instructions")
    print(f"  loads:          {total.loads_pct:6.2f}% of instructions")
    print(f"  forwarded (SLF):{total.forwarded_pct:6.2f}%")
    print(f"  gate stalls:    {total.gate_stalls_pct:6.3f}% "
          f"({total.avg_gate_stall_cycles:.1f} cycles each)")
    print(f"  re-executed:    {total.reexecuted_pct:6.3f}%")
    stalls = total.stall_pct
    print(f"  dispatch stalls: ROB {stalls['ROB']:.1f}%  "
          f"LQ {stalls['LQ']:.1f}%  SQ/SB {stalls['SQ/SB']:.1f}%")
    if obs:
        _emit_obs(report, stats, args.obs_out)
    return 0


def cmd_trace(args) -> int:
    from repro.obs.chrome_trace import write_chrome_trace
    from repro.obs.validate import validate_chrome_trace
    from repro.analysis.report import top_stalls

    stats, report, system = _observe_cell(
        args, trace_pipeline=True, sample_interval=args.sample_interval)
    out = args.out or f"{args.name}-{args.policy}.trace.json"
    trace = write_chrome_trace(out, system, report, stats)
    counts = validate_chrome_trace(trace)
    print(f"wrote {out}: {len(trace['traceEvents'])} events "
          f"({counts['X']} slices, {counts['C']} counter samples, "
          f"{counts['gate_slices']} gate intervals) — "
          f"load it at https://ui.perfetto.dev or chrome://tracing")
    metrics = args.metrics or f"{args.name}-{args.policy}.metrics.jsonl"
    n = report.write_jsonl(metrics)
    print(f"wrote {metrics}: {n} metric records")
    print()
    print(top_stalls(report, stats, top=args.top))
    return 0


def cmd_leak(args) -> int:
    import json

    from repro.leakage import GADGETS, leak_observe_run, leak_run

    names = args.gadgets or sorted(GADGETS)
    for name in names:
        if name not in GADGETS:
            raise SystemExit(f"unknown gadget {name!r} "
                             f"(have: {', '.join(sorted(GADGETS))})")
    policies = POLICY_ORDER if args.policy == "all" else [args.policy]

    results = []
    for name in names:
        gadget = GADGETS[name]
        for policy in policies:
            if args.trace_dir:
                import os
                stats, obs_report, report, system = leak_observe_run(
                    gadget, policy)
                from repro.obs.chrome_trace import write_chrome_trace
                os.makedirs(args.trace_dir, exist_ok=True)
                out = os.path.join(args.trace_dir,
                                   f"{name}-{policy}.trace.json")
                write_chrome_trace(out, system, obs_report, stats,
                                   report)
                print(f"wrote {out}")
            else:
                stats, report, _system = leak_run(gadget, policy)
            results.append((name, policy, stats, report))

    if args.json:
        doc = {"gadgets": [
            {"gadget": name, "policy": policy, **stats.leakage}
            for name, policy, stats, _ in results]}
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")

    print(f"{'gadget':<14}{'policy':<18}{'leaks':>6}{'exposed':>9}"
          f"{'spec':>6}  leaked lines")
    # Leaked-line counts sum per gadget (each gadget is its own
    # experiment; two gadgets sharing a probe line are two leaks).
    totals: Dict[str, int] = {}
    for name, policy, stats, report in results:
        lines = ",".join(str(l) for l in report.leaked_lines) or "-"
        print(f"{name:<14}{policy:<18}{len(report.confirmed):>6}"
              f"{len(report.exposed):>9}"
              f"{report.speculative_performs:>6}  {lines}")
        totals[policy] = totals.get(policy, 0) + len(report.leaked_lines)
    if len(policies) > 1:
        print()
        for policy in policies:
            print(f"{policy:<18} {totals.get(policy, 0)} leaked line(s)")
        if "x86" in totals and "370-SLFSoS-key" in totals:
            x86 = totals["x86"]
            key = totals["370-SLFSoS-key"]
            verdict = "OK" if key < x86 else "VIOLATION"
            print(f"370-SLFSoS-key < x86: {key} < {x86} — {verdict}")
            if key >= x86:
                return 1
    return 0


def cmd_record(args) -> int:
    from repro.workloads.runner import cell_traces, resolved_length
    from repro.workloads.tracefile import save_workload
    length = resolved_length(args.name, args.length)
    traces, warm = cell_traces(args.name, args.cores, length, args.seed)
    save_workload(args.path, traces, warmup=warm,
                  meta={"benchmark": args.name, "seed": args.seed,
                        "length": length, "cores": args.cores})
    total = sum(len(t) for t in traces)
    print(f"wrote {args.path}: {len(traces)} cores, "
          f"{total} instructions (+warm-up)")
    return 0


def cmd_replay(args) -> int:
    from repro.workloads.tracefile import TraceFileError, load_workload
    try:
        traces, warmup, meta = load_workload(args.path)
    except (OSError, TraceFileError) as exc:
        raise SystemExit(str(exc))
    from repro.sim.config import SKYLAKE_LIKE
    if len(traces) > SKYLAKE_LIKE.cores:
        raise SystemExit(f"{args.path}: {len(traces)} cores, but the "
                         f"simulated system has {SKYLAKE_LIKE.cores}")
    obs = args.obs or bool(args.obs_out)
    warm = warmup if warmup else True
    if obs:
        from repro.obs.session import observe_run
        stats, report, _system = observe_run(traces, args.policy,
                                             warm_caches=warm)
    else:
        from repro.sim.system import simulate
        stats = simulate(traces, args.policy, warm_caches=warm)
    if args.json:
        print(stats.to_json(indent=2))
        if obs and args.obs_out:
            report.write_jsonl(args.obs_out)
        return 0
    total = stats.total
    origin = f" (recorded from {meta['benchmark']})" \
        if "benchmark" in meta else ""
    print(f"replayed {args.path}{origin} under {args.policy}:")
    print(f"  {stats.execution_cycles} cycles, "
          f"{total.retired_instructions} instructions")
    print(f"  forwarded {total.forwarded_pct:.2f}%  "
          f"gate stalls {total.gate_stalls_pct:.3f}%  "
          f"re-executed {total.reexecuted_pct:.3f}%")
    if obs:
        _emit_obs(report, stats, args.obs_out)
    return 0


def cmd_sweep(args) -> int:
    import json

    from repro.sweep import SweepJob, run_sweep
    from repro.sweep.cache import content_key
    from repro.sweep.runner import stderr_progress
    from repro.workloads.runner import normalized_times

    obs = args.obs or bool(args.obs_out)
    jobs = [SweepJob(name=name, policy=policy, cores=args.cores,
                     length=args.length, seed=args.seed, obs=obs)
            for name in args.names for policy in POLICY_ORDER]
    outcome = run_sweep(jobs, workers=args.jobs, cache=not args.no_cache,
                        cache_dir=args.cache_dir,
                        progress=stderr_progress if args.verbose else None,
                        timeout=args.timeout, retries=args.retries)
    width = len(POLICY_ORDER)
    for i, name in enumerate(args.names):
        chunk = outcome.results[i * width:(i + 1) * width]
        results = dict(zip(POLICY_ORDER, chunk))
        ok = {p: r for p, r in results.items() if r is not None}
        # Normalization needs the x86 baseline cell; without it the
        # surviving cells are still printed, just in raw cycles.
        norm = normalized_times(ok) if "x86" in ok else {}
        print(f"{name}: execution time normalized to x86")
        for policy in POLICY_ORDER:
            cell = results[policy]
            if cell is None:
                err = outcome.errors[i * width + POLICY_ORDER.index(policy)]
                print(f"  {policy:16s} FAILED: {err['type']}: "
                      f"{err['message']}")
                continue
            ratio = f"{norm[policy]:5.3f}x" if policy in norm else "  n/a "
            line = f"  {policy:16s} {cell.cycles:9d} cycles ({ratio})"
            cell_obs = outcome.obs[i * width
                                   + POLICY_ORDER.index(policy)]
            if obs and cell_obs:
                gate = cell_obs.get("gate", {})
                line += (f"  [gate intervals: "
                         f"{gate.get('intervals', 0)}]")
            print(line)
    if args.obs_out:
        with open(args.obs_out, "w") as fh:
            for job, cell_obs in zip(jobs, outcome.obs):
                fh.write(json.dumps({"name": job.name,
                                     "policy": job.policy,
                                     "obs": cell_obs}) + "\n")
        print(f"wrote {args.obs_out}: {len(jobs)} per-cell obs records")
    if args.out:
        payload = {
            "jobs": [{"name": j.name, "policy": j.policy, "cores": j.cores,
                      "length": j.length, "seed": j.seed} for j in jobs],
            "cycles": [None if r is None else r.cycles
                       for r in outcome.results],
            # The content key of each cell's whole stats payload, so a
            # reader can check every statistic, not just the cycles.
            "stats_keys": [None if r is None
                           else content_key(r.stats.to_dict())
                           for r in outcome.results],
            "errors": outcome.errors,
            "failed": outcome.failed,
            "interrupted": outcome.interrupted,
            "simulated": outcome.simulated,
            "cached": outcome.cached,
            "mode": outcome.mode,
            "workers": outcome.workers,
            "units": outcome.units,
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.out}")
    if args.verbose:
        print(f"({outcome.simulated} simulated, {outcome.cached} cached, "
              f"{outcome.failed} failed, {outcome.mode} with "
              f"{outcome.workers} worker(s) over {outcome.units} trace "
              f"unit(s), {outcome.elapsed:.1f}s)",
              file=sys.stderr)
    return 1 if (outcome.failed or outcome.interrupted) else 0


def cmd_chaos(args) -> int:
    import json

    from repro.models.conformance import battery_corpus, check_pipelines
    from repro.resilience import FaultSpec

    spec = FaultSpec(**{knob: getattr(args, knob)
                        for knob in DEFAULT_CHAOS_SPEC.to_dict()})
    progress = (lambda msg: print(msg, file=sys.stderr, flush=True)) \
        if args.verbose else None
    report = check_pipelines([case.program for case in battery_corpus()],
                             policies=tuple(args.policies or POLICY_ORDER),
                             trials=args.trials, seed=args.seed, spec=spec,
                             progress=progress)
    print(report.summary())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"wrote {args.json}")
    return 0 if report.ok else 1


def cmd_serve(args) -> int:
    import asyncio

    from repro.serve import HttpApi, ServeService

    note = (lambda msg: print(msg, file=sys.stderr, flush=True)) \
        if args.verbose else None
    service = ServeService(
        shards=args.shards, queue_limit=args.queue_limit,
        timeout=args.timeout, retries=args.retries, backoff=args.backoff,
        stuck_after=args.stuck_after, cache=not args.no_cache,
        cache_dir=args.cache_dir, cache_max_bytes=args.cache_max_bytes,
        on_note=note)
    api = HttpApi(service, host=args.host, port=args.port)

    def ready(port: int) -> None:
        # Machine-parseable: the SIGTERM tests and the CI smoke read
        # the bound port from this line (--port 0 means "pick one").
        print(f"repro-serve listening on http://{args.host}:{port}",
              flush=True)

    asyncio.run(api.run(ready=ready, drain_timeout=args.drain_timeout))
    print("repro-serve drained and stopped", flush=True)
    return 0


def _parse_submit_token(token: str, args) -> Dict:
    """``bench:NAME[:POLICY]`` / ``litmus:NAME[:MODEL+MODEL...]`` /
    ``leak:GADGET[:POLICY+POLICY...]`` / ``synth:SPACE[:CHUNK/CHUNKS]``
    → a job-request dict."""
    parts = token.split(":")
    if parts[0] == "synth":
        import re
        if len(parts) < 2 or len(parts) > 3 or not parts[1]:
            raise SystemExit(f"bad synth spec {token!r} "
                             f"(synth:SPACE[:CHUNK/CHUNKS], e.g. "
                             f"synth:2x3x2:0/8)")
        job = {"kind": "synth", "bounds": _parse_space(parts[1]).to_dict()}
        if len(parts) == 3:
            match = re.fullmatch(r"(\d+)/(\d+)", parts[2])
            if not match:
                raise SystemExit(f"bad synth chunk {parts[2]!r} "
                                 f"(want CHUNK/CHUNKS, e.g. 0/8)")
            job["chunk"] = int(match.group(1))
            job["chunks"] = int(match.group(2))
        return job
    if parts[0] == "leak":
        if len(parts) < 2 or len(parts) > 3 or not parts[1]:
            raise SystemExit(f"bad leak spec {token!r} "
                             f"(leak:GADGET[:POLICY+POLICY...])")
        job = {"kind": "leak", "gadget": parts[1]}
        if len(parts) == 3:
            job["policies"] = parts[2].split("+")
        return job
    if parts[0] == "litmus":
        if len(parts) < 2 or len(parts) > 3 or not parts[1]:
            raise SystemExit(f"bad litmus spec {token!r} "
                             f"(litmus:NAME[:MODEL+MODEL...])")
        job = {"kind": "litmus", "name": parts[1]}
        if len(parts) == 3:
            job["models"] = parts[2].split("+")
        return job
    if parts[0] == "bench":
        if len(parts) < 2 or len(parts) > 3 or not parts[1]:
            raise SystemExit(f"bad bench spec {token!r} "
                             f"(bench:NAME[:POLICY])")
        job = {"kind": "bench", "name": parts[1],
               "policy": parts[2] if len(parts) == 3 else args.policy,
               "cores": args.cores, "seed": args.seed}
        if args.length is not None:
            job["length"] = args.length
        return job
    raise SystemExit(f"job spec {token!r} must start with "
                     f"'bench:', 'litmus:', 'leak:' or 'synth:'")


def cmd_submit(args) -> int:
    import json

    from repro.serve import ServeClient, ServeError

    jobs: List[Dict] = []
    if args.file:
        with open(args.file) as fh:
            loaded = json.load(fh)
        if isinstance(loaded, dict):
            loaded = loaded.get("jobs", [loaded])
        if not isinstance(loaded, list):
            raise SystemExit(f"{args.file}: expected a list of job "
                             f"objects (or {{'jobs': [...]}})")
        jobs.extend(loaded)
    for token in args.specs:
        jobs.append(_parse_submit_token(token, args))
    if args.priority is not None:
        for job in jobs:
            job.setdefault("priority", args.priority)
    if not jobs:
        raise SystemExit("nothing to submit (give specs or --file)")

    client = ServeClient(args.url, timeout=args.http_timeout,
                         retries=args.http_retries)
    try:
        batch = client.submit_batch(jobs)
    except ServeError as exc:
        raise SystemExit(str(exc))
    docs = batch["jobs"]
    print(f"submitted {len(docs)} job(s): {batch['accepted']} accepted, "
          f"{batch['rejected']} rejected, {batch['invalid']} invalid")
    for doc in docs:
        if doc["state"] == "invalid":
            print(f"  INVALID: {doc['error']['message']}")
        elif doc["state"] == "rejected":
            print(f"  {doc['id']} REJECTED: "
                  f"{doc['rejection']['message']}")
        else:
            tag = " [cache]" if doc.get("cache_hit") else ""
            print(f"  {doc['id']} {doc['state']}{tag}")

    failures = batch["rejected"] + batch["invalid"]
    if args.wait:
        ids = [doc["id"] for doc in docs
               if doc["state"] in ("queued", "running", "done")]
        try:
            finished = client.wait_all(ids, deadline=args.deadline)
        except ServeError as exc:
            raise SystemExit(str(exc))
        docs = [finished.get(doc.get("id"), doc) for doc in docs]
        for doc in docs:
            if doc.get("state") == "failed":
                failures += 1
                print(f"  {doc['id']} FAILED: "
                      f"{doc['error']['type']}: {doc['error']['message']}")
        done = sum(doc.get("state") == "done" for doc in docs)
        print(f"finished: {done} done, "
              f"{sum(d.get('state') == 'failed' for d in docs)} failed")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"jobs": docs}, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 1 if failures else 0


def cmd_poll(args) -> int:
    import json

    from repro.serve import ServeClient, ServeError

    client = ServeClient(args.url, timeout=args.http_timeout,
                         retries=args.http_retries)
    try:
        if args.job_id == "healthz":
            print(json.dumps(client.healthz(), indent=2, sort_keys=True))
            return 0
        if args.job_id == "metrics":
            print(json.dumps(client.metrics(), indent=2, sort_keys=True))
            return 0
        status, doc = client.job(args.job_id, wait=args.wait)
    except ServeError as exc:
        raise SystemExit(str(exc))
    print(json.dumps(doc, indent=2, sort_keys=True))
    if status != 200:
        return 1
    return 0 if doc["state"] in ("done", "queued", "running") else 1


def cmd_cache(args) -> int:
    from repro.sweep.cache import ResultCache

    cache = ResultCache(args.cache_dir, max_bytes=args.max_bytes)
    stats = cache.stats()
    print(f"cache {stats['directory']}: {stats['entries']} entries, "
          f"{stats['total_bytes']} bytes"
          + (f" (bound: {stats['max_bytes']})"
             if stats["max_bytes"] is not None else ""))
    if args.gc:
        if cache.max_bytes is None:
            raise SystemExit("cache --gc needs --max-bytes (or "
                             "REPRO_SWEEP_CACHE_MAX)")
        removed, freed = cache.gc()
        print(f"gc: removed {removed} entry(ies), freed {freed} bytes")
    return 0


def _changed_files(base: str) -> "Tuple[List[str], List[str]]":
    """Python files differing from ``base`` (committed, staged or
    unstaged) plus untracked ones — the ``lint --changed`` file set.

    Returns ``(existing, missing)``: git names files that were deleted
    or renamed away since ``base``, which no longer exist on disk and
    cannot be linted — the caller skips those with a note rather than
    erroring.  Names are resolved against the repository root, not the
    current directory, so ``--changed`` works from any subdirectory.
    """
    import subprocess
    try:
        toplevel = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True)
        diff = subprocess.run(
            ["git", "diff", "--name-only", base],
            capture_output=True, text=True, check=True)
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard"],
            capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", "") or str(exc)
        raise SystemExit(f"--changed needs a git checkout with "
                         f"{base!r} resolvable: {detail.strip()}")
    root = toplevel.stdout.strip()
    names = sorted({
        os.path.abspath(os.path.join(root, name))
        for name in (diff.stdout.splitlines()
                     + untracked.stdout.splitlines())
        if name.endswith(".py")})
    existing = [name for name in names if os.path.isfile(name)]
    missing = [name for name in names if not os.path.isfile(name)]
    return existing, missing


def cmd_lint(args) -> int:
    from repro.lint import registered_rules, render_human, render_json, \
        run_lint

    if args.rules:
        for rule_id, rule in sorted(registered_rules().items()):
            print(f"{rule_id} [{rule.scope}]: {rule.summary}")
            print(f"    {rule.rationale}")
        return 0

    paths = args.paths or [os.path.dirname(os.path.abspath(
        sys.modules["repro"].__file__))]
    only_files = None
    if args.changed:
        existing, missing = _changed_files(args.base)
        for path in missing:
            print(f"lint: skipping {path} "
                  f"(renamed or deleted since {args.base})")
        only_files = set(existing)
    try:
        report = run_lint(paths, rules=args.rule or None,
                          only_files=only_files)
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(render_human(report))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(render_json(report) + "\n")
        print(f"wrote {args.json}")
    protected = report.suppressions_in(("sim", "cpu", "core")) \
        if args.strict else []
    for suppression in protected:
        print(f"{suppression.path}:{suppression.line}: strict: "
              f"suppression not permitted in sim/cpu/core "
              f"({', '.join(sorted(suppression.rules))})")
    return 0 if report.ok and not protected else 1


def _parse_space(token: str):
    """``TxOxA[f][r][a][tN]`` → :class:`SynthBounds` (e.g. ``2x3x2``,
    ``2x3x2f`` with fences, ``2x3x2rf`` with locked RMWs and fences,
    ``2x2x2a`` with acquire/release/lwfence, ``3x3x2t6`` capped at 6
    events total)."""
    import re

    from repro.synth import SynthBounds
    match = re.fullmatch(r"(\d+)x(\d+)x(\d+)([fra]*)(?:t(\d+))?", token)
    flags = match.group(4) if match else ""
    if not match or len(set(flags)) != len(flags):
        raise SystemExit(f"bad space {token!r} (want THREADSxOPSxADDRS"
                         f"[f][r][a][tN], e.g. 2x3x2, 2x3x2rf or "
                         f"3x3x2t6)")
    try:
        return SynthBounds(threads=int(match.group(1)),
                           max_ops=int(match.group(2)),
                           addresses=int(match.group(3)),
                           fences="f" in flags,
                           rmws="r" in flags,
                           acqrel="a" in flags,
                           max_total=int(match.group(5) or 0))
    except ValueError as exc:
        raise SystemExit(f"bad space {token!r}: {exc}")


def _parse_pairs(text: str) -> List[List[str]]:
    from repro.synth.space import LATTICE
    pairs = []
    for token in text.split(","):
        parts = token.split(":")
        if len(parts) != 2 or not all(p in LATTICE for p in parts):
            raise SystemExit(
                f"bad model pair {token!r} (want STRONG:WEAK from "
                f"{'/'.join(LATTICE)}, e.g. SC:x86)")
        if LATTICE.index(parts[0]) >= LATTICE.index(parts[1]):
            raise SystemExit(f"pair {token!r} is not (stronger:weaker)")
        pairs.append(parts)
    return pairs


def _synth_via_service(url: str, bounds, pairs: List[List[str]],
                       chunks: int, args):
    """Scatter one space as ``chunks`` synth jobs on a running service
    and merge the chunk results."""
    from repro.serve import ServeClient, ServeError
    from repro.synth import SynthResult, merge_results

    client = ServeClient(url, timeout=args.http_timeout,
                         retries=args.http_retries)
    jobs = [{"kind": "synth", "bounds": bounds.to_dict(), "pairs": pairs,
             "chunk": chunk, "chunks": chunks}
            for chunk in range(chunks)]
    try:
        batch = client.submit_batch(jobs)
        ids = [doc["id"] for doc in batch["jobs"]
               if doc["state"] in ("queued", "running", "done")]
        if len(ids) != len(jobs):
            bad = [doc for doc in batch["jobs"]
                   if doc["state"] not in ("queued", "running", "done")]
            raise SystemExit(f"service rejected {len(bad)} synth "
                             f"job(s): {bad[0].get('error') or bad[0]}")
        finished = client.wait_all(ids, deadline=args.deadline)
    except ServeError as exc:
        raise SystemExit(str(exc))
    payloads = []
    for job_id in ids:
        doc = finished[job_id]
        if doc.get("state") != "done":
            raise SystemExit(f"synth job {job_id} {doc.get('state')}: "
                             f"{doc.get('error')}")
        payloads.append(SynthResult.from_dict(doc["result"]))
    return merge_results(payloads)


def cmd_zoo(args) -> int:
    import json

    from repro.models import model_table
    from repro.models.conformance import battery_corpus, check, random_corpus

    header = ("model", "title", "relaxations", "formalizations",
              "stronger than")
    rows = [header] + [tuple(str(cell) for cell in row)
                       for row in model_table()]
    widths = [max(len(row[i]) for row in rows)
              for i in range(len(header))]
    print("the memory-model zoo (strongest first):")
    for row in rows:
        print("  " + "  ".join(cell.ljust(width) for cell, width
                               in zip(row, widths)).rstrip())
    print()

    battery = [case.program for case in battery_corpus()]
    report = check(battery)
    print(report.summary())
    for problem in report.problems:
        print(f"  {problem}")

    # The JSON block and the vocabulary of each random corpus: the full
    # event vocabulary, and loads, stores and fences alone.
    vocabularies = {
        "random": ("rmw/acq-rel", dict(allow_fences=True, allow_rmws=True,
                                       allow_acqrel=True)),
        "random_fences": ("fence", dict(allow_fences=True)),
    }
    randoms = {}
    for block, (label, vocabulary) in vocabularies.items():
        rand = randoms[block] = check(
            random_corpus(args.random, args.seed, **vocabulary))
        if args.random:
            disagreements = [r for r in rand.programs if not r.agree]
            print(f"axiomatic-vs-operational cross-check: "
                  f"{rand.programs_checked} random programs (seed "
                  f"{args.seed}, {label} vocabulary) — "
                  f"{len(disagreements)} disagreements")
            for problem in rand.problems:
                print(problem)

    races = [(program.name, race) for program in battery
             for race in find_races(program).races]
    print(f"store-atomicity races in the battery: {len(races)}")
    for name, race in races:
        print(f"  {name}: {race.shape} race, x86-allowed / "
              f"370-forbidden: {race.outcome}")

    if args.json:
        payload = {
            "models": [dict(zip(("name", "title", "relaxations",
                                 "formalizations", "stronger_than"), row))
                       for row in model_table()],
            "lattice": report.to_dict(),
            "races": [{"program": name, "shape": race.shape,
                       "outcome": str(race.outcome),
                       "cycle": [f"{e.src}--{e.kind}-->{e.dst}"
                                 for e in race.witness.edges]}
                      for name, race in races],
        }
        for block, rand in randoms.items():
            payload[block] = {
                "programs": args.random, "seed": args.seed,
                "reports": [r.to_dict() for r in rand.programs]}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")

    failed = any(rand.problems for rand in randoms.values())
    return 0 if report.ok and not failed else 1


def cmd_synth(args) -> int:
    import json
    import time

    from repro.litmus.battery import EXTRA_CASES as _EXTRA
    from repro.litmus.program import canonical_key
    from repro.litmus.tests import ALL_CASES as _ALL
    from repro.models.conformance import check
    from repro.synth import (battery_duplicates, case_name,
                             pool_distinguishers, search,
                             write_generated_module)

    spaces = [_parse_space(token) for token in args.spaces.split(",")]
    if args.pairs:
        pairs = _parse_pairs(args.pairs)
    else:
        from repro.synth.search import MODEL_PAIRS
        pairs = [list(pair) for pair in MODEL_PAIRS]
    hand_cases = _ALL + _EXTRA
    battery_keys = {canonical_key(case.program): case.program.name
                    for case in hand_cases}

    results = []
    started = time.monotonic()
    for bounds in spaces:
        if args.url:
            result = _synth_via_service(args.url, bounds, pairs,
                                        args.chunks, args)
        else:
            result = search(bounds,
                            pairs=[tuple(p) for p in pairs],
                            limit=args.limit)
        results.append(result)
        print(f"synth {bounds.describe()}: {result.enumerated} programs, "
              f"{result.judged} judged, {result.hits} hits, "
              f"{result.distinct} distinct"
              + (f", {len(result.lattice_errors)} LATTICE ERRORS"
                 if result.lattice_errors else ""))
    elapsed = time.monotonic() - started

    pooled = pool_distinguishers(results)
    rediscovered = [d for d in pooled if d.key in battery_keys]
    fresh = [d for d in pooled if d.key not in battery_keys]
    print(f"distinguishers: {len(pooled)} distinct "
          f"({len(rediscovered)} rediscover battery tests, "
          f"{len(fresh)} new) in {elapsed:.1f}s")
    for dist in rediscovered:
        print(f"  known {battery_keys[dist.key]} "
              f"[{dist.pair[0]} vs {dist.pair[1]}] key={dist.key}")
    for dist in fresh:
        print(f"  NEW {case_name(dist)} "
              f"[{dist.pair[0]} vs {dist.pair[1]}] "
              f"{dist.events} events (from {dist.events_before})")

    duplicates = battery_duplicates(hand_cases)
    for key, names in sorted(duplicates.items()):
        print(f"  battery duplicate: {', '.join(names)} share "
              f"canonical key {key}")

    mismatches: List[str] = []
    if not args.no_check:
        mismatches = check(dist.program for dist in pooled).problems
        print(f"oracle cross-check: {len(pooled)} programs x 2 oracles, "
              f"{len(mismatches)} mismatches")
        for mismatch in mismatches:
            print(f"  ORACLE MISMATCH {mismatch}")

    lattice_errors = [err for result in results
                      for err in result.lattice_errors]
    failed = bool(mismatches or lattice_errors)

    if args.json:
        payload = {
            "spaces": [{"bounds": r.bounds.to_dict(),
                        "enumerated": r.enumerated, "judged": r.judged,
                        "hits": r.hits, "distinct": r.distinct,
                        "dedupe_ratio": round(r.dedupe_ratio, 4)}
                       for r in results],
            "pairs": pairs,
            "elapsed_sec": round(elapsed, 3),
            "distinct": len(pooled),
            "rediscovered": sorted(battery_keys[d.key]
                                   for d in rediscovered),
            "new": [d.to_dict() for d in fresh],
            "battery_duplicates": {k: v for k, v in duplicates.items()},
            "oracle_mismatches": mismatches,
            "lattice_errors": lattice_errors,
            "ok": not failed,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")

    if args.promote:
        if args.no_check:
            raise SystemExit("--promote requires the oracle check "
                             "(drop --no-check)")
        if failed:
            raise SystemExit("refusing to promote with oracle "
                             "mismatches or lattice errors")
        out = args.out
        if out is None:
            import repro.litmus as _litmus_pkg
            out = os.path.join(
                os.path.dirname(os.path.abspath(_litmus_pkg.__file__)),
                "generated.py")
        write_generated_module(fresh, out)
        promoted = len({dist.key for dist in fresh})
        print(f"promoted {promoted} synthesized test(s) "
              f"({len(fresh)} pair witnesses) -> {out}")

    return 1 if failed else 0


# ----------------------------------------------------------------------

def _int_at_least(minimum: int, what: str) -> Callable[[str], int]:
    """An argparse type: an int of at least ``minimum``; anything else is
    a usage error (exit 2) naming ``what``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(
                f"expected {what}, got {text!r}")
        return value
    return parse


def _positive_seconds(text: str) -> float:
    """An argparse type: a positive number of seconds; anything else is
    a usage error (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"expected a positive number of seconds, got {text!r}")
    return value


def _fault_knob(knob: str, kind: type) -> Callable[[str], object]:
    """An argparse type: a value of ``kind`` that ``FaultSpec`` takes
    for ``knob``; anything else is a usage error (exit 2)."""
    from repro.resilience import FaultSpec

    def parse(text: str) -> object:
        value = kind(text)      # argparse: "invalid int value: 'x'"
        try:
            FaultSpec(**{knob: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return value
    parse.__name__ = kind.__name__
    return parse


def _port(text: str) -> int:
    """An argparse type: a TCP port, 0 (pick a free one) to 65535;
    anything else is a usage error (exit 2)."""
    if not text.isdigit() or int(text) > 65535:
        raise argparse.ArgumentTypeError(
            f"expected a TCP port from 0 to 65535, got {text!r}")
    return int(text)


def _add_workload_args(p: argparse.ArgumentParser, names: bool = False
                       ) -> None:
    """``name`` (``names``: one or more) and ``-c/-l/--seed`` of bench,
    trace, record and sweep.  An unknown benchmark, a core count the
    simulated system lacks or a length below 1 is a usage error
    (exit 2)."""
    def benchmark(name: str) -> str:
        from repro.workloads.profiles import PROFILES
        if name not in PROFILES:
            raise argparse.ArgumentTypeError(
                f"unknown benchmark {name!r} (see 'repro list')")
        return name

    def cores(text: str) -> int:
        from repro.sim.config import SKYLAKE_LIKE
        if not text.isdigit() or not 1 <= int(text) <= SKYLAKE_LIKE.cores:
            raise argparse.ArgumentTypeError(
                f"expected 1 to {SKYLAKE_LIKE.cores} cores, got {text!r}")
        return int(text)

    if names:
        p.add_argument("names", nargs="+", metavar="name", type=benchmark)
    else:
        p.add_argument("name", type=benchmark)
    p.add_argument("-c", "--cores", type=cores, default=8)
    p.add_argument("-l", "--length", default=None,
                   type=_int_at_least(1, "a positive instruction count"))
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Speculative Enforcement of Store Atomicity "
                    "(MICRO 2020) — reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="available tests/benchmarks") \
        .set_defaults(func=cmd_list)

    p = sub.add_parser("litmus", help="enumerate a litmus test")
    p.add_argument("name")
    p.add_argument("-m", "--models", nargs="*", choices=MODELS,
                   help="models to enumerate (default: all)")
    p.set_defaults(func=cmd_litmus)

    from repro.models import model_names
    p = sub.add_parser("explain", help="happens-before explanation")
    p.add_argument("name")
    p.add_argument("-m", "--model", default="370",
                   choices=model_names(axiomatic_only=True))
    p.add_argument("-w", "--witness", nargs="+", default=[],
                   help="witness conditions, e.g. r0_rx=1 mem_x=1")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("compare", help="370 vs x86 ConsistencyChecker")
    p.add_argument("name")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("run-file", help="run a litmus test from a file")
    p.add_argument("path")
    p.add_argument("-m", "--models", nargs="*", choices=MODELS)
    p.set_defaults(func=cmd_run_file)

    p = sub.add_parser("sample", help="litmus7-style sampling")
    p.add_argument("name")
    p.add_argument("-m", "--model", default="x86", choices=MODELS)
    p.add_argument("-n", "--runs", default=10_000,
                   type=_int_at_least(1, "a positive run count"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top", default=10,
                   type=_int_at_least(1, "a positive outcome count"))
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("bench", help="run one benchmark profile")
    _add_workload_args(p)
    p.add_argument("-p", "--policy", default="370-SLFSoS-key",
                   choices=POLICY_ORDER)
    p.add_argument("--json", action="store_true",
                   help="machine-readable stats (SystemStats.to_json)")
    p.add_argument("--obs", action="store_true",
                   help="attach the observability layer and print a "
                        "top-stalls summary")
    p.add_argument("--obs-out", default=None, metavar="PATH",
                   help="also write the obs metrics as JSONL "
                        "(implies --obs)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "trace",
        help="run one benchmark with full observability and emit a "
             "Perfetto-loadable Chrome trace + JSONL metrics")
    _add_workload_args(p)
    p.add_argument("-p", "--policy", default="370-SLFSoS-key",
                   choices=POLICY_ORDER)
    p.add_argument("-o", "--out", default=None,
                   help="Chrome trace JSON path "
                        "(default: NAME-POLICY.trace.json)")
    p.add_argument("--metrics", default=None,
                   help="metrics JSONL path "
                        "(default: NAME-POLICY.metrics.jsonl)")
    p.add_argument("--sample-interval", default=64,
                   type=_int_at_least(1, "a positive period"),
                   help="occupancy sampling period in cycles")
    p.add_argument("--top", default=5,
                   type=_int_at_least(1, "a positive interval count"),
                   help="gate intervals shown in the top-stalls summary")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "leak",
        help="run the Spectre gadget battery with taint-based leakage "
             "tracking and report transient leaks per policy")
    p.add_argument("gadgets", nargs="*", metavar="gadget",
                   help="gadget names (default: all)")
    p.add_argument("-p", "--policy", default="all",
                   choices=("all",) + tuple(POLICY_ORDER))
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the per-run leakage reports as JSON")
    p.add_argument("--trace-dir", default=None, metavar="DIR",
                   help="also emit a Perfetto trace with the leakage "
                        "track per gadget×policy run")
    p.set_defaults(func=cmd_leak)

    p = sub.add_parser("record", help="save a workload to a trace file")
    _add_workload_args(p)
    p.add_argument("path")
    p.set_defaults(func=cmd_record)

    p = sub.add_parser("replay", help="run a saved trace file")
    p.add_argument("path")
    p.add_argument("-p", "--policy", default="370-SLFSoS-key",
                   choices=POLICY_ORDER)
    p.add_argument("--json", action="store_true",
                   help="machine-readable stats (SystemStats.to_json)")
    p.add_argument("--obs", action="store_true",
                   help="attach the observability layer and print a "
                        "top-stalls summary")
    p.add_argument("--obs-out", default=None, metavar="PATH",
                   help="also write the obs metrics as JSONL "
                        "(implies --obs)")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "sweep",
        help="benchmarks under all five configurations "
             "(parallel across processes, results cached on disk)")
    _add_workload_args(p, names=True)
    p.add_argument("-j", "--jobs", default=None,
                   type=_int_at_least(1, "a positive worker count"),
                   help="worker processes (default: $REPRO_WORKERS "
                        "or the CPU count, capped at the number of "
                        "uncached cells; 1 runs in-process)")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and do not write the result cache")
    p.add_argument("--cache-dir", default=None,
                   help="result cache directory (default: "
                        "$REPRO_SWEEP_CACHE or .sweep-cache)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="progress and cache statistics on stderr")
    p.add_argument("--obs", action="store_true",
                   help="carry per-cell observability summaries "
                        "(histograms, gate intervals) in the results")
    p.add_argument("--obs-out", default=None, metavar="PATH",
                   help="write per-cell obs summaries as JSONL "
                        "(implies --obs)")
    p.add_argument("--timeout", type=_positive_seconds, default=None,
                   metavar="SEC",
                   help="per-job wall-clock budget in seconds; a cell "
                        "that blows it is a structured failure, not a "
                        "hung sweep")
    p.add_argument("--retries", default=0,
                   type=_int_at_least(0, "a retry count of 0 or more"),
                   help="extra attempts for failed cells (with "
                        "exponential backoff between rounds)")
    p.add_argument("-o", "--out", default=None, metavar="PATH",
                   help="write the full outcome, including per-cell "
                        "error payloads, as JSON")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "chaos",
        help="pipeline conformance under deterministic fault injection: "
             "every battery program the pipeline can express, with NoC "
             "jitter, forced evictions, spurious squashes and delayed SB "
             "drains — outcomes must stay within the memory models")
    p.add_argument("--trials", default=25,
                   type=_int_at_least(1, "a positive trial count"),
                   help="fault seeds per (program, policy) cell")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-p", "--policies", nargs="*", choices=POLICY_ORDER,
                   help="configurations to test (default: all five)")
    for knob, default in DEFAULT_CHAOS_SPEC.to_dict().items():
        p.add_argument("--" + knob.replace("_", "-"), default=default,
                       type=_fault_knob(knob, type(default)))
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the full chaos report as JSON")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="per-cell progress on stderr")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "serve",
        help="long-lived batch simulation service: HTTP JSON API over "
             "a sharded worker pool with admission control and a "
             "persistent result store (docs/SERVICE.md)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=8377,
                   help="TCP port (0 = pick a free one; the bound port "
                        "is printed on stdout)")
    p.add_argument("--shards", default=2,
                   type=_int_at_least(1, "a positive shard count"),
                   help="worker processes; the longest-idle one takes "
                        "the next queued job")
    p.add_argument("--queue-limit", default=64,
                   type=_int_at_least(1, "a positive job count"),
                   help="queued plus running jobs per shard before "
                        "admission control rejects (429)")
    p.add_argument("--timeout", type=_positive_seconds, default=None,
                   metavar="SEC",
                   help="per-job wall-clock budget (SIGALRM, as in "
                        "'sweep')")
    p.add_argument("--retries", default=1,
                   type=_int_at_least(0, "a retry count of 0 or more"),
                   help="extra attempts for failed jobs")
    p.add_argument("--backoff", type=float, default=0.5,
                   help="base retry backoff in seconds (exponential)")
    p.add_argument("--stuck-after", type=_positive_seconds, default=None,
                   metavar="SEC",
                   help="watchdog: recycle a shard whose in-flight job "
                        "exceeds this many wall-clock seconds")
    p.add_argument("--no-cache", action="store_true",
                   help="in-memory results only (no persistent store)")
    p.add_argument("--cache-dir", default=None,
                   help="result store directory (default: "
                        "$REPRO_SWEEP_CACHE or .sweep-cache — shared "
                        "with 'repro sweep')")
    p.add_argument("--cache-max-bytes", default=None,
                   type=_int_at_least(0, "a byte count of 0 or more"),
                   help="bound the persistent store (LRU pruning)")
    p.add_argument("--drain-timeout", type=float, default=None,
                   metavar="SEC",
                   help="on SIGTERM, give up draining after this long "
                        "(default: wait for the backlog)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="operational notes on stderr")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit jobs to a running 'repro serve' over HTTP")
    p.add_argument("specs", nargs="*", metavar="SPEC",
                   help="bench:NAME[:POLICY], "
                        "litmus:NAME[:MODEL+MODEL...], "
                        "leak:GADGET[:POLICY+...] or "
                        "synth:SPACE[:CHUNK/CHUNKS]")
    p.add_argument("--file", default=None, metavar="PATH",
                   help="JSON file with a list of job objects "
                        "(or {'jobs': [...]})")
    p.add_argument("--url", default="http://127.0.0.1:8377")
    p.add_argument("-p", "--policy", default="370-SLFSoS-key",
                   choices=POLICY_ORDER,
                   help="policy for bench specs without one")
    p.add_argument("-c", "--cores", type=int, default=8)
    p.add_argument("-l", "--length", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--priority", type=int, default=None,
                   help="queue priority (lower runs earlier)")
    p.add_argument("--wait", action="store_true",
                   help="poll every submitted job to completion")
    p.add_argument("--deadline", type=float, default=600.0,
                   help="--wait gives up after this many seconds")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the final job documents as JSON")
    p.add_argument("--http-timeout", type=float, default=60.0)
    p.add_argument("--http-retries", type=int, default=2,
                   help="client retries on 429/503 (honouring "
                        "Retry-After) and reset GET polls")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "poll",
        help="query one job (or 'healthz' / 'metrics') from a running "
             "'repro serve'")
    p.add_argument("job_id", metavar="JOB_ID")
    p.add_argument("--url", default="http://127.0.0.1:8377")
    p.add_argument("--wait", type=float, default=None, metavar="SEC",
                   help="long-poll up to SEC seconds for completion")
    p.add_argument("--http-timeout", type=float, default=90.0)
    p.add_argument("--http-retries", type=int, default=2,
                   help="client retries on 429/503 (honouring "
                        "Retry-After) and reset GET polls")
    p.set_defaults(func=cmd_poll)

    p = sub.add_parser(
        "cache",
        help="sweep/serve result-cache statistics and LRU garbage "
             "collection")
    p.add_argument("--cache-dir", default=None,
                   help="cache directory (default: $REPRO_SWEEP_CACHE "
                        "or .sweep-cache)")
    p.add_argument("--gc", action="store_true",
                   help="prune least-recently-used entries down to "
                        "--max-bytes")
    p.add_argument("--max-bytes", default=None,
                   type=_int_at_least(0, "a byte count of 0 or more"),
                   help="size bound for --gc (default: "
                        "$REPRO_SWEEP_CACHE_MAX)")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "lint",
        help="static determinism/zero-overhead discipline analysis: "
             "the AST rules (docs/STATIC_ANALYSIS.md)")
    p.add_argument("paths", nargs="*", metavar="path",
                   help="files or directories (default: the installed "
                        "repro package)")
    p.add_argument("--strict", action="store_true",
                   help="also fail on suppression comments inside "
                        "sim/cpu/core")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the machine-readable report as JSON")
    p.add_argument("--rule", action="append", default=None, metavar="ID",
                   help="run only this rule (repeatable)")
    p.add_argument("--rules", action="store_true",
                   help="list the registered rules and exit")
    p.add_argument("--changed", action="store_true",
                   help="restrict discipline rules to files differing "
                        "from --base (fast pre-commit mode)")
    p.add_argument("--base", default="main",
                   help="git ref for --changed (default: main)")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "zoo",
        help="the memory-model registry: print the model table, "
             "run the conformance check over the battery, and "
             "optionally over random programs, and report the "
             "battery's store-atomicity races (docs/MEMORY_MODELS.md)")
    p.add_argument("--random", default=0, metavar="N",
                   type=_int_at_least(0, "a program count of 0 or more"),
                   help="also check N seeded random programs drawn "
                        "with the full event vocabulary, and N drawn "
                        "from loads, stores and fences")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for --random program generation")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the model table, the lattice/oracle "
                        "reports and the races as JSON")
    p.set_defaults(func=cmd_zoo)

    p = sub.add_parser(
        "synth",
        help="exhaustive bounded litmus synthesis: enumerate small "
             "programs, keep model-pair distinguishers, minimize, "
             "check, optionally promote (docs/SYNTHESIS.md)")
    p.add_argument("--spaces", default="2x3x2", metavar="SPACES",
                   help="comma list of THREADSxOPSxADDRS[f][r][a][tN] "
                        "spaces (f = fences, r = locked RMWs, a = "
                        "acquire/release/lwfence, tN = total-event cap; "
                        "default 2x3x2)")
    p.add_argument("--pairs", default=None, metavar="PAIRS",
                   help="comma list of STRONG:WEAK model pairs "
                        "(default: every lattice pair among "
                        "SC/370/x86/WMM)")
    p.add_argument("--limit", default=0,
                   type=_int_at_least(0, "a witness count of 0 or more"),
                   help="stop a space after N distinct witnesses "
                        "(0 = exhaust it)")
    p.add_argument("--no-check", action="store_true",
                   help="skip the axiomatic-vs-operational check "
                        "(discovery only; --promote refuses this)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the synthesis report as JSON")
    p.add_argument("--promote", action="store_true",
                   help="write new distinguishers into the generated "
                        "battery module (litmus/generated.py)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="target for --promote (default: the installed "
                        "repro.litmus/generated.py)")
    p.add_argument("--url", default=None,
                   help="scatter the search over a running "
                        "'repro serve' instead of searching in-process")
    p.add_argument("--chunks", default=8,
                   type=_int_at_least(1, "a positive chunk count"),
                   help="chunks per space when using --url")
    p.add_argument("--deadline", type=float, default=600.0,
                   help="--url waits this long for chunk jobs")
    p.add_argument("--http-timeout", type=float, default=60.0)
    p.add_argument("--http-retries", type=int, default=2)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # here, so that a closed pipe raises below
    except BrokenPipeError:
        # The reader of stdout went away (``repro ... | head -1``).
        # Point stdout at devnull so that the exit-time flush cannot
        # raise again, as the Python docs' note on SIGPIPE does.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
