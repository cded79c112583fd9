"""Synthesis throughput benchmark: exhaustive enumeration, two ways.

Measures the ``repro.synth`` pipeline on the 2-thread, <=3-event,
2-address space (every rf/co candidate of every program judged under
every axiomatic model: SC, 370, x86 and WMM):

* **serial** — one in-process :func:`repro.synth.search` pass
  (programs/sec, distinguishers found, canonical-dedupe ratio);
* **service** — the same space scattered as chunked ``synth`` jobs over
  the real HTTP API and merged back, byte-identical to the serial
  result (serial-vs-serve speedup, cold and warm);
* **enlarged** — a serial pass over the extended-vocabulary space
  (locked RMWs + acquire/release/lwfence, the ``2x2x2ra`` token), so
  the recorded programs/sec tracks the richer event kinds too.

Run standalone (CI smoke) to record ``BENCH_synth.json``:

    PYTHONPATH=src python benchmarks/bench_synth.py

or under pytest for the assertion-only version:

    PYTHONPATH=src python -m pytest benchmarks/bench_synth.py
"""

import asyncio
import json
import pathlib
import tempfile
import threading
import time

from repro.serve.api import HttpApi, ServeService
from repro.serve.client import ServeClient
from repro.synth import SynthResult, merge_results, search
from repro.synth.space import SynthBounds, count_programs

BOUNDS = SynthBounds(threads=2, max_ops=3, addresses=2)
ENLARGED = SynthBounds(threads=2, max_ops=2, addresses=2,
                       rmws=True, acqrel=True)
CHUNKS = 4
SHARDS = 4

RESULT_FILE = pathlib.Path(__file__).resolve().parent.parent \
    / "BENCH_synth.json"


class _Server:
    """The benchmark's in-process server (HTTP on a daemon thread)."""

    def __init__(self, cache_dir):
        self.cache_dir = cache_dir
        self.service = None
        self.api = None
        self._loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self.service = ServeService(shards=SHARDS, cache_dir=self.cache_dir)
        self.api = HttpApi(self.service, port=0)
        self._loop = asyncio.get_running_loop()
        await self.api.start()
        self._ready.set()
        await self.api._shutdown.wait()
        await self.api.stop(drain_timeout=120)

    def __enter__(self):
        self._thread.start()
        self._ready.wait(timeout=15)
        return self

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self.api.request_shutdown)
        self._thread.join(timeout=120)

    def client(self):
        return ServeClient(f"http://127.0.0.1:{self.api.port}",
                           timeout=300)


def _requests():
    return [{"kind": "synth", "bounds": BOUNDS.to_dict(),
             "chunk": chunk, "chunks": CHUNKS}
            for chunk in range(CHUNKS)]


def _timed_scatter(client):
    t0 = time.perf_counter()
    batch = client.submit_batch(_requests())
    ids = [doc["id"] for doc in batch["jobs"]]
    docs = client.wait_all(ids, deadline=600)
    elapsed = time.perf_counter() - t0
    states = [docs[i]["state"] for i in ids]
    parts = [SynthResult.from_dict(docs[i]["result"]) for i in ids]
    hits = sum(docs[i].get("cache_hit", False) for i in ids)
    return elapsed, states, merge_results(parts), hits


def measure():
    """Serial vs scattered synthesis over the same space."""
    t0 = time.perf_counter()
    serial = search(BOUNDS)
    serial_s = time.perf_counter() - t0

    with tempfile.TemporaryDirectory() as cache_dir, \
            _Server(cache_dir) as server:
        client = server.client()
        cold_s, cold_states, merged, _ = _timed_scatter(client)
        warm_s, warm_states, rewarmed, warm_hits = _timed_scatter(client)

    identical = (merged.to_dict() == serial.to_dict()
                 == rewarmed.to_dict())

    t0 = time.perf_counter()
    enlarged = search(ENLARGED)
    enlarged_s = time.perf_counter() - t0

    return {
        "space": BOUNDS.describe(),
        "programs": count_programs(BOUNDS),
        "chunks": CHUNKS,
        "shards": SHARDS,
        "all_done": (cold_states.count("done") == CHUNKS
                     and warm_states.count("done") == CHUNKS),
        "merged_equals_serial": identical,
        "enumerated": serial.enumerated,
        "judged": serial.judged,
        "hits": serial.hits,
        "distinct": serial.distinct,
        "dedupe_ratio": round(serial.dedupe_ratio, 4),
        "serial_seconds": round(serial_s, 4),
        "serial_programs_per_sec": round(serial.enumerated / serial_s,
                                         1),
        "serve_cold_seconds": round(cold_s, 4),
        "serve_cold_programs_per_sec": round(serial.enumerated / cold_s,
                                             1),
        "serve_cold_speedup": round(serial_s / cold_s, 2),
        "serve_warm_seconds": round(warm_s, 4),
        "serve_warm_cache_hits": warm_hits,
        "serve_warm_speedup": round(serial_s / warm_s, 2),
        "enlarged_space": ENLARGED.describe(),
        "enlarged_programs": count_programs(ENLARGED),
        "enlarged_judged": enlarged.judged,
        "enlarged_hits": enlarged.hits,
        "enlarged_distinct": enlarged.distinct,
        "enlarged_lattice_errors": len(enlarged.lattice_errors),
        "enlarged_seconds": round(enlarged_s, 4),
        "enlarged_programs_per_sec": round(
            enlarged.enumerated / enlarged_s, 1),
    }


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------

def test_synth_scatter_matches_serial():
    result = measure()
    assert result["all_done"], result
    assert result["merged_equals_serial"], result
    assert result["distinct"] >= 1, result
    # The warm pass answers every chunk from the store.
    assert result["serve_warm_cache_hits"] == CHUNKS, result
    # The extended-vocabulary space must stay lattice-clean and keep
    # finding witnesses (WMM pairs have plenty).
    assert result["enlarged_lattice_errors"] == 0, result
    assert result["enlarged_distinct"] >= 1, result


# ----------------------------------------------------------------------
# CI smoke: record programs/sec for trajectory tracking
# ----------------------------------------------------------------------

def main():
    result = measure()
    RESULT_FILE.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    if not result["all_done"]:
        raise SystemExit("synth benchmark: not every chunk finished")
    if not result["merged_equals_serial"]:
        raise SystemExit(
            "synth benchmark: scattered merge diverged from the "
            "serial search")
    print(f"synth: serial {result['serial_programs_per_sec']} "
          f"programs/s, scattered {result['serve_cold_programs_per_sec']}"
          f" programs/s ({result['serve_cold_speedup']}x cold, "
          f"{result['serve_warm_speedup']}x warm) over "
          f"{result['programs']} programs, {result['distinct']} "
          f"distinct distinguishers; enlarged space "
          f"{result['enlarged_programs_per_sec']} programs/s over "
          f"{result['enlarged_programs']} programs, "
          f"{result['enlarged_distinct']} distinct")


if __name__ == "__main__":
    main()
