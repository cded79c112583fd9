"""Unit tests for the serve ResultStore (one-tier memoization + job
registry history bounds)."""

from repro.serve.jobs import (DONE, QUEUED, Job, LitmusSpec, next_job_id,
                              request_key)
from repro.serve.store import ResultStore


def _job(state=QUEUED):
    spec = LitmusSpec("mp", ("SC",))
    return Job(id=next_job_id(), kind="litmus", spec=spec,
               key=request_key(spec), state=state)


class TestResultTiers:
    def test_miss_then_hit_accounting(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        assert store.get("k" * 64) is None
        store.put("k" * 64, {"v": 1})
        assert store.get("k" * 64) == {"v": 1}
        assert (store.hits, store.misses, store.puts) == (1, 1, 1)
        assert store.hit_rate() == 0.5

    def test_disk_tier_survives_a_new_store(self, tmp_path):
        ResultStore(cache_dir=tmp_path).put("a" * 64, {"v": 2})
        fresh = ResultStore(cache_dir=tmp_path)
        assert fresh.get("a" * 64) == {"v": 2}

    def test_pruned_entry_is_a_miss(self, tmp_path):
        """The disk bound holds every result: once the LRU prunes an
        entry, no copy of it is served."""
        store = ResultStore(cache_dir=tmp_path, max_bytes=60)
        store.put("a" * 64, {"v": "x" * 40})
        store.put("b" * 64, {"v": "y" * 40})   # prunes "a"
        assert store.get("a" * 64) is None
        assert store.get("b" * 64) == {"v": "y" * 40}

    def test_memory_only_mode(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path, persistent=False)
        store.put("b" * 64, {"v": 3})
        assert store.disk is None
        assert store.get("b" * 64) == {"v": 3}
        assert not list(tmp_path.glob("*.json"))

    def test_shares_the_sweep_cache_namespace(self, tmp_path):
        from repro.sweep.cache import ResultCache
        ResultCache(tmp_path).put("c" * 64, {"v": 4})
        assert ResultStore(cache_dir=tmp_path).get("c" * 64) == {"v": 4}

    def test_flush_is_safe_either_way(self, tmp_path):
        ResultStore(cache_dir=tmp_path).flush()
        ResultStore(cache_dir=tmp_path, persistent=False).flush()


class TestJobRegistry:
    def test_register_and_lookup(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path, persistent=False)
        job = _job()
        store.register(job)
        assert store.job(job.id) is job
        assert store.job("job-999999") is None
        assert store.jobs_tracked == 1

    def test_history_evicts_oldest_finished_only(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path, persistent=False,
                            history=2)
        live = _job()                  # stays queued throughout
        store.register(live)
        finished = []
        for _ in range(4):
            job = _job()
            store.register(job)
            job.state = DONE
            store.finished(job)
            finished.append(job)
        # Bound: 2 finished kept; the live job is never evicted.
        assert store.job(live.id) is live
        kept = [j for j in finished if store.job(j.id) is not None]
        assert kept == finished[-2:]

    def test_live_jobs_never_evicted_even_over_budget(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path, persistent=False,
                            history=0)
        jobs = [_job() for _ in range(5)]
        for job in jobs:
            store.register(job)
        assert all(store.job(j.id) is j for j in jobs)
        for job in jobs:
            job.state = DONE
            store.finished(job)
        assert store.jobs_tracked == 0
