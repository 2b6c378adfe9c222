"""Artifact-cache behavior: hit/miss accounting, LRU, disk store."""

import json
import os
import time

import pytest

from repro.constraints import ConstraintSet, MaxGroupSize
from repro.service import ArtifactCache, LogRef, AbstractionJob, run_job
from repro.service.serialization import result_signature


def job_for(bound: int, log_spec: str = "running_example") -> AbstractionJob:
    return AbstractionJob(
        log=LogRef.builtin(log_spec),
        constraints=ConstraintSet([MaxGroupSize(bound)]),
    )


class TestArtifactTier:
    def test_miss_then_hit(self):
        cache = ArtifactCache()
        assert cache.get_artifacts(("d", "repeat", "compiled")) is None
        cache.put_artifacts(("d", "repeat", "compiled"), "bundle")
        assert cache.get_artifacts(("d", "repeat", "compiled")) == "bundle"
        assert cache.stats.artifacts.misses == 1
        assert cache.stats.artifacts.hits == 1
        assert cache.stats.artifacts.stores == 1

    def test_lru_eviction(self):
        cache = ArtifactCache(max_artifacts=1)
        cache.put_artifacts(("a",), 1)
        cache.put_artifacts(("b",), 2)
        assert cache.stats.artifacts.evictions == 1
        assert cache.get_artifacts(("a",)) is None
        assert cache.get_artifacts(("b",)) == 2

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ArtifactCache(max_artifacts=0)


class TestResultTier:
    def test_lru_keeps_recently_used(self, running_log):
        cache = ArtifactCache(max_results=2)
        results = {}
        for bound in (3, 4, 5):
            job = job_for(bound)
            results[bound], _ = run_job(job, cache)
            cache.get_result(job_for(3).fingerprint().full)  # keep 3 warm
        # bound=3 was refreshed, bound=4 is the LRU victim.
        assert cache.get_result(job_for(3).fingerprint().full) is not None
        assert cache.get_result(job_for(4).fingerprint().full) is None

    def test_run_job_accounting(self):
        cache = ArtifactCache()
        _, cached_a = run_job(job_for(3), cache)
        _, cached_b = run_job(job_for(4), cache)
        assert (cached_a, cached_b) == (False, False)
        # Two constraint sets on one log: artifacts built exactly once.
        assert cache.stats.artifact_builds == 1
        assert cache.stats.artifacts.hits == 1
        repeat, cached_repeat = run_job(job_for(3), cache)
        assert cached_repeat is True
        assert cache.stats.results.hits == 1

    def test_distinct_logs_build_distinct_artifacts(self):
        cache = ArtifactCache()
        run_job(job_for(5, "running_example"), cache)
        run_job(job_for(5, "loan:10"), cache)
        assert cache.stats.artifact_builds == 2


class TestDiskStore:
    def test_round_trip_through_disk(self, tmp_path):
        store = tmp_path / "store"
        cache = ArtifactCache(disk_dir=store)
        job = job_for(5)
        result, _ = run_job(job, cache)
        fingerprint = job.fingerprint().full

        fresh = ArtifactCache(disk_dir=store)
        loaded = fresh.get_result(fingerprint)
        assert loaded is not None
        assert result_signature(loaded) == result_signature(result)
        assert fresh.stats.disk.hits == 1
        # The memory tier was repopulated: second read is a memory hit.
        fresh.get_result(fingerprint)
        assert fresh.stats.results.hits == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = tmp_path / "store"
        cache = ArtifactCache(disk_dir=store)
        job = job_for(5)
        run_job(job, cache)
        fingerprint = job.fingerprint().full
        path = next(store.glob("*/*.json"))
        path.write_text("{not json", encoding="utf-8")

        fresh = ArtifactCache(disk_dir=store)
        assert fresh.get_result(fingerprint) is None
        assert fresh.stats.disk.misses == 1
        # The bad entry was dropped, so recomputing repairs the store.
        run_job(job, fresh)
        assert fresh.stats.disk.stores == 1
        repaired = ArtifactCache(disk_dir=store)
        assert repaired.get_result(fingerprint) is not None

    def test_entries_are_valid_json_files(self, tmp_path):
        store = tmp_path / "store"
        cache = ArtifactCache(disk_dir=store)
        run_job(job_for(5), cache)
        path = next(store.glob("*/*.json"))
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["schema"] == "gecco-result/1"

    def test_clear_keeps_disk_by_default(self, tmp_path):
        store = tmp_path / "store"
        cache = ArtifactCache(disk_dir=store)
        job = job_for(5)
        run_job(job, cache)
        cache.clear()
        assert len(cache) == 0
        assert cache.get_result(job.fingerprint().full) is not None  # disk hit
        cache.clear(memory_only=False)
        assert cache.get_result(job.fingerprint().full) is None

    def test_snapshot_shape(self):
        cache = ArtifactCache()
        run_job(job_for(5), cache)
        snap = cache.snapshot()
        assert snap["artifact_builds"] == 1
        assert snap["resident_results"] == 1
        assert {"hits", "misses", "stores", "evictions"} <= set(snap["results"])
        assert {"hits", "misses", "stores", "evictions"} <= set(snap["selection"])


class TestSelectionTier:
    def test_miss_store_hit(self):
        cache = ArtifactCache()
        assert cache.get_selection("k1") is None
        cache.put_selection("k1", "solution")
        assert cache.get_selection("k1") == "solution"
        assert cache.stats.selection.misses == 1
        assert cache.stats.selection.hits == 1

    def test_lru_eviction(self):
        cache = ArtifactCache(max_selections=2)
        cache.put_selection("a", 1)
        cache.put_selection("b", 2)
        cache.get_selection("a")  # refresh: b becomes the LRU victim
        cache.put_selection("c", 3)
        assert cache.stats.selection.evictions == 1
        assert cache.get_selection("b") is None
        assert cache.get_selection("a") == 1

    def test_populated_by_decomposed_jobs(self):
        cache = ArtifactCache()
        run_job(job_for(4), cache)
        assert cache.stats.selection.stores > 0
        assert cache.snapshot()["resident_selections"] > 0


class TestSelectionDiskStore:
    @staticmethod
    def _solution(objective=1.5, status="optimal"):
        from repro.selection2.portfolio import ComponentSolution

        return ComponentSolution(
            status=status,
            groups=(("a", "b"), ("c",)),
            objective=objective,
            nodes=3,
            backend="bnb",
        )

    def test_proved_cells_survive_restart(self, tmp_path):
        store = tmp_path / "store"
        cache = ArtifactCache(disk_dir=store)
        cache.put_selection("ab12", self._solution())
        assert (store / "selection" / "ab" / "ab12.json").exists()

        revived = ArtifactCache(disk_dir=store)
        assert revived.get_selection("ab12") == self._solution()
        assert revived.stats.disk.hits == 1
        # Now resident in memory: a second read never touches disk.
        assert revived.get_selection("ab12") == self._solution()
        assert revived.stats.selection.hits == 1

    def test_entries_with_legacy_canonical_key_still_read(self, tmp_path):
        from repro.experiments.persistence import read_json
        from repro.service.journal import seal, verify_seal

        store = tmp_path / "store"
        ArtifactCache(disk_dir=store).put_selection("ab12", self._solution())
        path = store / "selection" / "ab" / "ab12.json"
        payload = verify_seal(read_json(path))
        assert "canonical" not in payload
        payload["canonical"] = True  # as written by older releases
        path.write_text(json.dumps(seal(payload)), encoding="utf-8")
        assert ArtifactCache(disk_dir=store).get_selection("ab12") == self._solution()

    def test_timeouts_and_foreign_objects_never_persist(self, tmp_path):
        store = tmp_path / "store"
        cache = ArtifactCache(disk_dir=store)
        cache.put_selection("t1ab", self._solution(status="error"))
        cache.put_selection("t2ab", "not-a-solution")
        assert not list(store.glob("selection/*/*.json"))
        # ... but both still served from the memory tier.
        assert cache.get_selection("t1ab") is not None
        assert cache.get_selection("t2ab") == "not-a-solution"

    def test_ttl_and_corruption_handling(self, tmp_path):
        store = tmp_path / "store"
        cache = ArtifactCache(disk_dir=store, disk_ttl=60.0)
        cache.put_selection("ab12", self._solution())
        _age_disk_entries(store, 120.0)
        revived = ArtifactCache(disk_dir=store, disk_ttl=60.0)
        assert revived.get_selection("ab12") is None
        assert not (store / "selection" / "ab" / "ab12.json").exists()

        cache.put_selection("cd34", self._solution(objective=2.0))
        path = store / "selection" / "cd" / "cd34.json"
        path.write_text("{broken", encoding="utf-8")
        fresh = ArtifactCache(disk_dir=store)
        assert fresh.get_selection("cd34") is None
        assert not path.exists()

    def test_budgets_cover_selection_entries(self, tmp_path):
        store = tmp_path / "store"
        cache = ArtifactCache(disk_dir=store, disk_max_entries=2)
        for index in range(5):
            cache.put_selection(f"k{index}ab", self._solution(float(index)))
        assert len(list(store.glob("selection/*/*.json"))) == 2
        assert cache.stats.disk.evictions == 3

    def test_under_budget_puts_skip_the_enforcement_sweep(self, tmp_path):
        # Decomposed runs store many tiny proved cells; while clearly
        # under budget only the estimate-seeding sweep may glob+stat.
        store = tmp_path / "store"
        cache = ArtifactCache(disk_dir=store, disk_max_entries=1000)
        sweeps = 0
        original = cache._disk_entries

        def counting(tier=None):
            nonlocal sweeps
            sweeps += 1
            yield from original(tier)

        cache._disk_entries = counting
        for index in range(50):
            cache.put_selection(f"k{index:03d}", self._solution(float(index)))
        assert len(list(store.glob("selection/*/*.json"))) == 50
        assert sweeps == 1

    def test_clear_disk_drops_selection_entries(self, tmp_path):
        store = tmp_path / "store"
        cache = ArtifactCache(disk_dir=store)
        cache.put_selection("ab12", self._solution())
        cache.clear(memory_only=False)
        assert not list(store.glob("selection/*/*.json"))

    def test_sweeps_reuse_persisted_cells_across_restarts(self, tmp_path):
        store = tmp_path / "store"
        first = ArtifactCache(disk_dir=store)
        run_job(job_for(4), first)
        persisted = len(list(store.glob("selection/*/*.json")))
        assert persisted > 0

        revived = ArtifactCache(disk_dir=store)
        run_job(job_for(4), revived)
        assert revived.stats.disk.hits >= 1


def _age_disk_entries(store, seconds):
    """Backdate every disk entry's LRU/TTL clock by ``seconds``."""
    stamp = time.time() - seconds
    for pattern in ("*/*.json", "selection/*/*.json"):
        for path in store.glob(pattern):
            os.utime(path, (stamp, stamp))


class TestDiskBudgets:
    def test_ttl_expires_idle_entries(self, tmp_path):
        store = tmp_path / "store"
        cache = ArtifactCache(disk_dir=store, disk_ttl=60.0)
        job = job_for(5)
        run_job(job, cache)
        fingerprint = job.fingerprint().full
        _age_disk_entries(store, 120.0)

        fresh = ArtifactCache(disk_dir=store, disk_ttl=60.0)
        assert fresh.get_result(fingerprint) is None
        assert fresh.stats.disk.misses == 1
        assert fresh.stats.disk.evictions == 1
        assert not list(store.glob("*/*.json"))

    def test_disk_hit_refreshes_ttl_clock(self, tmp_path):
        store = tmp_path / "store"
        cache = ArtifactCache(disk_dir=store, disk_ttl=3600.0)
        job = job_for(5)
        run_job(job, cache)
        _age_disk_entries(store, 1800.0)

        fresh = ArtifactCache(disk_dir=store, disk_ttl=3600.0)
        assert fresh.get_result(job.fingerprint().full) is not None
        path = next(store.glob("*/*.json"))
        assert time.time() - path.stat().st_mtime < 60.0  # clock refreshed

    def test_max_entries_evicts_least_recently_used(self, tmp_path):
        store = tmp_path / "store"
        cache = ArtifactCache(disk_dir=store, disk_max_entries=2)
        jobs = [job_for(bound) for bound in (3, 4, 5)]
        for position, job in enumerate(jobs):
            run_job(job, cache)
            # Strictly order the entries' recency clocks.
            path = cache._disk_path(job.fingerprint().full)
            if path.exists():
                stamp = time.time() - (100 - position)
                os.utime(path, (stamp, stamp))
        assert len(list(store.glob("*/*.json"))) == 2
        assert cache.stats.disk.evictions >= 1
        # The oldest entry (bound=3) was the victim.
        fresh = ArtifactCache(disk_dir=store)
        assert fresh.get_result(jobs[0].fingerprint().full) is None
        assert fresh.get_result(jobs[2].fingerprint().full) is not None

    def test_max_bytes_budget(self, tmp_path):
        store = tmp_path / "store"
        unbounded = ArtifactCache(disk_dir=store)
        run_job(job_for(5), unbounded)
        entry_size = next(store.glob("*/*.json")).stat().st_size
        unbounded.clear(memory_only=False)

        cache = ArtifactCache(disk_dir=store, disk_max_bytes=int(entry_size * 1.5))
        for bound in (3, 4, 5):
            run_job(job_for(bound), cache)
        assert len(list(store.glob("*/*.json"))) == 1
        assert cache.stats.disk.evictions == 2

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            ArtifactCache(disk_ttl=0)
        with pytest.raises(ValueError):
            ArtifactCache(disk_max_entries=0)
        with pytest.raises(ValueError):
            ArtifactCache(max_selections=0)
