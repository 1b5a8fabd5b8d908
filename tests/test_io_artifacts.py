"""Tests for repro.io.artifacts.

The artifact cache must treat every corruption mode as a miss (never a
crash), survive concurrent writers racing on one key, generate at most
once under get_or_create races, and orphan old entries on a version
bump.  Its one entry reader must agree with the scrubber and the strict
read on every damaged file, and read each entry once.
"""

import io
import json
import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IntegrityError
from repro.integrity import classify_entry
from repro.io.artifacts import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactCache,
    artifact_key,
    body_digest,
)
from repro.io.jsonl import write_jsonl
from repro.obs.metrics import MetricsRegistry, use_metrics

CONFIG = {"n": 3, "name": "squares"}


def squares(n=3):
    return [{"i": i, "sq": i * i} for i in range(n)]


#: Ways an entry file's bytes die, for the damage properties.
DAMAGE_MODES = ("truncate", "flip", "append", "duplicate", "blank")


def damaged(data: bytes, mode: str, where: int, mask: int) -> bytes:
    """``data`` with one :data:`DAMAGE_MODES` damage placed by ``where``:
    a cut, an XOR-flipped byte, an appended record, or a duplicated or
    blank line."""
    lines = data.splitlines(keepends=True)
    line = where % len(lines)
    if mode == "truncate":
        return data[: where % len(data)]
    if mode == "flip":
        flipped = bytearray(data)
        flipped[where % len(data)] ^= mask
        return bytes(flipped)
    if mode == "append":
        return data + json.dumps({"i": where}).encode() + b"\n"
    if mode == "duplicate":
        return b"".join(lines[: line + 1] + lines[line:])
    return b"".join(lines[:line] + [b"\n"] + lines[line:])


class TestKeying:
    def test_key_is_stable(self):
        assert artifact_key("k", CONFIG, 1) == artifact_key("k", dict(CONFIG), 1)

    def test_key_varies_with_each_component(self):
        base = artifact_key("k", CONFIG, 1)
        assert artifact_key("other", CONFIG, 1) != base
        assert artifact_key("k", {"n": 4, "name": "squares"}, 1) != base
        assert artifact_key("k", CONFIG, 2) != base

    def test_key_ignores_dict_order(self):
        assert artifact_key("k", {"a": 1, "b": 2}, 1) == artifact_key(
            "k", {"b": 2, "a": 1}, 1
        )


class TestHitMiss:
    def test_empty_cache_misses(self, tmp_path):
        assert ArtifactCache(tmp_path).get("squares", CONFIG) is None

    def test_put_then_get_roundtrips(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("squares", CONFIG, squares())
        assert cache.get("squares", CONFIG) == squares()

    def test_different_config_misses(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("squares", CONFIG, squares())
        assert cache.get("squares", {"n": 4, "name": "squares"}) is None

    def test_hit_and_miss_counted(self, tmp_path):
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            cache = ArtifactCache(tmp_path)
            cache.get("squares", CONFIG)
            cache.put("squares", CONFIG, squares())
            cache.get("squares", CONFIG)
        counters = metrics.snapshot()["counters"]
        assert counters["artifacts.misses"] == 1
        assert counters["artifacts.hits"] == 1
        assert counters["artifacts.writes"] == 1

    def test_entry_is_inspectable_jsonl(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.put("squares", CONFIG, squares())
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["artifact"] == "squares"
        assert header["count"] == 3
        assert [json.loads(line) for line in lines[1:]] == squares()

    def test_entry_bytes_equal_the_jsonl_writer(self, tmp_path):
        records = squares(4) + [{"text": "naïve — ünïcode", "nested": {"b": 1, "a": [2]}}]
        expected = b"".join(
            (json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n").encode("utf-8")
            for record in records
        )
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            path = ArtifactCache(tmp_path / "cache").put("squares", CONFIG, records)
        header = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert header["sha256"] == body_digest(records)
        reference = tmp_path / "reference.jsonl"
        write_jsonl(reference, [header] + records)
        assert path.read_bytes() == reference.read_bytes()
        assert path.read_bytes().split(b"\n", 1)[1] == expected
        counters = metrics.snapshot()["counters"]
        assert counters["io.jsonl.rows_written"] == len(records) + 1
        assert counters["artifacts.writes"] == 1


class TestCorruption:
    """A damaged entry is regenerated, never raised."""

    def _put(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        return cache, cache.put("squares", CONFIG, squares())

    def test_truncated_file_is_a_miss(self, tmp_path):
        cache, path = self._put(tmp_path)
        full = path.read_text()
        path.write_text(full[: len(full) // 2])
        assert cache.get("squares", CONFIG) is None

    def test_malformed_json_is_a_miss(self, tmp_path):
        cache, path = self._put(tmp_path)
        path.write_text("not json at all\n")
        assert cache.get("squares", CONFIG) is None

    def test_empty_file_is_a_miss(self, tmp_path):
        cache, path = self._put(tmp_path)
        path.write_text("")
        assert cache.get("squares", CONFIG) is None

    def test_header_count_mismatch_is_a_miss(self, tmp_path):
        cache, path = self._put(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one body row
        assert cache.get("squares", CONFIG) is None

    def test_header_kind_mismatch_is_a_miss(self, tmp_path):
        cache, path = self._put(tmp_path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["artifact"] = "cubes"
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        assert cache.get("squares", CONFIG) is None

    def test_corruption_counted(self, tmp_path):
        cache, path = self._put(tmp_path)
        path.write_text("garbage\n")
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            assert cache.get("squares", CONFIG) is None
        assert metrics.snapshot()["counters"]["artifacts.corrupt"] == 1

    def test_regeneration_overwrites_corrupt_entry(self, tmp_path):
        cache, path = self._put(tmp_path)
        path.write_text("garbage\n")
        assert cache.get_or_create("squares", CONFIG, squares) == squares()
        assert cache.get("squares", CONFIG) == squares()


class TestOneReader:
    """get, read_verified and the scrubber share one verified read."""

    def test_get_opens_the_entry_once(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path)
        path = cache.put("squares", CONFIG, squares())
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if str(file) == str(path):
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)
        assert cache.get("squares", CONFIG) == squares()
        assert len(opened) == 1

    @pytest.mark.parametrize("damage, expected", [
        # One bit inside a string value: every line still parses.
        (lambda data: data.replace(b'"sq": 4', b'"sq": 5'), "bit_flipped"),
        (lambda data: data[:-3], "truncated"),
    ], ids=["flipped_bit", "truncation"])
    def test_read_verified_reports_the_damage_kind(self, tmp_path, damage, expected):
        cache = ArtifactCache(tmp_path)
        path = cache.put("squares", CONFIG, squares())
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(IntegrityError) as excinfo:
            cache.read_verified("squares", CONFIG)
        assert excinfo.value.damage == expected
        assert "\n" not in str(excinfo.value)

    def test_read_verified_reports_an_absent_entry_as_missing(self, tmp_path):
        with pytest.raises(IntegrityError) as excinfo:
            ArtifactCache(tmp_path).read_verified("squares", CONFIG)
        assert excinfo.value.damage == "missing"

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 4),
        mode=st.sampled_from(DAMAGE_MODES),
        where=st.integers(0, 10**6),
        mask=st.integers(1, 255),
    )
    def test_damaged_entries_read_alike(self, tmp_path_factory, n, mode, where, mask):
        cache = ArtifactCache(tmp_path_factory.mktemp("cache"), sweep=False)
        path = cache.put("squares", CONFIG, squares(n))
        path.write_bytes(damaged(path.read_bytes(), mode, where, mask))

        records = cache.get("squares", CONFIG)
        damage, _, _ = classify_entry(path)
        assert records in (None, squares(n))
        assert (damage is None) == (records is not None)
        if damage is None:
            assert cache.read_verified("squares", CONFIG) == squares(n)
        else:
            with pytest.raises(IntegrityError) as excinfo:
                cache.read_verified("squares", CONFIG)
            assert excinfo.value.damage == damage


class TestGetOrCreate:
    def test_factory_called_once(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        calls = []

        def factory():
            calls.append(1)
            return squares()

        assert cache.get_or_create("squares", CONFIG, factory) == squares()
        assert cache.get_or_create("squares", CONFIG, factory) == squares()
        assert len(calls) == 1


class TestVersioning:
    def test_version_bump_orphans_old_entries(self, tmp_path):
        old = ArtifactCache(tmp_path, version=ARTIFACT_FORMAT_VERSION)
        old.put("squares", CONFIG, squares())
        bumped = ArtifactCache(tmp_path, version=ARTIFACT_FORMAT_VERSION + 1)
        assert bumped.get("squares", CONFIG) is None
        # the old reader still sees its entry
        assert old.get("squares", CONFIG) == squares()

    def test_invalidate_kind(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("squares", CONFIG, squares())
        cache.put("cubes", CONFIG, squares())
        assert cache.invalidate("squares") == 1
        assert cache.get("squares", CONFIG) is None
        assert cache.get("cubes", CONFIG) == squares()

    def test_invalidate_all(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("squares", CONFIG, squares())
        cache.put("cubes", CONFIG, squares())
        assert cache.invalidate() == 2
        assert cache.get("squares", CONFIG) is None
        assert cache.get("cubes", CONFIG) is None

    def test_invalidate_missing_root_is_zero(self, tmp_path):
        assert ArtifactCache(tmp_path / "nope").invalidate() == 0


def _racing_writer(root, worker_id, barrier, results):
    cache = ArtifactCache(root)
    barrier.wait()
    cache.put("race", CONFIG, [{"worker": worker_id, "i": i} for i in range(50)])
    results.put(worker_id)


def _racing_creator(root, worker_id, barrier, results):
    cache = ArtifactCache(root)
    barrier.wait()
    records = cache.get_or_create(
        "race", CONFIG, lambda: [{"creator": worker_id, "i": i} for i in range(50)]
    )
    results.put(records[0]["creator"])


class TestConcurrency:
    def test_concurrent_writers_leave_a_valid_entry(self, tmp_path):
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(4)
        results = context.Queue()
        procs = [
            context.Process(
                target=_racing_writer, args=(str(tmp_path), i, barrier, results)
            )
            for i in range(4)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        records = ArtifactCache(tmp_path).get("race", CONFIG)
        assert records is not None and len(records) == 50
        # one writer's file won wholesale — rows are never interleaved
        winners = {row["worker"] for row in records}
        assert len(winners) == 1

    def test_racing_get_or_create_generates_once(self, tmp_path):
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(4)
        results = context.Queue()
        procs = [
            context.Process(
                target=_racing_creator, args=(str(tmp_path), i, barrier, results)
            )
            for i in range(4)
        ]
        for proc in procs:
            proc.start()
        creators = {results.get(timeout=30) for _ in procs}
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        # every process observed the same creator's records
        assert len(creators) == 1


class TestLockTimeout:
    """A wedged lock holder degrades get_or_create, never freezes it."""

    def _hold_lock(self, cache, kind, config):
        """Take the per-key flock the way a wedged process would."""
        import fcntl

        lock_path = cache.path_for(kind, config).with_suffix(".lock")
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        handle = lock_path.open("a")
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        return handle

    def test_wedged_holder_times_out_with_context(self, tmp_path):
        from repro.errors import CacheLockTimeout

        cache = ArtifactCache(tmp_path, lock_timeout=0.15)
        holder = self._hold_lock(cache, "slow", CONFIG)
        try:
            with pytest.raises(CacheLockTimeout) as excinfo:
                with cache._key_lock("slow", CONFIG):
                    pass  # pragma: no cover - never acquired
        finally:
            holder.close()
        assert excinfo.value.timeout == 0.15
        assert excinfo.value.lock_path.endswith(".lock")

    def test_get_or_create_falls_back_to_uncached_compute(self, tmp_path):
        metrics = MetricsRegistry()
        cache = ArtifactCache(tmp_path, lock_timeout=0.15)
        holder = self._hold_lock(cache, "slow", CONFIG)
        calls = []

        def factory():
            calls.append(1)
            return squares()

        try:
            with use_metrics(metrics):
                records = cache.get_or_create("slow", CONFIG, factory)
        finally:
            holder.close()
        assert records == squares()
        assert calls == [1]
        counts = metrics.snapshot()["counters"]
        assert counts["artifacts.lock_timeouts"] == 1
        # the entry was NOT written: the wedged holder may still be
        # mid-generation, and a half-baked overwrite would be worse
        assert not cache.path_for("slow", CONFIG).exists()

    def test_released_lock_resumes_normal_caching(self, tmp_path):
        cache = ArtifactCache(tmp_path, lock_timeout=0.15)
        holder = self._hold_lock(cache, "slow", CONFIG)
        cache.get_or_create("slow", CONFIG, squares)  # timed-out fallback
        holder.close()  # the wedged holder dies; the lock frees
        records = cache.get_or_create("slow", CONFIG, squares)
        assert records == squares()
        assert cache.path_for("slow", CONFIG).exists()

    def test_factory_errors_are_not_mistaken_for_timeouts(self, tmp_path):
        cache = ArtifactCache(tmp_path, lock_timeout=0.15)

        def factory():
            raise RuntimeError("factory bug, not a lock problem")

        with pytest.raises(RuntimeError, match="factory bug"):
            cache.get_or_create("k", CONFIG, factory)

    def test_uncontended_lock_acquires_immediately(self, tmp_path):
        import time

        cache = ArtifactCache(tmp_path, lock_timeout=0.15)
        started = time.monotonic()
        with cache._key_lock("k", CONFIG):
            pass
        assert time.monotonic() - started < 0.1
