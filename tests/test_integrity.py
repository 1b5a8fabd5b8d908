"""Tests for repro.integrity — scrub/repair, snapshots, and the CLI.

The robustness contract under test:

- corrupt-then-repair round trip: damage K shards of a cached corpus,
  prove the repairer regenerates **exactly those K** byte-identically
  (intact entries untouched) and the merged corpus fingerprint is
  restored bit-for-bit — at generation workers 1 and 2;
- snapshots: export -> delete the originals -> import yields the same
  scan aggregates as the pre-export oracle, and tampering with any
  manifest field or any shard byte fails import with a one-line typed
  error;
- the damage taxonomy: each way bytes die on disk classifies to the
  right kind.
"""

import errno
import io
import json
import shutil

import pytest

from repro.bibliometrics.shardgen import (
    ShardedCorpusConfig,
    generate_columnar_corpus,
)
from repro.bibliometrics.shardscan import scan_corpus
from repro.errors import IntegrityError
from repro.integrity import (
    classify_entry,
    export_snapshot,
    import_snapshot,
    iter_entries,
    load_manifest,
    repair_cache,
    scrub_cache,
    verify_entry,
)
from repro.io.artifacts import ArtifactCache
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracing import Tracer, use_tracer

#: Small fixed corpus: 4 shards, seconds to generate, stable identity.
CONFIG = dict(
    start_year=2016, end_year=2025, seed=0,
    total_papers=400, shard_size=100,
)


def corpus_config() -> ShardedCorpusConfig:
    return ShardedCorpusConfig(**CONFIG)


def flip_byte(path, offset=None):
    """XOR one body byte; the smallest possible on-disk damage."""
    data = bytearray(path.read_bytes())
    index = len(data) // 2 if offset is None else offset
    data[index] ^= 0xFF
    path.write_bytes(bytes(data))


def shard_entries(cache_dir):
    return sorted((cache_dir / "corpus-shard").glob("*.jsonl"))


def manifest_entries(cache_dir):
    return sorted((cache_dir / "corpus-manifest").glob("*.jsonl"))


class _TornWriter:
    """A text file that fills the disk half-way through one write."""

    def __init__(self, handle, marker):
        self._handle = handle
        self._marker = marker

    def write(self, data):
        if self._marker in data:
            self._handle.write(data[: len(data) // 2])
            self._handle.flush()
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()


@pytest.fixture
def torn_write_of(monkeypatch):
    """Make any text write containing ``marker`` fail part-way.

    Patches ``io.open``, through which both ``open``-by-path and
    ``os.fdopen`` go, so the crash lands wherever the writer puts its
    bytes: in place, or in a temp file.
    """
    real_open = io.open

    def arm(marker):
        def torn_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            return _TornWriter(handle, marker) if "w" in mode else handle

        monkeypatch.setattr(io, "open", torn_open)

    return arm


class TestCorruptThenRepairRoundTrip:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_only_damaged_shards_regenerate_and_fingerprint_restores(
        self, tmp_path, workers
    ):
        config = corpus_config()
        cache_dir = tmp_path / "cache"
        corpus = generate_columnar_corpus(
            config, workers=workers, cache_dir=str(cache_dir)
        )
        oracle = corpus.fingerprint()
        entries = shard_entries(cache_dir)
        assert len(entries) == 4

        damaged, intact = entries[:2], entries[2:] + manifest_entries(cache_dir)
        for path in damaged:
            flip_byte(path)
        damaged_before = {p: p.read_bytes() for p in damaged}
        intact_before = {p: p.read_bytes() for p in intact}

        report = scrub_cache(cache_dir)
        assert report.entries == 5
        assert report.damaged == 2
        assert {f.key for f in report.findings} == {p.stem for p in damaged}

        report = repair_cache(cache_dir, report)
        assert report.repair_counts() == {"regenerated": 2}

        # exactly the K damaged entries changed; nothing else was touched
        for path, before in intact_before.items():
            assert path.read_bytes() == before
        for path, before in damaged_before.items():
            assert path.read_bytes() != before

        assert scrub_cache(cache_dir).damaged == 0
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            replay = generate_columnar_corpus(
                config, workers=1, cache_dir=str(cache_dir)
            )
            assert replay.fingerprint() == oracle
            # The open read the manifest only; each load checks the
            # repaired shard's fingerprint against its row.
            assert len(list(replay.iter_shards())) == 4
        assert "shardgen.recovered_shards" not in metrics.snapshot()["counters"]

    def test_repaired_shard_is_byte_identical_to_the_original(self, tmp_path):
        cache_dir = tmp_path / "cache"
        generate_columnar_corpus(corpus_config(), cache_dir=str(cache_dir))
        target = shard_entries(cache_dir)[1]
        pristine = target.read_bytes()
        flip_byte(target)
        repair_cache(cache_dir)
        assert target.read_bytes() == pristine

    @pytest.mark.parametrize("how", ["flip", "truncate"])
    def test_repaired_manifest_is_byte_identical_to_the_original(self, tmp_path, how):
        cache_dir = tmp_path / "cache"
        generate_columnar_corpus(corpus_config(), cache_dir=str(cache_dir))
        (target,) = manifest_entries(cache_dir)
        pristine = target.read_bytes()
        # Damage a body row: the header (config and venue panel) is
        # most of the file, and repair needs it readable.
        if how == "flip":
            flip_byte(target, len(pristine) - 20)
        else:
            target.write_bytes(pristine[:-20])
        report = repair_cache(cache_dir)
        assert report.repair_counts() == {"regenerated": 1}
        assert target.read_bytes() == pristine

    def test_unregenerable_kind_is_deleted_to_a_clean_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path, version=1, sweep=False)
        cache.put("sweep-result", {"point": 1}, [{"value": 42}])
        path = cache.path_for("sweep-result", {"point": 1})
        flip_byte(path)
        report = repair_cache(tmp_path)
        assert report.repair_counts() == {"deleted": 1}
        assert not path.exists()
        assert cache.get("sweep-result", {"point": 1}) is None

    def test_orphaned_tmp_files_are_reaped(self, tmp_path):
        cache = ArtifactCache(tmp_path, version=1, sweep=False)
        cache.put("kind", {"a": 1}, [{"x": 1}])
        orphan = tmp_path / "kind" / "deadbeef.jsonl.tmp"
        orphan.write_bytes(b"partial write")
        report = scrub_cache(tmp_path)
        assert report.damage_counts() == {"orphaned_tmp": 1}
        repair_cache(tmp_path, report)
        assert not orphan.exists()
        assert scrub_cache(tmp_path).damaged == 0

    def test_failing_regenerator_degrades_to_delete(self, tmp_path):
        cache_dir = tmp_path / "cache"
        generate_columnar_corpus(corpus_config(), cache_dir=str(cache_dir))
        target = shard_entries(cache_dir)[0]
        flip_byte(target)

        def broken(config):
            raise RuntimeError("generator changed under us")

        report = repair_cache(
            cache_dir, regenerators={"corpus-shard": broken}
        )
        assert report.repair_counts() == {"deleted": 1}
        assert not target.exists()

    @pytest.mark.parametrize("misplace", ["stray", "renamed"])
    def test_misplaced_entry_is_gone_after_one_repair(self, tmp_path, misplace):
        cache_dir = tmp_path / "cache"
        generate_columnar_corpus(corpus_config(), cache_dir=str(cache_dir))
        entry = shard_entries(cache_dir)[0]
        pristine = entry.read_bytes()
        if misplace == "stray":  # an intact copy under another kind
            moved = cache_dir / "corpus-aggregates" / entry.name
            moved.parent.mkdir()
            shutil.copyfile(entry, moved)
        else:  # the filename is no longer its content address
            moved = entry.with_name("renamed.jsonl")
            entry.rename(moved)
        report = scrub_cache(cache_dir)
        assert [f.path for f in report.findings] == [str(moved)]
        tracer = Tracer()
        with use_tracer(tracer):
            report = repair_cache(cache_dir, report)
        assert report.repair_counts() == {"regenerated": 1}
        assert scrub_cache(cache_dir).findings == []
        assert not moved.exists()
        assert entry.read_bytes() == pristine
        (span,) = [s for s in tracer.finished if s.name == "integrity.repair"]
        assert span.attributes["misplaced"] == 1


class TestDamageTaxonomy:
    def put_entry(self, tmp_path, records=None):
        cache = ArtifactCache(tmp_path, version=1, sweep=False)
        records = records or [{"value": "aaaa"}, {"value": "bbbb"}]
        cache.put("kind", {"k": 1}, records)
        return cache.path_for("kind", {"k": 1})

    def test_intact(self, tmp_path):
        path = self.put_entry(tmp_path)
        damage, detail, header = classify_entry(path)
        assert damage is None
        assert header["artifact"] == "kind"

    def test_empty_file_is_truncated(self, tmp_path):
        path = self.put_entry(tmp_path)
        path.write_bytes(b"")
        assert classify_entry(path)[0] == "truncated"

    def test_torn_header_is_truncated(self, tmp_path):
        path = self.put_entry(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: data.find(b"\n") // 2])
        assert classify_entry(path)[0] == "truncated"

    def test_unparsable_header_is_bad_header(self, tmp_path):
        path = self.put_entry(tmp_path)
        body = path.read_bytes().split(b"\n", 1)[1]
        path.write_bytes(b"not json at all\n" + body)
        assert classify_entry(path)[0] == "bad_header"

    def test_pre_digest_header_is_bad_header(self, tmp_path):
        path = self.put_entry(tmp_path)
        header, body = path.read_bytes().split(b"\n", 1)
        legacy = json.loads(header)
        del legacy["sha256"]
        path.write_bytes(json.dumps(legacy).encode() + b"\n" + body)
        damage, detail, _ = classify_entry(path)
        assert damage == "bad_header"
        assert "sha256" in detail

    def test_entry_in_the_wrong_kind_directory_is_bad_header(self, tmp_path):
        path = self.put_entry(tmp_path)
        stray_dir = tmp_path / "other-kind"
        stray_dir.mkdir()
        stray = stray_dir / path.name
        shutil.copy(path, stray)
        assert classify_entry(stray)[0] == "bad_header"

    def test_relabeled_entry_fails_its_content_address(self, tmp_path):
        path = self.put_entry(tmp_path)
        moved = path.with_name("0" * 64 + ".jsonl")
        path.rename(moved)
        assert classify_entry(moved)[0] == "bad_header"
        assert classify_entry(moved, expect_addressed=False)[0] is None

    def test_torn_final_line_is_truncated(self, tmp_path):
        path = self.put_entry(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        assert classify_entry(path)[0] == "truncated"

    def test_missing_record_is_truncated(self, tmp_path):
        path = self.put_entry(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]))
        assert classify_entry(path)[0] == "truncated"

    def test_extra_record_is_garbled(self, tmp_path):
        path = self.put_entry(tmp_path)
        with path.open("ab") as handle:
            handle.write(b'{"interleaved": true}\n')
        assert classify_entry(path)[0] == "garbled"

    def test_non_json_interior_line_is_garbled(self, tmp_path):
        path = self.put_entry(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b"\x00\xff garbage \x00\n"
        path.write_bytes(b"".join(lines))
        assert classify_entry(path)[0] == "garbled"

    def test_parse_preserving_flip_is_bit_flipped(self, tmp_path):
        # The failure mode only an end-to-end digest catches: every
        # line still parses, the count matches, but the bytes changed.
        path = self.put_entry(tmp_path)
        data = path.read_bytes()
        assert b'"aaaa"' in data
        path.write_bytes(data.replace(b'"aaaa"', b'"aaab"'))
        damage, detail, _ = classify_entry(path)
        assert damage == "bit_flipped"
        assert "sha256" in detail

    def test_verify_entry_raises_one_line_typed_error(self, tmp_path):
        path = self.put_entry(tmp_path)
        flip_byte(path)
        with pytest.raises(IntegrityError) as excinfo:
            verify_entry(path)
        assert "\n" not in str(excinfo.value)
        assert excinfo.value.damage in (
            "truncated", "bit_flipped", "bad_header", "garbled"
        )
        assert excinfo.value.path == str(path)

    def test_verify_entry_returns_header_when_intact(self, tmp_path):
        path = self.put_entry(tmp_path)
        header = verify_entry(path)
        assert header["count"] == 2


class TestSnapshotRoundTrip:
    def test_export_delete_originals_import_matches_oracle(self, tmp_path):
        config = corpus_config()
        cache_dir = tmp_path / "cache"
        corpus = generate_columnar_corpus(config, cache_dir=str(cache_dir))
        oracle_fingerprint = corpus.fingerprint()
        oracle_aggregates = scan_corpus(corpus)

        snap = tmp_path / "snap"
        manifest = export_snapshot(
            snap, config, tag="oracle-test", cache_dir=str(cache_dir)
        )
        assert manifest["fingerprint"] == oracle_fingerprint
        assert manifest["n_papers"] == 400

        # the originals are gone; the snapshot must stand alone
        shutil.rmtree(cache_dir)
        del corpus

        imported = import_snapshot(snap)
        assert imported.fingerprint() == oracle_fingerprint
        assert scan_corpus(imported) == oracle_aggregates

    def test_import_hydrates_a_cache_for_warm_replay(self, tmp_path):
        config = corpus_config()
        snap = tmp_path / "snap"
        manifest = export_snapshot(snap, config, tag="hydrate-test")

        warm = tmp_path / "warm"
        import_snapshot(snap, cache_dir=str(warm))
        assert len(shard_entries(warm)) == 4
        assert len(manifest_entries(warm)) == 1
        assert scrub_cache(warm).damaged == 0
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            replay = generate_columnar_corpus(config, cache_dir=str(warm))
            assert replay.fingerprint() == manifest["fingerprint"]
        counters = metrics.snapshot()["counters"]
        assert counters["shardgen.manifest_hits"] == 1
        assert "artifacts.writes" not in counters

    def test_snapshot_rows_are_the_cache_manifest_rows(self, tmp_path):
        cache_dir = tmp_path / "cache"
        generate_columnar_corpus(corpus_config(), cache_dir=str(cache_dir))
        (entry,) = manifest_entries(cache_dir)
        cached_rows = [json.loads(line) for line in entry.read_text().splitlines()[1:]]
        manifest = export_snapshot(
            tmp_path / "snap", corpus_config(), tag="rows", cache_dir=str(cache_dir)
        )
        assert manifest["shards"] == cached_rows
        for row in cached_rows:
            assert (tmp_path / "snap" / "objects" / f"{row['sha256']}.jsonl").exists()

    def test_import_reads_each_object_once(self, tmp_path, monkeypatch):
        snap = tmp_path / "snap"
        export_snapshot(snap, corpus_config(), tag="read-once")
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if str(file).endswith(".jsonl"):
                opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)
        import_snapshot(snap)
        assert len(opened) == 4
        assert len(set(opened)) == 4

    def test_export_refuses_to_overwrite_without_force(self, tmp_path):
        snap = tmp_path / "snap"
        export_snapshot(snap, corpus_config(), tag="first")
        with pytest.raises(IntegrityError):
            export_snapshot(snap, corpus_config(), tag="second")
        export_snapshot(snap, corpus_config(), tag="second", force=True)
        assert load_manifest(snap)["tag"] == "second"

    def test_failed_forced_reexport_keeps_the_old_manifest(
        self, tmp_path, torn_write_of
    ):
        snap = tmp_path / "snap"
        export_snapshot(snap, corpus_config(), tag="first")
        torn_write_of('"manifest_sha256"')
        with pytest.raises(OSError):
            export_snapshot(snap, corpus_config(), tag="second", force=True)
        assert load_manifest(snap)["tag"] == "first"
        assert not list(snap.rglob("*.tmp"))


class TestSnapshotTamperDetection:
    @pytest.fixture()
    def snap(self, tmp_path):
        snap = tmp_path / "snap"
        export_snapshot(snap, corpus_config(), tag="tamper-test")
        return snap

    def assert_import_fails_one_line(self, snap):
        with pytest.raises(IntegrityError) as excinfo:
            import_snapshot(snap)
        assert "\n" not in str(excinfo.value)
        return excinfo.value

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tag", "evil"),
            ("n_papers", 399),
            ("fingerprint", "0" * 64),
            ("generator_version", "9.9.9"),
            ("schema_version", 99),
        ],
    )
    def test_any_manifest_field_edit_fails_import(self, snap, field, value):
        manifest_path = snap / "snapshot.json"
        manifest = json.loads(manifest_path.read_text())
        manifest[field] = value
        manifest_path.write_text(json.dumps(manifest))
        self.assert_import_fails_one_line(snap)

    def test_shard_list_edit_fails_import(self, snap):
        manifest_path = snap / "snapshot.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["shards"][0], manifest["shards"][1] = (
            manifest["shards"][1], manifest["shards"][0],
        )
        manifest_path.write_text(json.dumps(manifest))
        self.assert_import_fails_one_line(snap)

    def test_config_edit_fails_import(self, snap):
        manifest_path = snap / "snapshot.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["seed"] = 1
        manifest_path.write_text(json.dumps(manifest))
        self.assert_import_fails_one_line(snap)

    def test_shard_byte_flip_fails_import(self, snap):
        target = sorted((snap / "objects").glob("*.jsonl"))[0]
        flip_byte(target)
        error = self.assert_import_fails_one_line(snap)
        assert error.damage == "bit_flipped"

    def test_object_damaged_after_import_fails_its_next_load(self, snap):
        corpus = import_snapshot(snap)
        flip_byte(sorted((snap / "objects").glob("*.jsonl"))[0])
        with pytest.raises(IntegrityError) as excinfo:
            list(corpus.iter_shards())
        assert excinfo.value.damage == "bit_flipped"
        assert "failed its digest" in str(excinfo.value)

    def test_missing_object_fails_import(self, snap):
        sorted((snap / "objects").glob("*.jsonl"))[0].unlink()
        self.assert_import_fails_one_line(snap)

    def test_missing_manifest_fails_import(self, tmp_path):
        with pytest.raises(IntegrityError):
            import_snapshot(tmp_path / "nowhere")


class TestIterEntries:
    def test_lists_kind_key_size_age(self, tmp_path):
        cache = ArtifactCache(tmp_path, version=1, sweep=False)
        cache.put("alpha", {"a": 1}, [{"x": 1}])
        cache.put("beta", {"b": 2}, [{"y": 2}, {"y": 3}])
        entries = list(iter_entries(tmp_path))
        assert {e.kind for e in entries} == {"alpha", "beta"}
        for entry in entries:
            assert len(entry.key) == 64
            assert entry.size > 0
            assert entry.age_seconds >= 0.0

    def test_skips_tmp_and_lock_litter(self, tmp_path):
        cache = ArtifactCache(tmp_path, version=1, sweep=False)
        cache.put("alpha", {"a": 1}, [{"x": 1}])
        (tmp_path / "alpha" / "orphan.jsonl.tmp").write_bytes(b"x")
        entries = list(iter_entries(tmp_path))
        assert len(entries) == 1
        assert entries[0].kind == "alpha"

    def test_missing_root_yields_nothing(self, tmp_path):
        assert list(iter_entries(tmp_path / "absent")) == []


class TestCli:
    def run_cli(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.fixture()
    def warm_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        generate_columnar_corpus(corpus_config(), cache_dir=str(cache_dir))
        return cache_dir

    def test_scrub_clean_exits_zero(self, capsys, warm_cache):
        code, out, _ = self.run_cli(
            capsys, "integrity", "scrub", str(warm_cache)
        )
        assert code == 0
        assert "5 intact, 0 damaged" in out

    def test_scrub_damage_exits_one_then_repair_heals(
        self, capsys, warm_cache
    ):
        flip_byte(shard_entries(warm_cache)[0])
        code, out, err = self.run_cli(
            capsys, "integrity", "scrub", str(warm_cache)
        )
        assert code == 1
        assert "1 damaged" in out
        assert "--repair" in err

        code, out, _ = self.run_cli(
            capsys, "integrity", "scrub", str(warm_cache), "--repair"
        )
        assert code == 0
        assert "[regenerated]" in out

        code, out, _ = self.run_cli(
            capsys, "integrity", "scrub", str(warm_cache), "--json"
        )
        assert code == 0
        assert json.loads(out)["damaged"] == 0

    def test_cache_ls_and_stats(self, capsys, warm_cache):
        (warm_cache / "corpus-shard" / "orphan.jsonl.tmp").write_bytes(b"x")
        code, out, err = self.run_cli(capsys, "cache", "ls", str(warm_cache))
        assert code == 0
        assert "corpus-shard" in out
        assert "1 orphaned temp file" in err

        code, out, _ = self.run_cli(
            capsys, "cache", "stats", str(warm_cache), "--json"
        )
        assert code == 0
        stats = json.loads(out)
        assert stats["entries"] == 5
        assert stats["orphaned_tmp"] == 1
        assert stats["kinds"]["corpus-shard"]["entries"] == 4
        assert stats["kinds"]["corpus-manifest"]["entries"] == 1

    def test_corpus_export_import_round_trip(self, capsys, tmp_path):
        snap = tmp_path / "snap"
        code, out, _ = self.run_cli(
            capsys, "corpus", "export", str(snap), "--tag", "cli-test",
            "--papers", "400", "--shard-size", "100",
            "--start-year", "2016", "--end-year", "2025",
        )
        assert code == 0
        assert "'cli-test'" in out

        code, out, _ = self.run_cli(capsys, "corpus", "import", str(snap))
        assert code == 0
        assert "verified snapshot 'cli-test'" in out
        assert "400 papers" in out

    def test_tampered_import_is_a_one_line_typed_error(
        self, capsys, tmp_path
    ):
        snap = tmp_path / "snap"
        export_snapshot(
            snap,
            ShardedCorpusConfig(**{**CONFIG, "total_papers": 100}),
            tag="t",
        )
        manifest_path = snap / "snapshot.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["tag"] = "evil"
        manifest_path.write_text(json.dumps(manifest))
        code, _, err = self.run_cli(capsys, "corpus", "import", str(snap))
        assert code == 1
        assert err.startswith("integrity error:")
        assert len(err.strip().splitlines()) == 1

    def test_failed_corpus_manifest_rewrite_keeps_the_old_one(
        self, capsys, tmp_path, torn_write_of
    ):
        out_dir = tmp_path / "run"
        argv = ("corpus", "generate", str(out_dir), "--papers", "400",
                "--shard-size", "100", "--start-year", "2016",
                "--end-year", "2025")
        code, _, _ = self.run_cli(capsys, *argv)
        assert code == 0
        before = (out_dir / "manifest.json").read_text()
        torn_write_of('"shards"')
        with pytest.raises(OSError):
            self.run_cli(capsys, *argv)
        assert (out_dir / "manifest.json").read_text() == before
        assert json.loads(before)["n_papers"] == 400
        assert not list(out_dir.glob("*.tmp"))
