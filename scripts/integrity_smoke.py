"""End-to-end smoke for the self-healing data plane
(run by ``make integrity-smoke``).

Five probes, each printing one PASS line; any failure is a loud
assertion with a non-zero exit:

1. **strict read raises** — flip one byte in a cached corpus shard;
   the strict read path surfaces a typed ``IntegrityError`` (and the
   lenient ``get()`` treats it as a miss, never returning the damaged
   records);
2. **scrub classifies** — the scrubber finds exactly the damaged entry
   and nothing else;
3. **repair restores the fingerprint** — ``repair_cache`` regenerates
   only the damaged shard, and the corpus fingerprint replayed from
   the healed cache is bit-identical to the pre-damage oracle;
4. **snapshot round trip** — export a tagged snapshot, import verifies
   it, and a tampered manifest is rejected with a one-line typed
   error;
5. **serve recomputes through corruption** — with the ``bitrot`` disk
   fault corrupting a freshly written result entry, the server answers
   200 via recompute (counted ``artifacts.integrity_failures``), never
   a 500.
"""

import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bibliometrics.shardgen import (  # noqa: E402
    ShardedCorpusConfig,
    generate_columnar_corpus,
)
from repro.errors import IntegrityError  # noqa: E402
from repro.integrity import (  # noqa: E402
    export_snapshot,
    import_snapshot,
    repair_cache,
    scrub_cache,
)
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.runtime.faultinject import FaultInjector  # noqa: E402
from repro.serve.client import fetch  # noqa: E402
from repro.serve.service import (  # noqa: E402
    ResultService,
    ServeConfig,
    ServerThread,
)

HOST = "127.0.0.1"

CONFIG = ShardedCorpusConfig(
    start_year=2016, end_year=2025, seed=0,
    total_papers=400, shard_size=100,
)


def flip_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def probe_corrupt_then_repair(tmp: Path) -> None:
    cache_dir = tmp / "cache"
    corpus = generate_columnar_corpus(CONFIG, cache_dir=str(cache_dir))
    oracle = corpus.fingerprint()
    entries = sorted((cache_dir / "corpus-shard").glob("*.jsonl"))
    assert len(entries) == 4, entries

    target = entries[1]
    flip_byte(target)

    # probe 1: the strict read path raises a typed error
    from repro.integrity import verify_entry

    try:
        verify_entry(target)
    except IntegrityError as exc:
        assert "\n" not in str(exc), exc
    else:
        raise AssertionError("verify_entry accepted a damaged shard")
    print("PASS strict read raises IntegrityError on a flipped byte")

    # probe 2: the scrubber finds exactly the damaged entry
    report = scrub_cache(cache_dir)
    assert report.entries == 5, report.to_dict()  # 4 shards + the manifest
    assert report.damaged == 1, report.to_dict()
    assert report.findings[0].key == target.stem, report.to_dict()
    print("PASS scrub classifies exactly the damaged entry")

    # probe 3: repair regenerates it and the fingerprint is restored
    report = repair_cache(cache_dir, report)
    assert report.repair_counts() == {"regenerated": 1}, report.to_dict()
    assert scrub_cache(cache_dir).damaged == 0
    healed = generate_columnar_corpus(CONFIG, cache_dir=str(cache_dir))
    assert healed.fingerprint() == oracle, "fingerprint drifted after repair"
    # The open read only the manifest; each load checks its shard's
    # fingerprint against it, so this proves the repaired bytes.
    for _ in healed.iter_shards():
        pass
    print(f"PASS repair restored the exact fingerprint {oracle[:12]}...")


def probe_snapshot(tmp: Path) -> None:
    snap = tmp / "snap"
    manifest = export_snapshot(snap, CONFIG, tag="smoke")
    imported = import_snapshot(snap)
    assert imported.fingerprint() == manifest["fingerprint"]

    import json

    manifest_path = snap / "snapshot.json"
    tampered = json.loads(manifest_path.read_text())
    tampered["tag"] = "evil"
    manifest_path.write_text(json.dumps(tampered))
    try:
        import_snapshot(snap)
    except IntegrityError as exc:
        assert "\n" not in str(exc), exc
    else:
        raise AssertionError("import accepted a tampered manifest")
    print("PASS snapshot round trip verifies; tampered manifest rejected")


def probe_serve_recomputes_through_corruption(tmp: Path) -> None:
    injector = FaultInjector(seed=11)
    injector.register("artifacts:damage", mode="bitrot", times=1)
    service = ResultService(
        ServeConfig(cache_dir=str(tmp / "serve-cache"), deadline=120.0),
        metrics=MetricsRegistry(),
        fault_injector=injector,
    )
    with ServerThread(service) as server:
        first = fetch(HOST, server.port, "/v1/result/E5?seed=0", timeout=120)
        assert first.status == 200, first.status
        assert injector.stats()["artifacts:damage"]["fired"] == 1
        second = fetch(HOST, server.port, "/v1/result/E5?seed=0", timeout=120)
        assert second.status == 200, second.status
        assert second.json()["source"] == "computed", second.json()["source"]
    counters = service.metrics.snapshot()["counters"]
    assert counters["artifacts.integrity_failures"] == 1, counters
    assert "serve.responses.500" not in counters, counters
    print("PASS serve answered 200 via recompute over a corrupted entry")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="integrity-smoke-") as tmp:
        tmp = Path(tmp)
        probe_corrupt_then_repair(tmp)
        probe_snapshot(tmp)
        probe_serve_recomputes_through_corruption(tmp)
    print("integrity-smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
