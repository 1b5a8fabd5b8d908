install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

examples:
	for f in examples/*.py; do echo "== $$f =="; python $$f; done

experiments:
	python -m repro experiments

experiments-full:
	python -m repro experiments --full

check:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -x -q --durations=10
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q benchmarks/e2e/test_e2e_bench.py
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro experiments E1 E13 --seed 0 --retries 1 --workers 2 --json-summary -

# The crash-safety net end to end: a supervised parallel CLI run with
# the supervision flags exercised.  The chaos tests (worker kills,
# poison-task quarantine, heartbeat escalation, disk faults) run in
# tier-1 under `make check`.
chaos-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro experiments E4 E5 E6 E10 --seed 0 \
		--workers 2 --keep-going --max-worker-crashes 2 --json-summary -

# The sweep engine end to end: a 3-point grid on a cheap experiment at
# --workers 2, then the same grid again against the now-warm artifact
# cache (every point must replay as source=cache).
sweep-smoke:
	rm -rf .sweep-smoke && mkdir -p .sweep-smoke
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro sweep --grid seed=0,1,2 E7 \
		--workers 2 --cache-dir .sweep-smoke/cache --results-dir .sweep-smoke/results \
		--json-summary .sweep-smoke/cold.json
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro sweep --grid seed=0,1,2 E7 \
		--workers 2 --cache-dir .sweep-smoke/cache --json-summary .sweep-smoke/warm.json
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -c "import json; \
		cold = json.load(open('.sweep-smoke/cold.json')); \
		warm = json.load(open('.sweep-smoke/warm.json')); \
		assert cold['all_ok'] and warm['all_ok'], 'sweep points failed'; \
		assert warm['from_cache'] == warm['total'] == 3, warm; \
		assert cold['fingerprint'] == warm['fingerprint'], 'warm run drifted'"
	rm -rf .sweep-smoke

# The result service end to end: the standalone smoke script — hot
# and cold fetches, a coalescing probe, a killed-worker -> 503 probe, a
# graceful-drain check, and a real-CLI SIGTERM drain.  The serve tests
# (framing, jobs, degradation ladder, chaos) run in tier-1.
serve-smoke:
	python scripts/serve_smoke.py

# One fast experiment with tracing + metrics on; `obs report` re-parses
# the trace and fails on a malformed span, so this asserts the whole
# export -> parse -> render path.
obs-smoke:
	rm -rf .obs-smoke && mkdir -p .obs-smoke
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro run E11 \
		--trace-out .obs-smoke/trace.jsonl --metrics-out .obs-smoke/metrics.json
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro obs report .obs-smoke/trace.jsonl
	rm -rf .obs-smoke

# The perf-regression gate against the committed ledger: re-measure the
# cheap hot paths, append to benchmarks/results/BENCH_history.json, and
# fail if any gated series is >20% worse than its trailing median.
bench-gate:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro bench run scanner tfidf --repeats 12
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro bench gate

# The gate machinery end to end against a throwaway ledger: one real
# scanner run, then a synthetic copy of its row at x1.0 (a flat series)
# must pass the gate, and one at x1.5 must make it exit non-zero —
# proving it can actually fail.  Gating one ~0.4 ms timing against
# another real one failed at random on unchanged code, so the flat
# case is synthetic too.
BENCH_SMOKE_APPEND = from repro.bench.ledger import append_entries, load_ledger, make_entry; \
	last = load_ledger('.bench-smoke/ledger.json')[-1]; \
	append_entries('.bench-smoke/ledger.json', [make_entry( \
		last['bench'], last['value'] * FACTOR, metric=last['metric'], \
		context={'synthetic': True})])

bench-gate-smoke:
	rm -rf .bench-smoke && mkdir -p .bench-smoke
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro bench run scanner \
		--ledger .bench-smoke/ledger.json --repeats 3
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -c "FACTOR = 1.0; $(BENCH_SMOKE_APPEND)"
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro bench gate scanner \
		--ledger .bench-smoke/ledger.json
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -c "FACTOR = 1.5; $(BENCH_SMOKE_APPEND)"
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro bench gate scanner \
		--ledger .bench-smoke/ledger.json && exit 1 || true
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro bench report \
		--ledger .bench-smoke/ledger.json
	rm -rf .bench-smoke

# Shard-parallel corpus generation and scan end to end: generate a
# 10^4-paper columnar corpus at workers=2 through the CLI, re-derive its
# fingerprint sequentially in-process, then replay the warm shard cache
# streamed — all three fingerprints must agree, proving worker-count
# and cache-state invariance.  The streamed corpus is then scanned at
# workers=1 and workers=2 (equal records required), and the scan's
# linear-time bound on adversarial near-miss text is asserted.
corpus-smoke:
	rm -rf .corpus-smoke
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m repro corpus generate .corpus-smoke/run \
		--papers 10000 --workers 2 --shard-size 2500 \
		--cache-dir .corpus-smoke/shards
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -c "import json; \
		from repro.bibliometrics.shardgen import ShardedCorpusConfig, generate_columnar_corpus; \
		manifest = json.load(open('.corpus-smoke/run/manifest.json')); \
		config = ShardedCorpusConfig(**manifest['config']); \
		sequential = generate_columnar_corpus(config).fingerprint(); \
		assert sequential == manifest['fingerprint'], 'worker-count drift'; \
		warm = generate_columnar_corpus(config, cache_dir='.corpus-smoke/shards', stream=True); \
		assert warm.fingerprint() == sequential, 'warm-cache drift'; \
		assert warm.resident_shards() <= 1, 'streaming held >1 shard'; \
		from repro.bibliometrics.shardscan import scan_corpus; \
		one = scan_corpus(warm, workers=1).to_records(); \
		assert scan_corpus(warm, workers=2).to_records() == one, 'scan width drift'; \
		assert one[0]['n_papers'] == len(warm), 'scan missed papers'; \
		print('corpus-smoke ok: ' + sequential)"
	rm -rf .corpus-smoke
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q benchmarks/bench_scan_adversarial.py

# The self-healing data plane end to end: the standalone smoke script
# — flip a byte in a cached shard, assert the strict read raises
# IntegrityError, scrub --repair restores the exact fingerprint, a
# tampered snapshot manifest is rejected, and serve answers 200 via
# recompute (never 500) over a corrupted artifact.  The integrity and
# artifact-cache tests run in tier-1.
integrity-smoke:
	python scripts/integrity_smoke.py

# Every smoke above, in one target: the CI's second step.
smoke: obs-smoke chaos-smoke sweep-smoke serve-smoke bench-gate-smoke corpus-smoke integrity-smoke

outputs:
	pytest tests/ 2>&1 | tee test_output.txt
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

.PHONY: install test bench examples experiments experiments-full check smoke chaos-smoke sweep-smoke serve-smoke obs-smoke bench-gate bench-gate-smoke corpus-smoke integrity-smoke outputs
