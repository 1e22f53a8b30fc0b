GO ?= go

# Build version stamped into the binaries (pilfilld_build_info, -version).
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags "-X pilfill/internal/obs.Version=$(VERSION)"

.PHONY: ci fmt vet linkcheck bench-vet bench-check build test race fuzz-smoke cluster-smoke bench trace-smoke cluster-trace-smoke serve

ci: fmt vet linkcheck bench-vet bench-check build test race fuzz-smoke cluster-smoke trace-smoke cluster-trace-smoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Every non-test function outside cmd/bench is linked into one of the eleven
# binaries (the cmd/ tools, the examples and cmd/bench), or
# testdata/unlinked.txt names its owner. Behind a build tag, so `go test ./...`
# does not build the binaries.
linkcheck:
	$(GO) test -tags linkcheck -run '^TestLinkCheck$$' -count=1 .

# cmd/bench is its own module (frozen benchmark driver), so ./... above never
# compiles it: vet and test it here, so an API rename in the library breaks CI
# instead of the benchmark.
bench-vet:
	cd cmd/bench && $(GO) vet ./... && $(GO) test ./...

# Full-size benchmark gate: every workload once at seed 1, through the
# command BENCHMARK.json names. Each unit's fill hash and delay bits are
# checked against cmd/bench/expected.json, which records outcomes only for
# the full sizes (bench-vet's tests run the quick ones). Fails when the
# benchmark cannot build or start (non-zero exit) or a unit is wrong.
BENCH_WORKLOADS := session-t3 chip-periodic chip-jittered cluster-jittered
bench-check:
	@for w in $(BENCH_WORKLOADS); do \
		out=$$(bash cmd/bench/run.sh --workload $$w --seed 1 --seconds 1) || \
			{ echo "bench-check: $$w exited non-zero"; exit 1; }; \
		last=$$(printf '%s\n' "$$out" | tail -n 1); \
		echo "bench-check: $$w $$(printf '%s' "$$last" | cut -c1-60)"; \
		case "$$last" in *'"correct":true'*) ;; \
			*) echo "bench-check: $$w is not correct: $$last"; exit 1;; esac; \
	done

build:
	$(GO) build $(LDFLAGS) ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/... ./internal/jobqueue ./internal/server ./internal/obs ./internal/shard ./internal/cluster

# Run each fuzzer for FUZZTIME past its seed corpus: the DEF parser and
# tokenizer (against the strings.Fields oracle), the LEF parser, the GDSII
# reader, the pilfilld submit decoder, the coordinator's chip submit handler,
# the cluster's region-payload merge and write-ahead-log replay (open, append,
# reopen).
# go test fuzzes one target per run.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/def
	$(GO) test -run '^$$' -fuzz '^FuzzTokens$$' -fuzztime $(FUZZTIME) ./internal/def
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/lef
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME) ./internal/gds
	$(GO) test -run '^$$' -fuzz '^FuzzSubmitRequest$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzChipSubmitRequest$$' -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzMergeRegions$$' -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzOpenWAL$$' -fuzztime $(FUZZTIME) ./internal/jobqueue

# Cluster bit-identity smoke test under the race detector: in-process
# multi-worker scatter/gather (including the kill-a-worker fault path) must
# produce a merged report bit-identical to the single-process run.
cluster-smoke:
	$(GO) test -race -count=1 -run 'TestClusterBitIdentical|TestClusterSurvivesWorkerKill' ./internal/cluster

bench:
	$(GO) test -bench 'EnginePreprocess|MonteCarlo$$|ExtractDefIII$$' -benchtime 10x -run '^$$' . ./internal/density ./internal/scanline

# Tracing smoke test: run a small case with -trace and validate the Chrome
# trace-event JSON (parses, has the run/prep/tile/solve span hierarchy).
trace-smoke:
	$(GO) run ./cmd/pilfill -case T2 -window 32 -r 2 -method Greedy -trace trace-smoke.json >/dev/null
	$(GO) run ./cmd/tracecheck trace-smoke.json
	@rm -f trace-smoke.json

# Cluster tracing smoke test: an in-process two-worker chip run with span
# collection, under the race detector, writes the merged multi-process trace;
# tracecheck then lints it in -multi mode (coordinator lane plus one process
# group per region dump, every span's parent resolving within its process).
cluster-trace-smoke:
	$(GO) test -race -count=1 -run TestClusterMergedTrace ./internal/cluster \
		-args -cluster-trace-out $(CURDIR)/cluster-trace-smoke.json
	$(GO) run ./cmd/tracecheck -multi \
		-names run,tile,solve,chip,region,attempt,merge cluster-trace-smoke.json
	@rm -f cluster-trace-smoke.json

# Run the fill-synthesis daemon with development-friendly settings.
serve:
	$(GO) run $(LDFLAGS) ./cmd/pilfilld -addr :8419 -queue-capacity 32 -pprof
