GO ?= go

.PHONY: all build test check vet race bench bench-alloc bench-smoke bench-scaling bench-memory benchgate trace-smoke trace-replay-smoke traffic-smoke poison-smoke fmt

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-enabled run of the full suite; the campaign worker pool and the
# cross-shard sync.Pools are the interesting surfaces. Race
# instrumentation slows the internal/core campaign fixtures ~6x, past
# go test's default 10m per-package timeout — hence the explicit one.
race:
	$(GO) test -race -timeout 40m ./...

# The repo's gate: static checks, a fast allocation smoke pass, the
# tracing smoke pass, the trace-replay determinism smoke pass, the
# buffer-poisoning smoke pass, the race-enabled suite, the benchmark
# regression gate, and the multi-core scaling gate. The smoke passes run
# before the (slow) race suite so allocation, trace-pipeline and
# buffer-reuse regressions fail fast.
check: vet bench-smoke trace-smoke trace-replay-smoke traffic-smoke poison-smoke race benchgate bench-scaling bench-memory

# Analysis/figure regeneration benchmarks (shares one campaign per run).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Allocation benchmarks for the simulation hot path; compare against
# BENCH_baseline.json.
bench-alloc:
	$(GO) test -run '^$$' -bench 'SchedulerEventDispatch|SchedulerTimerReset|RunVisitAllocs' -benchtime 2s .

# Benchmark regression gate: reruns the recorded benchmarks and fails on
# regression vs the 'current' column of BENCH_baseline.json (allocs/op
# exactly; ns/op and B/op within a tolerance band).
benchgate:
	$(GO) run ./cmd/benchgate

# Fast allocation smoke pass: one short run of the gated benchmarks,
# gating allocs/op only (ns/op and B/op are too noisy at 100ms).
bench-smoke:
	$(GO) run ./cmd/benchgate -benchtime 100ms -smoke

# Multi-core scaling gate: one short run of BenchmarkCampaignScaling
# (smoke-scale corpus), gated on parallel efficiency at 4 workers via
# the gates array of BENCH_scaling.json. The benchmark skips itself on
# single-core machines and benchgate skips the efficiency gate with it.
bench-scaling:
	$(GO) run ./cmd/benchgate -baseline BENCH_scaling.json -benchtime 1x -smoke -only CampaignScaling

# Bounded-memory gate: one short run of BenchmarkCampaignMemory (a
# RetainNone campaign at two corpus scales), gated on peak-RSS growth
# across the page spread via the max_rss_growth gate of
# BENCH_scaling.json. The ratio gate is scale-agnostic, so the smoke
# scales (96/768 pages) enforce the same ceiling the recorded
# 1k/10k-page runs document. The second pass applies the same gate to
# the open-loop population traffic engine across a visit-count spread
# (BenchmarkPopulationCampaign; the recorded 100k-visit run documents
# the claim at scale).
bench-memory:
	$(GO) run ./cmd/benchgate -baseline BENCH_scaling.json -benchtime 1x -smoke -only CampaignMemory
	H3CDN_TRAFFIC_VISITS=1200,9600 $(GO) run ./cmd/benchgate -baseline BENCH_scaling.json -benchtime 1x -smoke -only PopulationCampaign

# Trace-replay smoke pass: run the same variable-link campaign (synthetic
# cellular trace + bursty loss) with 1 worker (shards inline) and with 2
# workers, and require byte-identical datasets — the cheap end-to-end check that
# TraceLink replay composed with the fault layer stays deterministic
# under sharding.
trace-replay-smoke:
	rm -rf .trace-replay-smoke && mkdir -p .trace-replay-smoke
	$(GO) run ./cmd/h3cdn-measure -pages 6 -link-trace lte -burst-loss 0.01 -workers 1 -o .trace-replay-smoke/seq.json
	$(GO) run ./cmd/h3cdn-measure -pages 6 -link-trace lte -burst-loss 0.01 -workers 2 -o .trace-replay-smoke/par.json
	cmp .trace-replay-smoke/seq.json .trace-replay-smoke/par.json
	rm -rf .trace-replay-smoke

# Population-traffic smoke pass: the same open-loop traffic campaign run
# with 1 worker (shards inline) and with 2 workers must produce
# byte-identical datasets
# (user partitioning is worker-count independent), and a checkpointed
# run driven epoch by epoch through kill/resume cycles must reproduce
# the uninterrupted dataset byte for byte.
TRAFFIC_SMOKE_FLAGS = -pages 8 -traffic -traffic-users 24 -traffic-users-per-shard 10 \
	-traffic-rate 2 -traffic-duration 30s -traffic-epoch 10s -traffic-ttl 15s \
	-traffic-think 2s
traffic-smoke:
	rm -rf .traffic-smoke && mkdir -p .traffic-smoke/ckpt
	$(GO) run ./cmd/h3cdn-measure $(TRAFFIC_SMOKE_FLAGS) -workers 1 -o .traffic-smoke/seq.json
	$(GO) run ./cmd/h3cdn-measure $(TRAFFIC_SMOKE_FLAGS) -workers 2 -o .traffic-smoke/par.json
	cmp .traffic-smoke/seq.json .traffic-smoke/par.json
	$(GO) run ./cmd/h3cdn-measure $(TRAFFIC_SMOKE_FLAGS) -traffic-checkpoint .traffic-smoke/ckpt -traffic-halt-epochs 1 -o /dev/null
	$(GO) run ./cmd/h3cdn-measure $(TRAFFIC_SMOKE_FLAGS) -traffic-checkpoint .traffic-smoke/ckpt -traffic-halt-epochs 1 -o /dev/null
	$(GO) run ./cmd/h3cdn-measure $(TRAFFIC_SMOKE_FLAGS) -traffic-checkpoint .traffic-smoke/ckpt -o .traffic-smoke/resumed.json
	cmp .traffic-smoke/seq.json .traffic-smoke/resumed.json
	rm -rf .traffic-smoke

# Buffer-poisoning smoke pass: the pinned determinism goldens (plus
# the arena balance check and the transport/HTTP layer suites) built with
# -tags h3cdnpoison, which fills every recycled buffer with 0xA5 — on
# bufpool.Arena.Put, and on a TCP send array's last hold release. A read
# of recycled memory then changes parsed bytes and fails a golden hash.
POISON_GOLDENS = ^(TestCampaignGoldenDataset|TestImpairedCampaignGoldenDataset|TestCampaignGoldenTraces|TestTraceLinkCampaignGoldenDataset|TestTrafficGoldenDataset|TestTrafficSampledGoldenDataset|TestArenaBalancedAfterVisits)$$
poison-smoke:
	$(GO) test -tags h3cdnpoison -count=1 ./internal/bufpool ./internal/tcpsim ./internal/tlssim ./internal/quicsim ./internal/httpsim
	$(GO) test -tags h3cdnpoison -count=1 -run '$(POISON_GOLDENS)' ./internal/core

# Tracing smoke pass: run a small traced campaign through h3cdn-measure
# -qlog and validate every emitted qlog line with qlogcheck.
trace-smoke:
	rm -rf .trace-smoke && mkdir -p .trace-smoke
	$(GO) run ./cmd/h3cdn-measure -pages 4 -qlog .trace-smoke -o .trace-smoke/dataset.json
	$(GO) run ./cmd/qlogcheck -dir .trace-smoke
	rm -rf .trace-smoke

fmt:
	gofmt -l -w .
