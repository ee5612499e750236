#!/usr/bin/env sh
# Tier-1 verification for this repo. Everything here must pass before a
# change lands: build, go vet, the project's own static analyzers
# (cmd/hermes-lint), the full test suite, the race detector over the
# concurrency-heavy packages (TCP serving path, the batching front-end, the
# telemetry registry scraped concurrently with metric writes, the pooled
# IVF searcher scratch, the in-process store recording into the flight
# recorder under concurrent readers, the SLO engine ticking under Collect,
# and the event ring written under concurrent scrapes), a
# single-iteration bench smoke so
# the kernel benchmarks can never rot unnoticed, five seconds of
# fuzzing on each wire frame decoder, and one iteration of the store's
# hierarchical-search and search-all benchmarks.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# The lint gate diffs against the committed lint-report.json (failing only
# on new findings), refreshes that artifact in place, re-runs the gate over
# test files, and archives the facts dump — see scripts/lint-diff.sh.
./scripts/lint-diff.sh
go test ./...
go test -race ./internal/distsearch/ ./internal/batcher/ ./internal/telemetry/ ./internal/ivf/ ./internal/hermes/ ./internal/slo/ ./internal/evlog/
go test -bench=. -benchtime=1x -run '^$' ./internal/vec/ ./internal/quant/ ./internal/ivf/
# The property tests in these packages draw random seeds, and `go test`'s
# result cache replays one green run until the package changes: -count
# disables the cache, so a flake (the grouped/sequential tie order was one)
# cannot hide behind it.
go test -count=3 ./internal/vec/ ./internal/ivf/ ./internal/hermes/
go test -run '^$' -fuzz '^FuzzRequestDecode$' -fuzztime 5s ./internal/distsearch/
go test -run '^$' -fuzz '^FuzzResponseDecode$' -fuzztime 5s ./internal/distsearch/
go test -bench='HermesHierarchicalSearch|SearchAllBaseline' -benchtime=1x -run '^$' .
# Several exchanges share each node connection: the pipelining and redial tests run
# three times under the race detector with the result cache off, so a race
# that needs one interleaving cannot hide behind one green run.
go test -race -count=3 -run 'TestConcurrentSearchAndBatch|TestSwappedResponsesPoisonConnection|TestRoundTripDeadlineUnsticksHungNode|TestHungNodeDoesNotFailItsWave|TestRedialRefusesChangedIdentity|TestRedialResetFailsCleanly' ./internal/distsearch/
# Index construction splits k-means rows and shards over GOMAXPROCS
# goroutines and must still produce the recorded bytes: the k-means tests and
# the hermes build-determinism golden (GOMAXPROCS 1-4) run twice under the
# race detector with the result cache off.
go test -race -count=2 ./internal/kmeans/ ./internal/hermes/
# Lloyd's assignment passes skip distances that triangle-inequality bounds
# prove cannot win, and must still give the full passes' bits: five seconds
# of fuzzing the pruned Train against the full-pass reference.
go test -run '^$' -fuzz '^FuzzTrainMatchesLloyd$' -fuzztime 5s ./internal/kmeans/
# Remove asks the node whose id filter claims the id first, Add sets filter
# bits with atomic word updates beside concurrent readers, a redial replaces
# a node's filter, and Close releases the coordinator's collectors: the
# routing and release tests run three times under the race detector with the
# result cache off.
go test -race -count=3 -run 'TestIDFilterProperties|TestRemoveRoutedToHolder|TestRemoveStaleFilter|TestRedialRefreshesFilter|TestCloseReleasesCoordinator' ./internal/distsearch/
