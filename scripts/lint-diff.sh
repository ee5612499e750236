#!/usr/bin/env sh
# The hermes-lint CI gate (called from scripts/verify.sh).
#
# Two contracts, both enforced with a non-zero exit:
#
# 1. Finding gate. lint-report.json is a COMMITTED artifact: the accepted
#    lint state of the tree. The first run fails only on findings absent
#    from it (-diff), so a new analyzer can land with known, annotated
#    findings and tighten over time instead of blocking on a big-bang
#    cleanup. The second run applies the same diff gate over in-package
#    _test.go files (TestFiles-capable checks only).
#
# 2. Artifact identity gate. Every committed lint artifact — the accepted
#    report, the fact-lattice dump (lint-facts.json), and the alloc.lock
#    escape budgets — must be byte-identical to a fresh regeneration. Each
#    is regenerated IN PLACE below and compared against the committed
#    bytes; on drift the script exits 1 naming the stale files, which are
#    left refreshed on disk — review the diff and commit them as part of
#    the change.
#
# alloc.lock is toolchain-specific (see its `# go <version>` header): when
# the running toolchain differs from the recorded one, its regeneration is
# skipped with a warning instead of churning every budget — the same policy
# as the driver's escapeaudit version gate. (The wire protocol's guard is
# not a lint artifact: its golden frames are checked by go test, see
# internal/distsearch/golden_test.go.)
set -eux

cd "$(dirname "$0")/.."

stale=""

go run ./cmd/hermes-lint -json -diff lint-report.json ./... > lint-report.json.tmp
cmp -s lint-report.json.tmp lint-report.json || stale="$stale lint-report.json"
mv lint-report.json.tmp lint-report.json
go run ./cmd/hermes-lint -diff lint-report.json -include-tests ./...
go run ./cmd/hermes-lint -facts -json ./... > lint-facts.json.tmp
cmp -s lint-facts.json.tmp lint-facts.json || stale="$stale lint-facts.json"
mv lint-facts.json.tmp lint-facts.json

# Lock budgets: snapshot the committed bytes, regenerate in place, compare.
# Fixture locks under testdata are hand-written against fabricated
# diagnostics (fake toolchain header on purpose) — never regenerated here.
locks=$(find internal -path '*/testdata/*' -prune -o -name alloc.lock -print | sort)
snapdir=$(mktemp -d)
trap 'rm -rf "$snapdir"' EXIT
for f in $locks; do
    mkdir -p "$snapdir/$(dirname "$f")"
    cp "$f" "$snapdir/$f"
done
goversion=$(go env GOVERSION)
recorded=$(sed -n 's/^# go //p' $locks | sort -u)
if [ "$recorded" = "$goversion" ]; then
    go run ./cmd/hermes-lint -update-alloclock ./...
else
    echo "lint-diff.sh: skipping alloc.lock identity gate: recorded toolchain ($recorded) != $goversion; run -update-alloclock on a matching toolchain" >&2
fi
for f in $locks; do
    cmp -s "$f" "$snapdir/$f" || stale="$stale $f"
done

if [ -n "$stale" ]; then
    echo "lint-diff.sh: stale committed artifact(s):$stale" >&2
    echo "lint-diff.sh: each was regenerated in place; review the diff and commit" >&2
    exit 1
fi
