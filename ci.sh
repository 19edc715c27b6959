#!/bin/sh
# ci.sh — the repo's continuous-integration gate, runnable locally.
#
#   ./ci.sh          vet + riskvet + build + race-enabled tests, then vet,
#                    build and test the perfbench module (its own go.mod, so
#                    the root ./... never compiles it)
#   ./ci.sh -short   same, with -short tests plus brief fuzz runs of the
#                    two parser fuzzers against their committed corpora
#   ./ci.sh -serve   additionally run the riskd serving smoke test
#                    (ephemeral port, health probe, assess round-trip,
#                    cached repeat, clean shutdown)
#   ./ci.sh -lint    additionally run staticcheck and govulncheck when they
#                    are installed (each is skipped with a notice otherwise;
#                    this container has no network to fetch them)
#   ./ci.sh -chaos   additionally run the fault-injection chaos suite under
#                    -race (fixed seeds, see internal/chaos) and the riskd
#                    -selfcheck-chaos end-to-end drill, which exits non-zero
#                    on any invariant violation
#   ./ci.sh -registry  additionally exercise the experiment run registry end
#                    to end: record a Quick run of all ten experiments into a
#                    throwaway store, replay every recorded run bit-for-bit,
#                    then diff each fresh run against the committed baseline
#                    under internal/experiments/testdata/registry/ (exit 3
#                    from `experiments diff` — any changed cell — fails CI)
#   ./ci.sh -delta   additionally run the incremental-assessment suite under
#                    -race (delta/full equivalence across dataset, bipartite,
#                    core, recipe; the /v1/assess/delta and subscribe server
#                    tests; the client Retry-After and SSE tests) plus the
#                    riskd -selfcheck smoke, whose delta leg evolves a
#                    release through a subscribe stream end to end
#   ./ci.sh -escape-update  regenerate the kernel escape-analysis baseline
#                    (internal/analysis/escapegate/baseline.txt) before
#                    gating, for use after a deliberate allocation change
#
# riskvet is the repo's own analyzer suite (see internal/analysis and
# DESIGN.md §10/§15): cachetaint, ctxbudget, detrand, errcmp, floateq,
# loopbudget, maporder, retrysleep, streamticker, plus the //lint:allow
# suppression ledger, whose stale or unreasoned entries fail the gate. It
# runs as a standalone binary rather than `go vet -vettool`
# because the unitchecker protocol lives in golang.org/x/tools, which the
# offline build cannot depend on. riskvet -escape is the static
# escape-analysis gate: kernel heap escapes must match the committed
# baseline, in both directions (new escapes and stale entries both fail).
#
# Flags combine in any order: ./ci.sh -short -serve -lint -chaos -registry
# -delta -escape-update. Exits non-zero on the first failure.
set -eu
cd "$(dirname "$0")"

short=""
serve=""
lint=""
chaos=""
registry=""
delta=""
escape_update=""
for arg in "$@"; do
	case "$arg" in
	-short) short="-short" ;;
	-serve) serve="yes" ;;
	-lint) lint="yes" ;;
	-chaos) chaos="yes" ;;
	-registry) registry="yes" ;;
	-delta) delta="yes" ;;
	-escape-update) escape_update="yes" ;;
	*)
		echo "ci.sh: unknown flag: $arg" >&2
		echo "usage: ./ci.sh [-short] [-serve] [-lint] [-chaos] [-registry] [-delta] [-escape-update]" >&2
		exit 2
		;;
	esac
done

echo "== go vet =="
go vet ./...

echo "== riskvet =="
go build -o riskvet ./cmd/riskvet
./riskvet ./...

echo "== escape gate (kernel heap escapes vs committed baseline) =="
if [ -n "$escape_update" ]; then
	./riskvet -escape-update
fi
./riskvet -escape
rm -f riskvet

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race $short ./...

echo "== perfbench (vet, build, test) =="
(cd perfbench && go vet ./... && go build -o /dev/null ./... && go test ./...)

if [ -n "$short" ]; then
	echo "== fuzz (committed corpora, 5s each) =="
	go test -run '^$' -fuzz '^FuzzReadFIMI$' -fuzztime 5s ./internal/dataset/
	go test -run '^$' -fuzz '^FuzzBeliefParse$' -fuzztime 5s ./internal/belief/
fi

if [ -n "$lint" ]; then
	echo "== lint extras =="
	if command -v staticcheck >/dev/null 2>&1; then
		staticcheck ./...
	else
		echo "ci.sh: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"
	fi
	if command -v govulncheck >/dev/null 2>&1; then
		govulncheck ./...
	else
		echo "ci.sh: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"
	fi
fi

if [ -n "$serve" ]; then
	echo "== riskd serving smoke test =="
	go run ./cmd/riskd -selfcheck
fi

if [ -n "$chaos" ]; then
	echo "== chaos suite (fault injection, -race, fixed seeds) =="
	go test -race -count=1 ./internal/chaos/
	echo "== riskd selfcheck-chaos =="
	go run ./cmd/riskd -selfcheck-chaos
fi

if [ -n "$registry" ]; then
	echo "== experiment registry (record, replay, diff vs baseline) =="
	go build -o experiments_ci ./cmd/experiments
	regdir="$(mktemp -d)"
	trap 'rm -rf "$regdir" experiments_ci' EXIT
	./experiments_ci run -quick -seed 1 -workers 2 -registry "$regdir" >/dev/null
	ids="$(./experiments_ci list -registry "$regdir" -porcelain | cut -f1)"
	# shellcheck disable=SC2086 — ULIDs never contain whitespace
	./experiments_ci replay -registry "$regdir" $ids
	baseline="internal/experiments/testdata/registry/runs"
	if [ -d "$baseline" ]; then
		# Merge the committed baseline into the throwaway store, then diff
		# oldest (baseline — ULIDs sort chronologically) against newest
		# (just recorded) per experiment. diff exits 3 on any changed cell,
		# which set -e turns into a CI failure.
		cp -R "$baseline"/. "$regdir/runs/"
		./experiments_ci list -registry "$regdir" -porcelain | sort |
			awk -F'\t' '{ if (!($2 in first)) first[$2] = $1; last[$2] = $1 }
				END { for (e in first) if (first[e] != last[e]) print first[e], last[e] }' |
			while read -r old new; do
				echo "-- diff $old (baseline) vs $new (fresh) --"
				./experiments_ci diff -registry "$regdir" "$old" "$new"
			done
	else
		echo "ci.sh: no committed baseline at $baseline; skipping drift diff"
	fi
	rm -rf "$regdir" experiments_ci
	trap - EXIT
fi

if [ -n "$delta" ]; then
	echo "== incremental assessment suite (-race) =="
	# The delta path's whole claim is bit-for-bit equivalence with a full
	# rebuild, so this runs the equivalence proofs at every layer plus the
	# serving/client protocol tests in one focused, race-enabled pass.
	go test -race -count=1 \
		-run 'Diff|Delta|Rebin|Subscribe|RetryAfter' \
		./internal/dataset/ ./internal/bipartite/ ./internal/core/ \
		./internal/recipe/ ./internal/server/ ./internal/riskclient/
	echo "== riskd delta + subscribe smoke =="
	go run ./cmd/riskd -selfcheck
fi

echo "ci: OK"
