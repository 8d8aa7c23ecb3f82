# Developer entry points; CI runs the same commands (.github/workflows).

GOMAXPROCS ?= 4

.PHONY: build test race flakes vet fmt tidy-check check loc

build:
	go build ./...

test:
	go test ./...

race:
	GOMAXPROCS=$(GOMAXPROCS) go test -race ./...

# Flake hunt (FLAKES.md): CI's -race set, K times, uncached, as go test
# -json. A failed run's full output stays under FLAKES_DIR/<start time>/;
# a passing run's is deleted. Ends with failure counts per test (a
# package-level failure — panic, timeout, build error — counts as "-").
K ?= 20
FLAKES_DIR ?= .flakes
flakes:
	@dir=$(FLAKES_DIR)/$$(date +%Y%m%d-%H%M%S); mkdir -p $$dir; failed=0; \
	for i in $$(seq 1 $(K)); do \
		out=$$dir/run-$$i.json; \
		if GOMAXPROCS=$(GOMAXPROCS) go test -race -count=1 -json ./... > $$out 2>&1; then \
			rm -f $$out; echo "run $$i/$(K): pass"; \
		else \
			failed=$$((failed + 1)); echo "run $$i/$(K): FAIL, output in $$out"; \
		fi; \
	done; \
	echo "$$failed of $(K) runs failed"; \
	for f in $$dir/run-*.json; do \
		[ -e "$$f" ] || continue; \
		grep '"Action":"fail"' "$$f" | \
			sed -e 's/.*"Package":"\([^"]*\)","Test":"\([^"]*\)".*/\1 \2/' \
			    -e 's/.*"Package":"\([^"]*\)"[,}].*/\1 -/' | sort -u; \
	done | sort | uniq -c | sort -rn

# The protocol-invariant analyzer suite (internal/analysis, DESIGN.md
# §1.10): standalone first for fast feedback, then through go vet's
# -vettool protocol, which is what covers in-package test files and
# composes with the build cache.
vet:
	go vet ./...
	go run ./cmd/autobahn-vet ./...
	go build -o $(CURDIR)/bin/autobahn-vet ./cmd/autobahn-vet
	go vet -vettool=$(CURDIR)/bin/autobahn-vet ./...

fmt:
	gofmt -l -w .

tidy-check:
	go mod tidy -diff
	go mod verify

check: build vet test tidy-check

# Non-test Go lines: the root module and benchmark/ (a module of its own)
# apart — the figure ROADMAP's "trends down" constraint quotes — then
# each of LOC_DIRS, for a PR that claims to have shrunk one.
LOC_DIRS ?= internal/core internal/lane cmd
loc:
	@count() { xargs -0 cat | wc -l; }; \
	printf '%-14s %6d\n' 'root module' "$$(find . \( -path ./benchmark -o -path ./.bench_build -o -path ./.git \) -prune -o -name '*.go' ! -name '*_test.go' -print0 | count)"; \
	for d in benchmark $(LOC_DIRS); do \
		printf '%-14s %6d\n' "$$d" "$$(find $$d -name '*.go' ! -name '*_test.go' -print0 | count)"; \
	done
