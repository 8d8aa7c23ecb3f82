# Developer entry points; CI runs the same commands (.github/workflows).

GOMAXPROCS ?= 4

.PHONY: build test race vet fmt tidy-check check loc

build:
	go build ./...

test:
	go test ./...

race:
	GOMAXPROCS=$(GOMAXPROCS) go test -race ./...

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
