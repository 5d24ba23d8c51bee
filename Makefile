# Standard entry points; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short bench experiments figures selfcheck cover fuzz clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the full experiment report (EXPERIMENTS.md's source data).
experiments:
	$(GO) run ./cmd/experiments -scale 2 -seeds 3 -parallel | tee experiments_report.txt

# Render the SVG reproductions of the paper's figures into figs/.
figures:
	$(GO) run ./cmd/figures -out figs

selfcheck:
	$(GO) run ./cmd/selfcheck

cover:
	$(GO) test -cover ./...

# Brief fuzzing session over every fuzz target CI's fuzz-smoke job runs:
# the input parsers, service snapshot restore and the levelizer.
fuzz:
	$(GO) test -run xxx -fuzz FuzzReadProblem -fuzztime 30s ./internal/persist/
	$(GO) test -run xxx -fuzz FuzzReadNetwork -fuzztime 30s ./internal/persist/
	$(GO) test -run xxx -fuzz FuzzReadCampaignCheckpoint -fuzztime 30s ./internal/persist/
	$(GO) test -run xxx -fuzz FuzzServiceRestoreStep -fuzztime 30s ./internal/service/
	$(GO) test -run xxx -fuzz FuzzLevelize -fuzztime 30s ./internal/topo/

clean:
	rm -rf figs
	$(GO) clean -testcache
