// Package service turns the deterministic simulation engine
// (internal/sim + internal/expt) into an always-on backend: a bounded
// job manager executes canonical RunSpecs, an LRU cache serves
// repeated specs without re-simulation (runs are deterministic by
// seed), and each round's record — its statistics and its edits — is
// published to stream subscribers via sim.WithDeltaHook. The HTTP
// surface over this lives in api.go and is served by cmd/adnet-server.
package service

import (
	"fmt"

	"adnet/internal/expt"
)

// DefaultMaxN caps spec sizes unless the manager configures its own
// limit; it keeps a single request from monopolizing the pool.
const DefaultMaxN = 1 << 16

// The service's request bodies and wire lines are the expt types
// themselves: expt owns what a run is (spec, key, validation, wire
// form), the service adds only its own limits. The names stay because
// clients — the benchmark among them — compile against them.
type (
	// RunSpec is the body of POST /v1/runs.
	RunSpec = expt.Cell
	// SweepSpec is the body of POST /v1/sweeps.
	SweepSpec = expt.SweepSpec
	// SweepCell is one line of a sweep's NDJSON cell stream.
	SweepCell = expt.WireCell
	// SweepSummary trails the cell stream with sweep-level totals.
	SweepSummary = expt.WireSummary
)

// validateSweep checks spec and holds it to the service's own limits:
// sizes against maxN, the grid volume against maxCells (0 disables).
// Runs are held to them as one-cell grids (RunSpec.Grid).
func validateSweep(spec SweepSpec, maxN, maxCells int) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	for _, n := range spec.Sizes {
		if n > maxN {
			return fmt.Errorf("n=%d exceeds the service limit %d", n, maxN)
		}
	}
	if cells := spec.NumCells(); maxCells > 0 && cells > maxCells {
		return fmt.Errorf("sweep has %d cells, exceeding the service limit %d", cells, maxCells)
	}
	return nil
}
