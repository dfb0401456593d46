// Package runkey defines the single canonical cache/identity key for
// a deterministic simulation run. Every layer that names a run gets
// its key from expt.Cell.Key / expt.SweepSpec.Key — the only callers
// of Key, SweepKey and WithDynamics — so a sweep cell and an
// individually submitted run with the same parameters hit the same
// result-cache entry instead of re-simulating.
package runkey

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// Key renders the canonical key of one run: every field that
// influences the simulation outcome, and nothing else. The format is
// stable — cached results and job IDs depend on it.
func Key(algorithm, workload string, n int, seed int64, maxRounds int) string {
	return fmt.Sprintf("%s|%s|n=%d|seed=%d|maxr=%d", algorithm, workload, n, seed, maxRounds)
}

// ShortHash is an 8-hex-digit digest of a key, used in human-visible
// identifiers (job IDs) where the full key is too long.
func ShortHash(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:4])
}

// Hash is a 16-hex-digit digest of a key, used where a key must name
// a filesystem object (journal files) — long enough that grids sharing
// a data dir never collide in practice, short enough for directory
// listings to stay readable.
func Hash(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:8])
}

// ShardKey renders the canonical key of one planned shard of a sweep
// grid: the parent sweep key plus the shard's index and cell range in
// canonical cell order. The fleet coordinator names shards by hashes
// of this key, so a shard keeps its identity across re-dispatches to
// different workers. Like Key, the format is stable.
func ShardKey(sweepKey string, index, offset, cells int) string {
	return fmt.Sprintf("%s|shard=%d|off=%d|cells=%d", sweepKey, index, offset, cells)
}

// SweepKey renders the canonical key of a sweep grid: the dimension
// lists in submission order plus the shared round-limit override. Two
// sweeps with equal keys enumerate identical cells, cell for cell.
// Like Key, the format is stable — sweep job IDs hash it.
func SweepKey(algorithms, workloads []string, sizes []int, seeds []int64, maxRounds int) string {
	var b strings.Builder
	b.WriteString("sweep|a=")
	b.WriteString(strings.Join(algorithms, ","))
	b.WriteString("|w=")
	b.WriteString(strings.Join(workloads, ","))
	b.WriteString("|n=")
	for i, n := range sizes {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", n)
	}
	b.WriteString("|seed=")
	for i, s := range seeds {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", s)
	}
	fmt.Fprintf(&b, "|maxr=%d", maxRounds)
	return b.String()
}

// WithDynamics extends a run or sweep key with a dynamics-environment
// key (dynamics.Spec.Key). An empty dyn returns the key unchanged, so
// every pre-dynamics key — cached results, journal names, job IDs —
// stays byte-identical.
func WithDynamics(key, dyn string) string {
	if dyn == "" {
		return key
	}
	return key + "|dyn=" + dyn
}
