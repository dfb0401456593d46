package service

import (
	"container/list"
	"sync"
	"time"

	"adnet/internal/expt"
)

// replay is a run job's one frame log — record 0 the header, record i
// round i (topology.go) — that /rounds and both /topology formats render
// from. The job that executes owns it; once it is done it is complete,
// and every cache-hit job for the same key points at the same one — the
// records the run packed are the records a replay renders.
type replay struct {
	log *frameLog
	// scratch is the producer's packing buffer; a record is copied out
	// of it at its exact size.
	scratch []byte
	// headerObs and recordObs observe each packed record (the
	// encode-once instruments on /metrics); bare replays leave them nil.
	headerObs, recordObs func(time.Duration)
}

// close ends the log once the producer is done with it.
func (rp *replay) close() {
	rp.scratch = nil
	rp.log.close()
}

// FrameBytes is the bytes /rounds and /topology?format=packed serve
// for the records the log holds.
func (rp *replay) FrameBytes() int64 { return rp.log.FrameBytes() }

// cacheEntry is the product of one successful run: its outcome and,
// when a run job executed it, that job's own streams. An outcome-only
// entry (replay nil: written by a sweep cell or by Recover, neither of
// which has streams) answers sweep cells and nothing else — a run
// submission that finds one executes, which by determinism yields the
// same outcome, and upgrades the entry.
type cacheEntry struct {
	Outcome expt.Outcome
	replay  *replay
}

// resultCache is a fixed-capacity LRU over cacheEntry keyed by
// RunSpec.Key(). Only successful runs are stored — failures may be
// transient (time limits) and are cheap to refuse to cache.
type resultCache struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently used
	items  map[string]*list.Element
	hits   int64
	misses int64
}

type lruItem struct {
	key   string
	entry cacheEntry
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// Get returns the cached entry and promotes it to most recently used.
// With needReplay an outcome-only entry is a miss.
func (c *resultCache) Get(key string, needReplay bool) (cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok || (needReplay && el.Value.(*lruItem).entry.replay == nil) {
		c.misses++
		return cacheEntry{}, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem).entry, true
}

// Add stores (or refreshes) an entry, evicting the least recently
// used item when over capacity. An outcome-only entry never replaces
// one that carries a replay: a sweep cell that raced a run of the same
// key to the cache must not strip the run's streams from it.
func (c *resultCache) Add(key string, e cacheEntry) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		if item := el.Value.(*lruItem); e.replay != nil || item.entry.replay == nil {
			item.entry = e
		}
		return
	}
	c.items[key] = c.ll.PushFront(&lruItem{key: key, entry: e})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruItem).key)
	}
}

// replays is the set of replays the cache holds — those of finished
// jobs the job table has let go of included; outcome-only entries have none.
func (c *resultCache) replays() map[*replay]struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	held := make(map[*replay]struct{}, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if rp := el.Value.(*lruItem).entry.replay; rp != nil {
			held[rp] = struct{}{}
		}
	}
	return held
}

// Stats reports (size, hits, misses).
func (c *resultCache) Stats() (int, int64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.hits, c.misses
}
