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
	outcome              *expt.Outcome // the run's, set before a success is cached
}

// close ends the log once the producer is done with it.
func (rp *replay) close() {
	rp.scratch = nil
	rp.log.close()
}

// FrameBytes is the bytes /rounds and /topology?format=packed serve
// for the records the log holds.
func (rp *replay) FrameBytes() int64 { return rp.log.FrameBytes() }

// lru is a fixed-capacity least-recently-used map over string keys; a
// capacity of zero or less holds nothing. The manager keeps two: run
// replays, whose records are tens of kilobytes, and the outcome index,
// whose packed outcomes are tens of bytes.
type lru[V any] struct {
	mu           sync.Mutex
	cap          int
	ll           *list.List // front = most recently used
	items        map[string]*list.Element
	hits, misses int64
}

type lruItem[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns key's value and promotes it to most recently used.
func (c *lru[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

// Add stores (or replaces) key's value, evicting the least recently
// used item when over capacity.
func (c *lru[V]) Add(key string, v V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruItem[V]).val = v
		return
	}
	c.items[key] = c.ll.PushFront(&lruItem[V]{key: key, val: v})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruItem[V]).key)
	}
}

// values lists the values held, most recently used first.
func (c *lru[V]) values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	vals := make([]V, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		vals = append(vals, el.Value.(*lruItem[V]).val)
	}
	return vals
}

// Stats reports (size, hits, misses).
func (c *lru[V]) Stats() (int, int64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.hits, c.misses
}
