package fleet

// SetSeq sets the registration counter, so the next worker registered
// is number seq+1.
func SetSeq(c *Coordinator, seq int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq = seq
}
