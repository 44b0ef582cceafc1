package service

// WaitCommitterIdle blocks until d's group committer has no drain goroutine
// running: every queued commit is resolved and the idle checkpoint that ends
// a drain has run. A test that waits after each commit makes the session's
// file operations the same on every run.
func WaitCommitterIdle(d *Dataset) {
	c := &d.committer
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.running {
		c.cond.Wait()
	}
}
