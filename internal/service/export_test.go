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

// HoldFlight makes the caller the singleflight leader of the pair's build
// without building anything, as a request queued for the dataset mutex
// would be. The returned func ends the flight with err, releasing its
// followers.
func HoldFlight(d *Dataset, olderID, newerID string) func(err error) {
	key := pairKey(olderID, newerID)
	fl, leader := d.flights.join(key)
	if !leader {
		panic("HoldFlight: the pair already has a flight")
	}
	return func(err error) { d.flights.leave(key, fl, err) }
}

// FlightWaiters reports how many followers have joined the pair's current
// flight (0 when none is in progress).
func FlightWaiters(d *Dataset, olderID, newerID string) int {
	d.flights.mu.Lock()
	defer d.flights.mu.Unlock()
	if fl, ok := d.flights.m[pairKey(olderID, newerID)]; ok {
		return fl.waiters
	}
	return 0
}
