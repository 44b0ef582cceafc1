package service

import "sync"

// flight is one in-progress pair build. Waiters block on done and read err
// after it closes.
type flight struct {
	done    chan struct{}
	err     error
	waiters int // followers that joined; guarded by flightGroup.mu
}

func (fl *flight) wait() error {
	<-fl.done
	return fl.err
}

// flightGroup elects one builder per key among concurrent requesters — the
// classic singleflight shape, small enough to carry no dependency. Unlike
// golang.org/x/sync's, it shares no return value: the build's result lands
// in the engine cache, which is where waiters re-read it, so a completed
// flight leaves nothing behind.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

// join returns the in-progress flight for key and whether the caller was
// elected leader (i.e. created it). The leader must call leave exactly once.
func (g *flightGroup) join(key string) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if fl, ok := g.m[key]; ok {
		fl.waiters++
		return fl, false
	}
	if g.m == nil {
		g.m = make(map[string]*flight)
	}
	fl := &flight{done: make(chan struct{})}
	g.m[key] = fl
	return fl, true
}

// leave publishes the leader's result and releases every waiter. The key is
// removed first, so a request arriving after a failed build starts a fresh
// flight instead of inheriting a stale error.
func (g *flightGroup) leave(key string, fl *flight, err error) {
	fl.err = err
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(fl.done)
}
