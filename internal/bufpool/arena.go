package bufpool

// Arena is a thread-confined buffer recycler with the same size classes
// as the package-level pools, for callers that own a single-goroutine
// region (one simulation universe). Unlike sync.Pool, an Arena is never
// drained by the garbage collector: a warm shard reaches a steady state
// where every visit is served from the same allocation footprint.
//
// The zero value is ready to use. A nil *Arena is valid and falls back
// to the global pools, so transports can be plumbed unconditionally.
//
// Ownership rule: every buffer obtained from Get must come back through
// Put exactly once, before the owning universe's visit-boundary Rewind.
// Stats tracks the balance; RunVisit leak checks assert Gets == Puts.
type Arena struct {
	free  [numClasses][][]byte
	stats ArenaStats
}

// ArenaStats counts arena traffic. Gets/Puts/News are cumulative;
// InUse is the current outstanding balance (Gets - Puts) and HighWater
// its maximum, i.e. the steady-state working set in buffers.
type ArenaStats struct {
	Gets      uint64
	Puts      uint64
	News      uint64
	InUse     int64
	HighWater int64
}

// Get returns a buffer with len(buf) == n. Contents are arbitrary.
func (a *Arena) Get(n int) []byte {
	if a == nil {
		return Get(n)
	}
	a.stats.Gets++
	a.stats.InUse++
	if a.stats.InUse > a.stats.HighWater {
		a.stats.HighWater = a.stats.InUse
	}
	c := classFor(n)
	if c < 0 {
		a.stats.News++
		return make([]byte, n)
	}
	if l := len(a.free[c]); l > 0 {
		buf := a.free[c][l-1]
		a.free[c][l-1] = nil
		a.free[c] = a.free[c][:l-1]
		return buf[:n]
	}
	a.stats.News++
	buf := make([]byte, 1<<(minClassBits+c))
	return buf[:n]
}

// Put returns a buffer obtained from Get. Buffers whose capacity is not
// an exact size class (over-max Gets) are dropped for the collector but
// still counted, so the Gets/Puts balance stays meaningful.
func (a *Arena) Put(buf []byte) {
	if a == nil {
		Put(buf)
		return
	}
	a.stats.Puts++
	a.stats.InUse--
	Poison(buf[:cap(buf)])
	c := capClass(cap(buf))
	if c < 0 {
		return
	}
	a.free[c] = append(a.free[c], buf[:cap(buf)])
}

// Stats returns a snapshot of the arena counters.
func (a *Arena) Stats() ArenaStats {
	if a == nil {
		return ArenaStats{}
	}
	return a.stats
}

// Rewind marks a visit boundary: all wire copies are dead (the scheduler
// has drained) and every buffer should have been Put back. It returns
// the outstanding balance — non-zero means a leak (or a buffer retained
// across visits, which the ownership rule forbids). The free lists are
// kept, not released: that is the point of the arena.
func (a *Arena) Rewind() int64 {
	if a == nil {
		return 0
	}
	return a.stats.InUse
}
