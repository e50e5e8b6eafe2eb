package tcpsim

import "h3cdn/internal/bufpool"

// Send-buffer size classes: powers of two from 4KB to 8MB. The ceiling
// caps retention: a busier conn falls back to plain allocation, and its
// array is dropped for the collector once released.
const (
	minSendBufBits = 12 // 4KB
	maxSendBufBits = 23 // 8MB
	sendBufClasses = maxSendBufBits - minSendBufBits + 1
)

// Pools is a per-universe free list for TCP allocations. All endpoints
// of one universe share it on one scheduler goroutine, so reuse needs no
// locking and — unlike the global sync.Pool fallback — survives GC: a
// warm shard replays each visit out of one allocation footprint.
//
// A nil *Pools is valid and falls back to the global pool (segments) or
// plain allocation (buffers, conns).
//
// Segments recycle at delivery (the network calls Release after the
// handler returns). Each in-flight segment holds the send array its
// payload aliases; an array its conn outgrew or tore down recycles on
// its last hold. Conn structs quarantine until the visit-boundary
// Rewind: late closures (reset probes, stray duplicate deliveries) may
// read a torn-down conn's fields until the scheduler drains.
type Pools struct {
	segs     []*segment
	sendBufs [sendBufClasses][]*sendArray
	held     int // segment holds outstanding on send arrays

	conns        []*Conn
	retiredConns []*Conn
}

// sendArray is a send-buffer backing array (full capacity) with its
// count of aliasing in-flight segments.
type sendArray struct {
	buf     []byte
	holds   int
	retired bool
}

// sendBufClass maps a capacity to its class index, or -1 when the
// capacity is not an exact class size (or out of range).
func sendBufClass(c int) int {
	if c < 1<<minSendBufBits || c > 1<<maxSendBufBits || c&(c-1) != 0 {
		return -1
	}
	idx := 0
	for s := 1 << minSendBufBits; s < c; s <<= 1 {
		idx++
	}
	return idx
}

// growSendBuf returns an array of capacity >= need (at least doubling)
// holding buf's contents, and retires old, the array buf lives in.
func (pl *Pools) growSendBuf(old *sendArray, buf []byte, need int) (*sendArray, []byte) {
	newCap := 1 << minSendBufBits
	if c := cap(buf); c*2 > newCap {
		newCap = c * 2
	}
	for newCap < need {
		newCap *= 2
	}
	var a *sendArray
	if cls := sendBufClass(newCap); pl != nil && cls >= 0 {
		if lst := pl.sendBufs[cls]; len(lst) > 0 {
			a = lst[len(lst)-1]
			lst[len(lst)-1] = nil
			pl.sendBufs[cls] = lst[:len(lst)-1]
			a.retired = false
		}
	}
	if a == nil {
		a = &sendArray{buf: make([]byte, newCap)}
	}
	nb := a.buf[:len(buf)]
	copy(nb, buf)
	pl.retireSendArray(old)
	return a, nb
}

// retireSendArray marks a send array unused by its conn (a is nil
// before the first write) and recycles it unless a segment still holds
// it; the last hold's Release calls it again.
func (pl *Pools) retireSendArray(a *sendArray) {
	if a == nil {
		return
	}
	a.retired = true
	if a.holds > 0 {
		return
	}
	bufpool.Poison(a.buf)
	if cls := sendBufClass(len(a.buf)); pl != nil && cls >= 0 {
		pl.sendBufs[cls] = append(pl.sendBufs[cls], a)
	}
}

// Held reports the segment holds outstanding (zero once drained).
func (pl *Pools) Held() int { return pl.held }

// getConn pops a recycled conn (fields zeroed at Rewind), or nil.
func (pl *Pools) getConn() *Conn {
	if pl == nil || len(pl.conns) == 0 {
		return nil
	}
	n := len(pl.conns) - 1
	c := pl.conns[n]
	pl.conns[n] = nil
	pl.conns = pl.conns[:n]
	return c
}

// retireConn quarantines a torn-down conn until Rewind. The struct is
// NOT zeroed here: error delivery and late probe closures still read its
// fields after teardown, so reset happens at promotion time instead.
func (pl *Pools) retireConn(c *Conn) {
	if pl == nil {
		return
	}
	pl.retiredConns = append(pl.retiredConns, c)
}

// Rewind promotes quarantined conns to the free list. Visit boundaries
// only: the scheduler has drained, so nothing references them.
func (pl *Pools) Rewind() {
	if pl == nil {
		return
	}
	for i, c := range pl.retiredConns {
		c.reset()
		pl.conns = append(pl.conns, c)
		pl.retiredConns[i] = nil
	}
	pl.retiredConns = pl.retiredConns[:0]
}
