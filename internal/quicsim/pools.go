package quicsim

// Pend-buffer size classes: powers of two from 4KB to 8MB. Growth always
// routes through growPend, so every pooled pend array has an exact class
// capacity.
const (
	minPendBits = 12 // 4KB
	maxPendBits = 23 // 8MB
	pendClasses = maxPendBits - minPendBits + 1
)

// Pools is a per-universe arena for the transport's per-packet and
// per-stream records: packets, frames arrays, sentPacket and ackFrame
// records, streamFrame structs, and Stream objects. One simulation
// universe shares a single Pools across all of its endpoints; every
// endpoint runs on the universe's one scheduler goroutine, so reuse
// needs no locking. Free lists persist across visits — a warm shard
// replays each visit out of the same allocation footprint.
//
// A nil *Pools is valid everywhere it is accepted and falls back to the
// process-global sync.Pools (packets) or plain allocation (records),
// preserving standalone-endpoint behavior in tests.
//
// Recycling discipline (see DESIGN.md §4.17): packets recycle via
// simnet's Release after delivery or drop; frames arrays, ackFrames and
// sentPacket records recycle on definitive ACK retirement only;
// streamFrame structs are reference-counted (one hold per in-flight
// record) because a PTO probe may copy a frame pointer into a second
// record; Streams retire at connection teardown but are quarantined on
// a retired list until the visit-boundary Rewind, because scheduled
// application callbacks may still touch them until the scheduler drains.
// A retired Stream's pend array goes back to its class free list at
// Rewind rather than staying attached: a pooled Stream that kept its pend
// would ratchet to the largest body it ever carried, so the pool's
// footprint would grow with the number of visits instead of with one
// visit's demand.
type Pools struct {
	packets []*packet
	ackPkts []*packet
	frames  [][]frame
	sents   []*sentPacket
	acks    []*ackFrame
	sframes []*streamFrame
	streams []*Stream
	retired []*Stream

	pendBufs     [pendClasses][][]byte
	retiredPends [][]byte
}

// pendClass maps a capacity to its class index, or -1 when it is not an
// exact class size.
func pendClass(c int) int {
	if c < 1<<minPendBits || c > 1<<maxPendBits || c&(c-1) != 0 {
		return -1
	}
	idx := 0
	for s := 1 << minPendBits; s < c; s <<= 1 {
		idx++
	}
	return idx
}

// growPend returns a buffer with the contents of buf and capacity at
// least need, amortizing growth by at least doubling. The outgrown array
// is quarantined until Rewind, not freed: in-flight stream frames alias
// zero-copy windows of it and keep reading until the scheduler drains.
// With a nil Pools it degrades to plain doubling allocation.
func (pl *Pools) growPend(buf []byte, need int) []byte {
	newCap := 1 << minPendBits
	if c := cap(buf); c*2 > newCap {
		newCap = c * 2
	}
	for newCap < need {
		newCap *= 2
	}
	var nb []byte
	if cls := pendClass(newCap); pl != nil && cls >= 0 {
		if lst := pl.pendBufs[cls]; len(lst) > 0 {
			nb = lst[len(lst)-1][:0]
			lst[len(lst)-1] = nil
			pl.pendBufs[cls] = lst[:len(lst)-1]
		}
	}
	if nb == nil {
		nb = make([]byte, 0, newCap)
	}
	nb = nb[:len(buf)]
	copy(nb, buf)
	if pl != nil && cap(buf) > 0 {
		pl.retiredPends = append(pl.retiredPends, buf[:0])
	}
	return nb
}

func (pl *Pools) newStreamFrame(id, off uint64, data []byte) *streamFrame {
	if pl == nil {
		return &streamFrame{id: id, off: off, data: data, holds: 1}
	}
	if n := len(pl.sframes); n > 0 {
		sf := pl.sframes[n-1]
		pl.sframes = pl.sframes[:n-1]
		sf.id, sf.off, sf.data, sf.fin, sf.holds = id, off, data, false, 1
		return sf
	}
	return &streamFrame{id: id, off: off, data: data, holds: 1}
}

// releaseHold drops one record's hold on sf and recycles the struct once
// no in-flight record references it. The data alias is dropped at
// recycle time; the bytes themselves belong to the sending stream.
func (pl *Pools) releaseHold(sf *streamFrame) {
	sf.holds--
	if sf.holds > 0 || pl == nil {
		return
	}
	sf.data = nil
	pl.sframes = append(pl.sframes, sf)
}

// newStream returns a reset Stream bound to c. The chunks map is
// retained across reuses.
func (pl *Pools) newStream(c *Conn, id uint64) *Stream {
	if pl != nil {
		if n := len(pl.streams); n > 0 {
			s := pl.streams[n-1]
			pl.streams[n-1] = nil
			pl.streams = pl.streams[:n-1]
			s.conn = c
			s.id = id
			return s
		}
	}
	return &Stream{conn: c, id: id, chunks: make(map[uint64][]byte)}
}

// retire quarantines a dead connection's stream until Rewind. Pending
// application callbacks (e.g. a server response scheduled before the
// close) may still call Write/CloseWrite on it; those become no-ops on
// the closed conn, which requires the struct to stay intact until the
// scheduler has provably drained.
func (pl *Pools) retire(s *Stream) {
	if pl == nil {
		return
	}
	pl.retired = append(pl.retired, s)
}

// Rewind promotes retired streams to the free list. Callers must only
// invoke it at a visit boundary: the scheduler has drained, so no wire
// copy aliases any pend buffer and no callback can reach a retired
// stream again.
func (pl *Pools) Rewind() {
	if pl == nil {
		return
	}
	for _, s := range pl.retired {
		if cls := pendClass(cap(s.pend)); cls >= 0 {
			pl.pendBufs[cls] = append(pl.pendBufs[cls], s.pend[:0])
		}
		chunks := s.chunks
		clear(chunks)
		*s = Stream{chunks: chunks}
	}
	pl.streams = append(pl.streams, pl.retired...)
	clearStreams(pl.retired)
	pl.retired = pl.retired[:0]
	for i, buf := range pl.retiredPends {
		if cls := pendClass(cap(buf)); cls >= 0 {
			pl.pendBufs[cls] = append(pl.pendBufs[cls], buf)
		}
		pl.retiredPends[i] = nil
	}
	pl.retiredPends = pl.retiredPends[:0]
}

func clearStreams(s []*Stream) {
	for i := range s {
		s[i] = nil
	}
}
