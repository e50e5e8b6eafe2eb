package httpsim

import (
	"h3cdn/internal/bufpool"
	"h3cdn/internal/quicsim"
	"h3cdn/internal/tcpsim"
)

// Pools aggregates every per-universe allocation arena the HTTP stack
// and its transports use. One simulation universe owns one Pools; all
// of its endpoints run on the universe's single scheduler goroutine, so
// reuse needs no locking, and — unlike process-global sync.Pools — the
// free lists survive garbage-collection cycles. A warm shard replays
// each visit out of the same allocation footprint.
//
// A nil *Pools is valid everywhere it is accepted: every accessor falls
// back to plain allocation (and the process-global bufpool), preserving
// standalone behavior in tests.
//
// Callers must invoke Rewind at visit boundaries only (scheduler
// drained, all connections closed); see DESIGN.md §4.17.
type Pools struct {
	// TCP, QUIC and Arena are the transport-layer arenas, handed to
	// endpoints by dialTLS/DialH3/StartServer.
	TCP   tcpsim.Pools
	QUIC  quicsim.Pools
	Arena bufpool.Arena

	// Canonical decode caches. Parsed requests and response header maps
	// are keyed by their wire bytes and shared by every consumer: the
	// corpus re-sends identical header blocks every visit, and consumers
	// (handlers, HAR entries) only ever read them. Never mutate a
	// Request or header map obtained from these caches.
	reqCache  map[string]*Request
	respCache map[string]map[string]string

	hdrBuf      []byte   // header-block assembly scratch
	keyBuf      []byte   // respCache key assembly scratch
	sortScratch []string // sorted header keys scratch

	h2Pendings []*h2Pending
	h2Resps    []*h2Response

	h3cliFree []*h3Stream
	h3cliLive []*h3Stream
	h3srvFree []*h3SrvStream
	h3srvLive []*h3SrvStream
}

// arena returns the buffer arena, nil-safe (a nil *bufpool.Arena falls
// back to the global pool inside bufpool).
func (pl *Pools) arena() *bufpool.Arena {
	if pl == nil {
		return nil
	}
	return &pl.Arena
}

// Rewind resets every per-visit pool at a visit boundary and returns
// the buffer arena's outstanding-buffer count (non-zero means a Get/Put
// leak). Only call once the scheduler has drained and the browser has
// closed every connection: pooled stream states may be touched by
// scheduled callbacks until then.
func (pl *Pools) Rewind() int64 {
	if pl == nil {
		return 0
	}
	pl.TCP.Rewind()
	pl.QUIC.Rewind()
	for _, st := range pl.h3cliLive {
		st.reset()
	}
	pl.h3cliFree = append(pl.h3cliFree, pl.h3cliLive...)
	clearH3Streams(pl.h3cliLive)
	pl.h3cliLive = pl.h3cliLive[:0]
	for _, ss := range pl.h3srvLive {
		ss.reset()
	}
	pl.h3srvFree = append(pl.h3srvFree, pl.h3srvLive...)
	clearH3SrvStreams(pl.h3srvLive)
	pl.h3srvLive = pl.h3srvLive[:0]
	return pl.Arena.Rewind()
}

func clearH3Streams(s []*h3Stream) {
	for i := range s {
		s[i] = nil
	}
}

func clearH3SrvStreams(s []*h3SrvStream) {
	for i := range s {
		s[i] = nil
	}
}

// --- per-request record pools ---

func (pl *Pools) getH2Pending(p h2Pending) *h2Pending {
	if pl != nil {
		if n := len(pl.h2Pendings); n > 0 {
			sp := pl.h2Pendings[n-1]
			pl.h2Pendings[n-1] = nil
			pl.h2Pendings = pl.h2Pendings[:n-1]
			*sp = p
			return sp
		}
	}
	sp := p
	return &sp
}

// putH2Pending recycles immediately: once OnComplete/OnError has fired
// the record is unreachable (h2Client holds the only reference, in the
// streams map, and has already deleted it).
func (pl *Pools) putH2Pending(p *h2Pending) {
	if pl == nil {
		return
	}
	*p = h2Pending{}
	pl.h2Pendings = append(pl.h2Pendings, p)
}

func (pl *Pools) getH2Response(id uint32, remaining int) *h2Response {
	if pl != nil {
		if n := len(pl.h2Resps); n > 0 {
			r := pl.h2Resps[n-1]
			pl.h2Resps[n-1] = nil
			pl.h2Resps = pl.h2Resps[:n-1]
			r.id, r.remaining = id, remaining
			return r
		}
	}
	return &h2Response{id: id, remaining: remaining}
}

func (pl *Pools) putH2Response(r *h2Response) {
	if pl == nil {
		return
	}
	pl.h2Resps = append(pl.h2Resps, r)
}

// getH3Stream hands out a client stream state. Pooled states live until
// the visit-boundary Rewind rather than being recycled on completion: a
// late transport event (duplicate retransmission after finish) may
// still invoke the stream's data callback, which must find the state it
// was bound to, not a reused one.
func (pl *Pools) getH3Stream(c *h3Client, req *Request, ev RequestEvents) *h3Stream {
	var st *h3Stream
	if pl != nil {
		if n := len(pl.h3cliFree); n > 0 {
			st = pl.h3cliFree[n-1]
			pl.h3cliFree[n-1] = nil
			pl.h3cliFree = pl.h3cliFree[:n-1]
		}
	}
	if st == nil {
		st = &h3Stream{}
		// Bound once per struct lifetime; reads st.c at call time so the
		// closure survives pooling.
		sp := st
		st.dataFn = func(data []byte) { sp.c.onStreamData(sp, data) }
	}
	st.c = c
	st.req = req
	st.ev = ev
	if pl != nil {
		pl.h3cliLive = append(pl.h3cliLive, st)
	}
	return st
}

// getH3SrvStream hands out a server stream state bound to one QUIC
// stream; same live-until-Rewind discipline as getH3Stream.
func (pl *Pools) getH3SrvStream(srv *h3Server, st *quicsim.Stream) *h3SrvStream {
	var ss *h3SrvStream
	if pl != nil {
		if n := len(pl.h3srvFree); n > 0 {
			ss = pl.h3srvFree[n-1]
			pl.h3srvFree[n-1] = nil
			pl.h3srvFree = pl.h3srvFree[:n-1]
		}
	}
	if ss == nil {
		ss = &h3SrvStream{}
		sp := ss
		ss.dataFn = func(data []byte) { sp.onData(data) }
		ss.respondFn = func(resp Response) { sp.respond(resp) }
	}
	ss.srv = srv
	ss.st = st
	if pl != nil {
		pl.h3srvLive = append(pl.h3srvLive, ss)
	}
	return ss
}
