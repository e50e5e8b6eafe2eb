package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"h3cdn/internal/cdn"
	"h3cdn/internal/httpsim"
	"h3cdn/internal/quicsim"
	"h3cdn/internal/seqrand"
	"h3cdn/internal/simnet"
	"h3cdn/internal/sketch"
	"h3cdn/internal/tcpsim"
	"h3cdn/internal/tlssim"
)

// The isolated layer benches time one layer at a time through its
// public API, on a two-host network with a 10 ms one-way, 100 Mbit/s
// path: clean, or with the bursty workload's impairment. Each runs
// layerRepeats times and reports the median.
const (
	layerRepeats = 3
	pathDelay    = 10 * time.Millisecond
	pathBps      = 100e6
	bulkBytes    = 2 << 20
	// httpReqs requests of httpBody bytes go over one connection.
	httpReqs = 64
	httpBody = 10_000
)

// pair is a scheduler and network holding a client and a server host.
type pair struct {
	sched          *simnet.Scheduler
	client, server *simnet.Host
}

func newPair(impaired bool, seed uint64) pair {
	props := simnet.PathProps{Delay: pathDelay, BandwidthBps: pathBps}
	if impaired {
		props.Impair = burstyImpairment()
	}
	sched := &simnet.Scheduler{MaxEvents: 100_000_000}
	n := simnet.NewNetwork(sched, func(src, dst simnet.Addr) simnet.PathProps { return props }, seqrand.New(seed))
	return pair{sched: sched, client: n.AddHost("client"), server: n.AddHost("server")}
}

func (p pair) run() error {
	_, err := p.sched.Run()
	return err
}

// cost is one layer measurement: host time and heap bytes allocated.
type cost struct {
	wall  time.Duration
	alloc uint64
}

// measureLayer runs fn layerRepeats times and returns the median host
// time and allocation of a run.
func measureLayer(fn func() error) (cost, error) {
	var walls, allocs []float64
	var ms runtime.MemStats
	for i := 0; i < layerRepeats; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		t0 := time.Now()
		if err := fn(); err != nil {
			return cost{}, err
		}
		walls = append(walls, float64(time.Since(t0)))
		runtime.ReadMemStats(&ms)
		allocs = append(allocs, float64(ms.TotalAlloc-a0))
	}
	return cost{wall: time.Duration(median(walls)), alloc: uint64(median(allocs))}, nil
}

// layerBenches runs every isolated layer bench and sets its metrics.
func layerBenches(res *result) error {
	type layerRun struct {
		name string
		run  func(*result) error
	}
	for _, d := range []layerRun{
		{"simnet", simnetBench},
		{"tcpsim", tcpBench},
		{"tlssim", tlsBench},
		{"quicsim", quicBench},
		{"httpsim", httpBench},
		{"cdn", cdnBench},
		{"sketch", sketchBench},
	} {
		if err := d.run(res); err != nil {
			return fmt.Errorf("%s bench: %w", d.name, err)
		}
	}
	return nil
}

// simnetBench times one scheduler dispatch (After then Step) and one
// packet from Host.Send to delivery, on a clean and an impaired path.
func simnetBench(res *result) error {
	const events = 500_000
	c, err := measureLayer(func() error {
		s := &simnet.Scheduler{}
		fn := func() {}
		for i := 0; i < events; i++ {
			s.After(time.Microsecond, fn)
			if !s.Step() {
				return fmt.Errorf("event %d did not run", i)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("simnet.dispatch_ns", "ns", float64(c.wall)/events)
	const packets, batch = 200_000, 100
	for _, impaired := range []bool{false, true} {
		c, err := measureLayer(func() error {
			p := newPair(impaired, 1)
			delivered := 0
			if err := p.server.Bind(9, func(simnet.Packet) { delivered++ }); err != nil {
				return err
			}
			for sent := 0; sent < packets; sent += batch {
				for i := 0; i < batch; i++ {
					p.client.Send(1, "server", 9, 1200, nil)
				}
				if err := p.run(); err != nil {
					return err
				}
			}
			if delivered == 0 || (!impaired && delivered != packets) {
				return fmt.Errorf("delivered %d of %d packets", delivered, packets)
			}
			return nil
		})
		if err != nil {
			return err
		}
		res.set("simnet.packet_ns."+pathName(impaired), "ns", float64(c.wall)/packets)
	}
	return nil
}

func pathName(impaired bool) string {
	if impaired {
		return "impaired"
	}
	return "clean"
}

// bulkPayload is the shared write buffer of the bulk benches.
var bulkPayload = make([]byte, 64<<10)

// writeBulk writes n bytes in bulkPayload-sized chunks.
func writeBulk(write func([]byte), n int) {
	for n > 0 {
		k := min(n, len(bulkPayload))
		write(bulkPayload[:k])
		n -= k
	}
}

// tcpBulk sends bulkBytes client→server over one tcpsim connection.
func tcpBulk(impaired bool) error {
	p := newPair(impaired, 2)
	got := 0
	if _, err := tcpsim.Listen(p.server, 80, tcpsim.Config{}, func(c *tcpsim.Conn) {
		c.SetDataFunc(func(b []byte) { got += len(b) })
	}); err != nil {
		return err
	}
	tcpsim.Dial(p.client, "server", 80, tcpsim.Config{}, func(c *tcpsim.Conn) {
		writeBulk(c.Write, bulkBytes)
		c.Close()
	})
	if err := p.run(); err != nil {
		return err
	}
	if got != bulkBytes {
		return fmt.Errorf("tcp bulk delivered %d of %d bytes", got, bulkBytes)
	}
	return nil
}

// tcpBench times bulk transfer on a clean path and under the bursty
// impairment (loss, jitter, reordering), and allocation per short
// connection: dial, one request, one 10 kB response, close.
func tcpBench(res *result) error {
	for _, impaired := range []bool{false, true} {
		c, err := measureLayer(func() error { return tcpBulk(impaired) })
		if err != nil {
			return err
		}
		name := "tcpsim.ns_per_kb.clean"
		if impaired {
			name = "tcpsim.ns_per_kb.reorder"
		}
		res.set(name, "ns", float64(c.wall)/(bulkBytes/1024))
	}
	const conns = 200
	c, err := measureLayer(func() error {
		p := newPair(false, 3)
		if _, err := tcpsim.Listen(p.server, 80, tcpsim.Config{}, func(c *tcpsim.Conn) {
			c.SetDataFunc(func([]byte) { c.Write(bulkPayload[:httpBody]) })
		}); err != nil {
			return err
		}
		done := 0
		for i := 0; i < conns; i++ {
			got := 0
			tcpsim.Dial(p.client, "server", 80, tcpsim.Config{}, func(c *tcpsim.Conn) {
				c.SetDataFunc(func(b []byte) {
					if got += len(b); got == httpBody {
						done++
						c.Close()
					}
				})
				c.Write(bulkPayload[:200])
			})
			if err := p.run(); err != nil {
				return err
			}
		}
		if done != conns {
			return fmt.Errorf("%d of %d connections completed", done, conns)
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("tcpsim.alloc_b_per_conn", "B", float64(c.alloc)/conns)
	return nil
}

// tlsListen serves TLS 1.3 over tcpsim; onConn sees each server session.
func tlsListen(p pair, sessions *tlssim.ServerSessionState, onConn func(*tlssim.Conn)) error {
	_, err := tcpsim.Listen(p.server, 443, tcpsim.Config{}, func(tc *tcpsim.Conn) {
		onConn(tlssim.Server(tc, tlssim.ServerConfig{Sessions: sessions}, nil))
	})
	return err
}

// tlsDial opens TCP then TLS 1.3 and calls ready once the handshake is
// done (with the handshake error, if any).
func tlsDial(p pair, tickets *tlssim.TicketStore, ready func(*tlssim.Conn, error)) {
	tcpsim.Dial(p.client, "server", 443, tcpsim.Config{}, func(tc *tcpsim.Conn) {
		var c *tlssim.Conn
		c = tlssim.Client(tc, tlssim.ClientConfig{ServerName: "server", Tickets: tickets}, func(err error) { ready(c, err) })
	})
}

// tlsBench times full and resumed handshakes (TCP dial included) and
// bulk transfer through TLS records over tcpsim.
func tlsBench(res *result) error {
	const handshakes = 300
	for _, resumed := range []bool{false, true} {
		c, err := measureLayer(func() error {
			p := newPair(false, 4)
			sessions := tlssim.NewServerSessionState()
			if err := tlsListen(p, sessions, func(*tlssim.Conn) {}); err != nil {
				return err
			}
			var tickets *tlssim.TicketStore
			if resumed {
				tickets = tlssim.NewTicketStore()
			}
			ok := 0
			for i := 0; i <= handshakes; i++ {
				tlsDial(p, tickets, func(c *tlssim.Conn, err error) {
					if err == nil && i > 0 && c.Resumed() == resumed {
						ok++
					}
					c.Close()
				})
				if err := p.run(); err != nil {
					return err
				}
			}
			if ok != handshakes {
				return fmt.Errorf("%d of %d handshakes completed as wanted (resumed=%v)", ok, handshakes, resumed)
			}
			return nil
		})
		if err != nil {
			return err
		}
		name := "tlssim.handshake_us.full"
		if resumed {
			name = "tlssim.handshake_us.resumed"
		}
		res.set(name, "us", float64(c.wall)/float64(time.Microsecond)/(handshakes+1))
	}
	c, err := measureLayer(func() error {
		p := newPair(false, 5)
		got := 0
		if err := tlsListen(p, nil, func(s *tlssim.Conn) {
			s.SetDataFunc(func(b []byte) { got += len(b) })
		}); err != nil {
			return err
		}
		tlsDial(p, nil, func(c *tlssim.Conn, err error) {
			if err == nil {
				writeBulk(c.Write, bulkBytes)
			}
			c.Close()
		})
		if err := p.run(); err != nil {
			return err
		}
		if got != bulkBytes {
			return fmt.Errorf("tls bulk delivered %d of %d bytes", got, bulkBytes)
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("tlssim.ns_per_kb", "ns", float64(c.wall)/(bulkBytes/1024))
	res.set("tlssim.alloc_b_per_kb", "B", float64(c.alloc)/(bulkBytes/1024))
	return nil
}

// quicBulk fetches bulkBytes over quicStreams concurrent streams of one
// QUIC connection: each stream sends a request and the server answers
// with its share of the bytes.
const quicStreams = 8

func quicBulk(impaired bool) error {
	p := newPair(impaired, 6)
	per := bulkBytes / quicStreams
	if _, err := quicsim.Listen(p.server, 443, quicsim.ServerConfig{}, func(c *quicsim.Conn) {
		c.SetStreamFunc(func(s *quicsim.Stream) {
			s.SetFinFunc(func() {
				writeBulk(s.Write, per)
				s.CloseWrite()
			})
		})
	}); err != nil {
		return err
	}
	got, finished := 0, 0
	quicsim.Dial(p.client, "server", 443, quicsim.ClientConfig{ServerName: "server"}, func(c *quicsim.Conn) {
		for i := 0; i < quicStreams; i++ {
			s := c.OpenStream()
			s.SetDataFunc(func(b []byte) { got += len(b) })
			s.SetFinFunc(func() {
				if finished++; finished == quicStreams {
					c.Close()
				}
			})
			s.Write(bulkPayload[:100])
			s.CloseWrite()
		}
	})
	if err := p.run(); err != nil {
		return err
	}
	if got != per*quicStreams || finished != quicStreams {
		return fmt.Errorf("quic bulk delivered %d of %d bytes on %d of %d streams", got, per*quicStreams, finished, quicStreams)
	}
	return nil
}

// quicBench times multi-stream transfer on a clean and a lossy path.
func quicBench(res *result) error {
	for _, impaired := range []bool{false, true} {
		c, err := measureLayer(func() error { return quicBulk(impaired) })
		if err != nil {
			return err
		}
		name := "quicsim.ns_per_kb.clean"
		if impaired {
			name = "quicsim.ns_per_kb.loss"
		} else {
			res.set("quicsim.alloc_b_per_kb", "B", float64(c.alloc)/(bulkBytes/1024))
		}
		res.set(name, "ns", float64(c.wall)/(bulkBytes/1024))
	}
	return nil
}

// httpBench times httpReqs fixed-size requests over one connection of
// each HTTP version, handshake included.
func httpBench(res *result) error {
	for _, proto := range []httpsim.Protocol{httpsim.H1, httpsim.H2, httpsim.H3} {
		c, err := measureLayer(func() error { return httpRequests(proto) })
		if err != nil {
			return err
		}
		slug := strings.ReplaceAll(strings.ReplaceAll(proto.String(), "http/1.1", "h1"), "/", "")
		res.set("httpsim.req_us."+slug, "us", float64(c.wall)/float64(time.Microsecond)/httpReqs)
		if proto != httpsim.H1 {
			res.set("httpsim.alloc_b_per_req."+slug, "B", float64(c.alloc)/httpReqs)
		}
	}
	return nil
}

func httpRequests(proto httpsim.Protocol) error {
	p := newPair(false, 7)
	body := strconv.Itoa(httpBody)
	if _, err := httpsim.StartServer(p.server, httpsim.ServerConfig{
		Handler: func(_ *httpsim.ServerContext, respond func(httpsim.Response)) {
			respond(httpsim.Response{Status: 200, Header: map[string]string{"content-length": body}, BodySize: httpBody})
		},
		EnableH3: true,
	}); err != nil {
		return err
	}
	var conn httpsim.ClientConn
	switch proto {
	case httpsim.H1:
		conn = httpsim.DialH1(p.client, "server", httpsim.TCPPort, "server", httpsim.DialConfig{})
	case httpsim.H2:
		conn = httpsim.DialH2(p.client, "server", httpsim.TCPPort, "server", httpsim.DialConfig{})
	default:
		conn = httpsim.DialH3(p.client, "server", httpsim.QUICPort, "server", httpsim.H3DialConfig{})
	}
	done := 0
	var reqErr error
	for i := 0; i < httpReqs; i++ {
		conn.Do(&httpsim.Request{Host: "server", Path: "/r/" + strconv.Itoa(i)}, httpsim.RequestEvents{
			OnComplete: func() {
				if done++; done == httpReqs {
					conn.Close()
				}
			},
			OnError: func(err error) { reqErr = err },
		})
	}
	if err := p.run(); err != nil {
		return err
	}
	if reqErr != nil || done != httpReqs {
		return fmt.Errorf("%v: %d of %d requests completed (%v)", proto, done, httpReqs, reqErr)
	}
	return nil
}

// cdnBench times an LRU lookup-then-fill over a key stream whose
// working set is four times the cache capacity.
func cdnBench(res *result) error {
	const capacity, ops = 4096, 1_000_000
	keys := make([]int, ops)
	rng := seqrand.New(8).Stream("lru")
	for i := range keys {
		keys[i] = rng.Intn(4 * capacity)
	}
	c, err := measureLayer(func() error {
		lru := cdn.NewLRUCache[int](capacity)
		for _, k := range keys {
			if !lru.Contains(k) {
				lru.Add(k)
			}
		}
		if lru.Hits() == 0 || lru.Misses() == 0 {
			return fmt.Errorf("lru saw %d hits and %d misses", lru.Hits(), lru.Misses())
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("cdn.lru_ns", "ns", float64(c.wall)/ops)
	return nil
}

// sketchSamples makes n synthetic visit samples with PLTs spread over
// 100 ms – 10 s, so the quantile sketch fills many buckets.
func sketchSamples(n int, seed uint64) []sketch.VisitSample {
	rng := seqrand.New(seed).Stream("visits")
	out := make([]sketch.VisitSample, n)
	for i := range out {
		out[i] = sketch.VisitSample{
			PLTNs:   int64(100e6 * (1 + 99*rng.Float64()*rng.Float64())),
			Bytes:   int64(rng.Intn(5_000_000)),
			Entries: int64(1 + rng.Intn(200)),
			Reused:  int64(rng.Intn(100)),
		}
	}
	return out
}

// sketchBench times one GroupMetrics.Fold and one accumulator Merge of
// a shard-sized accumulator (two groups of 2,000 visits).
func sketchBench(res *result) error {
	const folds = 500_000
	samples := sketchSamples(folds, 9)
	c, err := measureLayer(func() error {
		g := sketch.NewAccumulator(sketch.DefaultAlpha).Group(sketch.Key{Mode: "h2", Vantage: "utah"})
		for _, s := range samples {
			g.Fold(s)
		}
		if g.Pages != folds {
			return fmt.Errorf("folded %d of %d", g.Pages, folds)
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("sketch.fold_ns", "ns", float64(c.wall)/folds)

	const shards, merges = 8, 200
	srcs := make([]*sketch.MetricAccumulator, shards)
	for i := range srcs {
		srcs[i] = sketch.NewAccumulator(sketch.DefaultAlpha)
		for j, mode := range []string{"h2", "h3"} {
			g := srcs[i].Group(sketch.Key{Mode: mode, Vantage: "utah"})
			for _, s := range sketchSamples(2000, uint64(10+2*i+j)) {
				g.Fold(s)
			}
		}
	}
	c, err = measureLayer(func() error {
		for m := 0; m < merges; m++ {
			dst := sketch.NewAccumulator(sketch.DefaultAlpha)
			for _, s := range srcs {
				dst.Merge(s)
			}
			if dst.Pages() != shards*4000 {
				return fmt.Errorf("merged %d pages", dst.Pages())
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("sketch.merge_us", "us", float64(c.wall)/float64(time.Microsecond)/(merges*shards))
	return nil
}
