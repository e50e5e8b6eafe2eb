package tcpsim

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"h3cdn/internal/seqrand"
	"h3cdn/internal/simnet"
)

// TestHeldSendArraySurvivesTeardown pins the send-array hold rule: a
// segment stalled in a capacity outage keeps its send array alive across
// its conn's teardown. While the segment is in flight a new conn on the
// same Pools must get a different array; the stalled bytes must arrive
// intact; and once the last hold is released the array is recycled.
func TestHeldSendArraySurvivesTeardown(t *testing.T) {
	// client→server capacity: 100ms up, a 1s dead zone, then up again.
	tl, err := simnet.NewTraceLink("deadzone", []simnet.TraceSample{
		{Duration: 100 * time.Millisecond, Bps: 100e6},
		{Duration: time.Second, Bps: 0},
		{Duration: time.Minute, Bps: 100e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := &simnet.Scheduler{MaxEvents: 1_000_000}
	pf := func(src, dst simnet.Addr) simnet.PathProps {
		p := simnet.PathProps{Delay: 10 * time.Millisecond}
		if src == "client" {
			p.Trace = tl
		}
		return p
	}
	n := simnet.NewNetwork(sched, pf, seqrand.New(5))
	client, server := n.AddHost("client"), n.AddHost("server")
	pl := &Pools{}
	cfg := Config{Pools: pl}

	got := map[uint16]*bytes.Buffer{}
	if _, err := Listen(server, 80, cfg, func(c *Conn) {
		buf := &bytes.Buffer{}
		got[c.remotePort] = buf
		c.SetDataFunc(func(p []byte) { buf.Write(p) })
	}); err != nil {
		t.Fatal(err)
	}

	first := patterned(3000)
	second := bytes.Repeat([]byte{0xEE}, 3000)
	var c1, c2, c3 *Conn
	var held *sendArray
	c1 = Dial(client, "server", 80, cfg, nil)
	// Written inside the dead zone: every data segment stalls.
	sched.At(150*time.Millisecond, func() { c1.Write(first) })
	sched.At(200*time.Millisecond, func() {
		held = c1.sendArr
		if held == nil || held.holds == 0 {
			t.Fatal("no in-flight segment holds the first conn's send array")
		}
		c1.Abort()
		if !held.retired || held.holds == 0 {
			t.Fatalf("after teardown: retired=%v holds=%d, want retired and still held", held.retired, held.holds)
		}
		// A naive recycle-on-teardown would hand the held array to the
		// next conn, which would overwrite the stalled bytes.
		c2 = Dial(client, "server", 80, cfg, nil)
		c2.Write(second)
		if c2.sendArr == held {
			t.Fatal("new conn got a send array still held by an in-flight segment")
		}
	})
	// Long after the dead zone: every hold is released, so the array is
	// back on its class free list.
	sched.At(10*time.Second, func() {
		if pl.Held() != 0 || held.holds != 0 {
			t.Fatalf("holds outstanding after the stall drained: pool %d, array %d", pl.Held(), held.holds)
		}
		if cls := sendBufClass(len(held.buf)); !slices.Contains(pl.sendBufs[cls], held) {
			t.Fatal("released array not back on its class free list")
		}
		c3 = Dial(client, "server", 80, cfg, nil)
		c3.Write([]byte("x"))
		if c3.sendArr != held {
			t.Fatal("free list did not hand out the recycled array")
		}
	})
	if _, err := sched.Run(); err != nil {
		t.Fatal(err)
	}

	if b := got[c1.localPort]; b == nil || !bytes.Equal(b.Bytes(), first) {
		t.Fatal("stalled bytes of the torn-down conn did not arrive intact")
	}
	if b := got[c2.localPort]; b == nil || !bytes.Equal(b.Bytes(), second) {
		t.Fatal("second conn's bytes did not arrive intact")
	}
	if pl.Held() != 0 {
		t.Fatalf("pool holds %d after drain, want 0", pl.Held())
	}
}
