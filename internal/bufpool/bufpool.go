// Package bufpool provides size-classed pooled byte buffers for the
// simulation hot path: wire records, framed blocks, response bodies, and
// transport reassembly chunks. Buffers come back with the requested
// length but arbitrary contents — callers that care about content must
// overwrite it (the simulators only ever inspect lengths and headers).
package bufpool

import "sync"

// Size classes are powers of two from 256B to 8MB. Requests above the
// largest class fall through to plain allocation. The top classes exist
// for transport send/accumulation buffers that scale with response
// bodies (the corpus clamps bodies at 2MB); small wire records only ever
// touch the bottom classes.
const (
	minClassBits = 8  // 256
	maxClassBits = 23 // 8MB
	numClasses   = maxClassBits - minClassBits + 1
)

var pools [numClasses]sync.Pool

// boxes recycles the *[]byte header boxes the class pools store, so a
// steady-state Get/Put cycle moves buffers without allocating a fresh
// box (and its escaping slice header) on every Put.
var boxes sync.Pool

// classFor returns the pool index whose capacity fits n, or -1 when n is
// out of the pooled range.
func classFor(n int) int {
	if n > 1<<maxClassBits {
		return -1
	}
	c := 0
	for s := 1 << minClassBits; s < n; s <<= 1 {
		c++
	}
	return c
}

// Get returns a buffer with len(buf) == n. Contents are arbitrary.
func Get(n int) []byte {
	c := classFor(n)
	if c < 0 {
		return make([]byte, n)
	}
	if v := pools[c].Get(); v != nil {
		box := v.(*[]byte)
		buf := *box
		*box = nil
		boxes.Put(box)
		return buf[:n]
	}
	buf := make([]byte, 1<<(minClassBits+c))
	return buf[:n]
}

// Put recycles a buffer obtained from Get (or any buffer whose capacity
// is an exact size class). Callers must not use buf afterwards.
func Put(buf []byte) {
	Poison(buf[:cap(buf)])
	c := capClass(cap(buf))
	if c < 0 {
		return
	}
	box, _ := boxes.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = buf[:cap(buf)]
	pools[c].Put(box)
}

// capClass maps an exact power-of-two capacity to its class, or -1.
func capClass(c int) int {
	if c < 1<<minClassBits || c > 1<<maxClassBits || c&(c-1) != 0 {
		return -1
	}
	idx := 0
	for s := 1 << minClassBits; s < c; s <<= 1 {
		idx++
	}
	return idx
}
