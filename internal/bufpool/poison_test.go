//go:build h3cdnpoison

package bufpool

import "testing"

// TestPutPoisons checks that both recycle paths overwrite the whole
// buffer, including bytes past its length.
func TestPutPoisons(t *testing.T) {
	var a Arena
	for name, put := range map[string]func([]byte){"arena": a.Put, "global": Put} {
		buf := a.Get(300)
		for i := range buf {
			buf[i] = 1
		}
		full := buf[:cap(buf)]
		put(buf[:10])
		for i, b := range full {
			if b != PoisonByte {
				t.Fatalf("%s: byte %d = %#x after Put, want %#x", name, i, b, PoisonByte)
			}
		}
	}
}
