//go:build h3cdnpoison

package bufpool

// PoisonByte fills recycled memory in h3cdnpoison builds.
const PoisonByte = 0xA5

// Poison overwrites b with PoisonByte. Building with -tags h3cdnpoison
// makes every recycle site call it, so a read of a buffer after it was
// recycled — a use after Put, or a send array reused while a segment
// still aliased it — sees 0xA5 bytes and fails a parse or a determinism
// hash instead of passing silently.
func Poison(b []byte) {
	for i := range b {
		b[i] = PoisonByte
	}
}
