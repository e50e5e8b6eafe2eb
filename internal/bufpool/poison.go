//go:build !h3cdnpoison

package bufpool

// Poison overwrites recycled memory under the h3cdnpoison build tag (see
// poison_on.go); in normal builds it compiles to nothing.
func Poison([]byte) {}
