package httpsim

import (
	"bytes"
	"testing"
)

// parsedBlock is a block with its header payload copied out of the
// parser's accumulator (payloads are only valid until the next feed).
type parsedBlock struct {
	typ      blockType
	streamID uint32
	flags    uint8
	size     int
	payload  string
}

func collect(dst []parsedBlock, bs []block) []parsedBlock {
	for _, b := range bs {
		dst = append(dst, parsedBlock{b.typ, b.streamID, b.flags, b.size, string(b.payload)})
	}
	return dst
}

// framesFromSpec builds a well-formed frame sequence from spec, four
// bytes per frame: type, stream id, flags, and a size byte (scaled up
// for DATA so bodies span many feeds). It returns the wire bytes and the
// blocks a parser must emit for them.
func framesFromSpec(spec []byte) ([]byte, []parsedBlock) {
	var wire []byte
	var want []parsedBlock
	for i := 0; i+4 <= len(spec) && len(want) < 64; i += 4 {
		typ := blockType(spec[i]%3 + 1)
		id, flags := uint32(spec[i+1]), spec[i+2]&flagEndStream
		size := int(spec[i+3])
		var payload []byte
		if typ == blockData {
			size *= 131
		} else {
			payload = bytes.Repeat([]byte{spec[i+1] ^ spec[i+3]}, size)
		}
		wire = append(wire, encodeBlock(typ, id, flags, make([]byte, size))...)
		copy(wire[len(wire)-size:], payload)
		want = append(want, parsedBlock{typ, id, flags, size, string(payload)})
	}
	return wire, want
}

// feedSplit feeds wire in chunks whose lengths cycle through splits (a
// zero is an empty feed followed by a one-byte feed).
func feedSplit(wire, splits []byte) []parsedBlock {
	var p blockParser
	var got []parsedBlock
	for i := 0; len(wire) > 0; i++ {
		n := 1
		if len(splits) > 0 {
			n = int(splits[i%len(splits)])
		}
		if n == 0 {
			got = collect(got, p.feed(nil))
			n = 1
		}
		n = min(n, len(wire))
		got = collect(got, p.feed(wire[:n]))
		wire = wire[n:]
	}
	return got
}

func sameBlocks(a, b []parsedBlock) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzBlockParser checks that splitting a byte stream at arbitrary
// points never changes what blockParser emits: the same (type, stream,
// flags, size, header payload) sequence as a one-shot parse. It runs on
// a well-formed frame sequence built from spec — where the result must
// also equal the frames that were encoded — and on spec itself as raw
// wire bytes.
func FuzzBlockParser(f *testing.F) {
	f.Add([]byte{1, 1, 0, 20, 3, 1, 1, 200}, []byte{1})
	f.Add([]byte{2, 3, 0, 0, 3, 3, 1, 0, 2, 5, 0, 9, 3, 5, 0, 255, 3, 5, 1, 1}, []byte{7, 0, 13, 250})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{})
	f.Fuzz(func(t *testing.T, spec, splits []byte) {
		wire, want := framesFromSpec(spec)
		var one blockParser
		oneShot := collect(nil, one.feed(wire))
		if !sameBlocks(oneShot, want) {
			t.Fatalf("one-shot parse of encoded frames:\n got %v\nwant %v", oneShot, want)
		}
		if got := feedSplit(wire, splits); !sameBlocks(got, want) {
			t.Fatalf("split parse of encoded frames:\n got %v\nwant %v", got, want)
		}

		var raw blockParser
		rawOne := collect(nil, raw.feed(spec))
		if got := feedSplit(spec, splits); !sameBlocks(got, rawOne) {
			t.Fatalf("split parse of raw bytes:\n got %v\nwant %v", got, rawOne)
		}
	})
}
