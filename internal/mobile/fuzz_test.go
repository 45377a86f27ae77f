package mobile

import (
	"bytes"
	"math"
	"runtime"
	"testing"
)

// allocatedBy returns the bytes f allocates, read from the runtime's
// counters. The counters are process-wide, so what another goroutine
// allocates meanwhile (the fuzzing engine's, a sync.Pool refilling
// after a collection) lands in them too; f runs three times and the
// least reading counts.
func allocatedBy(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	return least
}

// FuzzDecodeMsg feeds arbitrary payloads to the message decoder. It
// must never panic and never allocate more than a small multiple of the
// payload's length — a Value is 40 bytes and a NULL cell one, so 64×
// plus the error's formatting — and every payload it accepts must
// re-encode to exactly its own bytes. The corpus in
// testdata/fuzz/FuzzDecodeMsg holds one payload of each message type.
func FuzzDecodeMsg(f *testing.F) {
	f.Fuzz(func(t *testing.T, p []byte) {
		var msg any
		var err error
		if n, limit := allocatedBy(func() { msg, err = decodeMsg(p) }), uint64(64*len(p)+4096); n > limit {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(p), n, limit)
		}
		if err != nil {
			return
		}
		again, err := encodeMsg(msg)
		if err != nil {
			t.Fatalf("decoded %T does not encode: %v", msg, err)
		}
		if !bytes.Equal(again, p) {
			t.Fatalf("%T re-encodes to\n%x\nnot\n%x", msg, again, p)
		}
	})
}
