package netmsg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
)

// allocated returns the bytes f allocates on the heap, as the smaller of
// two runs: the first may also pay for one-time initialisation, and either
// may find fmt's buffer pool emptied by a GC or, under -race, by
// sync.Pool's deliberate random drops.
func allocated(f func()) int64 {
	var least int64 = math.MaxInt64
	for range 2 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, int64(after.TotalAlloc-before.TotalAlloc))
	}
	return least
}

// FuzzNetmsgFrame feeds arbitrary bytes to the frame reader, as a hostile
// or broken peer would. Reading must never panic; each frame may allocate
// no more than its own length plus a fixed cost per body item (plus size
// class rounding), so no length field can make the reader allocate past
// MaxFrameSize; and every frame that decodes cleanly must re-encode to a
// frame that decodes to the same message. The committed seed corpus under
// testdata/fuzz holds well-formed frames of each item type and the
// malformed shapes the decoder rejects.
func FuzzNetmsgFrame(f *testing.F) {
	for _, m := range []wireMsg{
		{Op: 1, Body: []any{[]byte{4, 8}, "s", int(-3), int64(9), uint64(300), 0.5, true}},
		{Op: 7, Err: "remote failure"},
	} {
		b, err := appendFrame(nil, &m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrameSize+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(nil)
		c := newConn(struct {
			io.Reader
			io.Writer
		}{src, io.Discard})
		for off := 0; ; {
			var m wireMsg
			var err error
			alloc := allocated(func() {
				src.Reset(data[off:])
				c.r.Reset(src)
				m, err = c.readFrame()
			})
			if err != nil && !errors.Is(err, ErrMalformedFrame) {
				return // the stream is out of step; nothing more to read
			}
			n := int64(binary.BigEndian.Uint32(data[off:]))
			off += 4 + int(n)
			if limit := n + n/4 + 64*int64(len(m.Body)) + 1024; alloc > limit {
				t.Fatalf("a %d-byte frame with %d items allocated %d bytes (limit %d)", n, len(m.Body), alloc, limit)
			}
			if err != nil {
				continue
			}
			b, err := appendFrame(nil, &m)
			if err != nil {
				t.Fatalf("decoded frame %+v does not re-encode: %v", m, err)
			}
			if int64(len(b)) > 4+n {
				t.Fatalf("re-encoding grew a %d-byte frame to %d bytes", 4+n, len(b))
			}
			again, err := readAll(b)
			if !errors.Is(err, io.EOF) || len(again) != 1 {
				t.Fatalf("re-encoded frame read back as %d frames, %v", len(again), err)
			}
			b2, err := appendFrame(nil, &again[0])
			if err != nil || !bytes.Equal(b, b2) {
				t.Fatalf("round trip changed the frame:\n %x\n %x (%v)", b, b2, err)
			}
		}
	})
}
