package mig_test

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"

	"machlock/internal/machd"
	"machlock/internal/mig"
)

// roundTrip is the fuzz invariant for one routine type: decoding never
// panics; it allocates in proportion to the value and the payload's own
// bytes (plus a fixed allowance for error text), never to a length the
// payload merely claims; and whatever decodes cleanly re-packs to a
// payload no longer than the input that decodes to the same value.
func roundTrip[T any](t *testing.T, payload []byte) {
	var v *T
	var err error
	// The smaller of two runs: the first may also pay for one-time
	// initialisation, and either may find fmt's buffer pool emptied by a
	// GC or, under -race, by sync.Pool's deliberate random drops.
	var alloc int64 = math.MaxInt64
	for range 2 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err = mig.Unpack[T](payload)
		runtime.ReadMemStats(&after)
		alloc = min(alloc, int64(after.TotalAlloc-before.TotalAlloc))
	}
	size := int64(reflect.TypeFor[T]().Size())
	if limit := 2*size + 2*int64(len(payload)) + 1024; alloc > limit {
		t.Fatalf("unpacking %d bytes into %T allocated %d bytes (limit %d)", len(payload), v, alloc, limit)
	}
	if err != nil {
		return
	}
	b, err := mig.Pack(v)
	if err != nil {
		t.Fatalf("decoded %+v does not re-pack: %v", v, err)
	}
	if len(b) > len(payload) {
		t.Fatalf("re-packing grew %d bytes to %d", len(payload), len(b))
	}
	v2, err := mig.Unpack[T](b)
	if err != nil {
		t.Fatalf("re-packed %x does not unpack: %v", b, err)
	}
	if !reflect.DeepEqual(v, v2) {
		t.Fatalf("round trip changed the value: %+v → %+v", v, v2)
	}
	if b2, _ := mig.Pack(v2); !bytes.Equal(b, b2) {
		t.Fatalf("packing is not deterministic: %x vs %x", b, b2)
	}
}

// routineTypes are the machd Args and Reply types, each a fuzz target
// selected by the first fuzz argument.
var routineTypes = []func(*testing.T, []byte){
	roundTrip[machd.LookupArgs], roundTrip[machd.LookupReply],
	roundTrip[machd.ChurnArgs], roundTrip[machd.ChurnReply],
	roundTrip[machd.SpawnArgs], roundTrip[machd.SpawnReply],
	roundTrip[machd.TouchArgs], roundTrip[machd.TouchReply],
	roundTrip[machd.ChaosArgs], roundTrip[machd.ChaosReply],
	roundTrip[machd.StatArgs], roundTrip[machd.StatReply],
}

// FuzzMigUnpack feeds arbitrary payloads to each machd Args/Reply type.
// The committed seed corpus under testdata/fuzz holds a packed value of
// every type and the malformed shapes unpacking rejects.
func FuzzMigUnpack(f *testing.F) {
	lookup, err := mig.Pack(&machd.LookupArgs{Slot: 3, Name: 1 << 31})
	if err != nil {
		f.Fatal(err)
	}
	stat, err := mig.Pack(&machd.StatReply{Tasks: 32, Spawns: -1, Reclaims: 1 << 40})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), lookup)
	f.Add(uint8(11), stat)
	f.Add(uint8(9), []byte{2})
	f.Fuzz(func(t *testing.T, typ uint8, payload []byte) {
		routineTypes[int(typ)%len(routineTypes)](t, payload)
	})
}
