package mig

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"machlock/internal/ipc"
	"machlock/internal/sched"
	"machlock/internal/wire"
)

// allKinds has one field of every kind the codec packs, plus an
// unexported field it must skip.
type allKinds struct {
	B       bool
	I       int
	I8      int8
	I16     int16
	I32     int32
	I64     int64
	U       uint
	U8      uint8
	U16     uint16
	U32     uint32
	U64     uint64
	F32     float32
	F64     float64
	S       string
	P       []byte
	skipped int
}

func TestCodecRoundTripsEveryKind(t *testing.T) {
	in := &allKinds{
		B: true, I: -1 << 40, I8: math.MinInt8, I16: math.MaxInt16, I32: math.MinInt32, I64: math.MaxInt64,
		U: 1 << 50, U8: math.MaxUint8, U16: 7, U32: math.MaxUint32, U64: math.MaxUint64,
		F32: -1.5, F64: math.Pi, S: "mach", P: []byte{0, 1, 2}, skipped: 9,
	}
	payload, err := pack(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodePayload[allKinds](payload)
	if err != nil {
		t.Fatal(err)
	}
	in.skipped = 0
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", out, in)
	}
}

func TestCodecZeroValueAndEmptyStruct(t *testing.T) {
	payload, err := pack(&allKinds{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodePayload[allKinds](payload)
	if err != nil || !reflect.DeepEqual(out, &allKinds{}) {
		t.Fatalf("zero value: %+v, %v", out, err)
	}
	payload, err = pack(&getArgs{})
	if err != nil || len(payload) != 0 {
		t.Fatalf("empty struct packs to %v, %v; want no bytes", payload, err)
	}
	if _, err := decodePayload[getArgs](payload); err != nil {
		t.Fatal(err)
	}
}

func TestCodecIsBuiltOncePerType(t *testing.T) {
	c1, err1 := codecFor(reflect.TypeFor[allKinds]())
	c2, err2 := codecFor(reflect.TypeFor[allKinds]())
	if err1 != nil || err2 != nil || c1 != c2 {
		t.Fatalf("codecFor returned %p, %p (%v, %v); want one cached plan", c1, c2, err1, err2)
	}
	if len(c1.fields) != 15 {
		t.Fatalf("plan has %d fields, want 15 (unexported field skipped)", len(c1.fields))
	}
}

func TestPackNilFails(t *testing.T) {
	if _, err := pack[addArgs](nil); err == nil {
		t.Fatal("packing a nil pointer succeeded")
	}
}

func TestDefineRejectsUnsupportedTypes(t *testing.T) {
	type withMap struct{ M map[string]int }
	type withInts struct{ V []int }
	type withPtr struct{ P *int }
	type withStruct struct{ In addArgs }
	cases := map[string]func(iface *Interface){
		"map args": func(iface *Interface) {
			Define(iface, 1, "m", func(*ipc.Context, ipc.KObject, *withMap) (*getReply, error) { return nil, nil })
		},
		"int slice reply": func(iface *Interface) {
			Define(iface, 1, "v", func(*ipc.Context, ipc.KObject, *getArgs) (*withInts, error) { return nil, nil })
		},
		"pointer field": func(iface *Interface) {
			Define(iface, 1, "p", func(*ipc.Context, ipc.KObject, *withPtr) (*getReply, error) { return nil, nil })
		},
		"nested struct": func(iface *Interface) {
			Define(iface, 1, "n", func(*ipc.Context, ipc.KObject, *withStruct) (*getReply, error) { return nil, nil })
		},
		"non-struct args": func(iface *Interface) {
			Define(iface, 1, "i", func(*ipc.Context, ipc.KObject, *int) (*getReply, error) { return nil, nil })
		},
	}
	for name, define := range cases {
		t.Run(name, func(t *testing.T) {
			iface := NewInterface(ipc.KindCustom)
			defer func() {
				if recover() == nil {
					t.Fatal("Define did not panic")
				}
				if len(iface.Routines()) != 0 {
					t.Fatal("rejected routine was registered")
				}
			}()
			define(iface)
		})
	}
}

func TestUnpackRejectsMalformedPayloads(t *testing.T) {
	type small struct {
		N int8
		B bool
		S string
	}
	good, err := pack(&small{N: 3, B: true, S: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		payload []byte
		want    error
	}{
		{"empty", nil, wire.ErrTruncated},
		{"truncated varint", []byte{0x80}, wire.ErrTruncated},
		{"truncated string", good[:len(good)-1], wire.ErrTruncated},
		{"int8 overflow", wire.AppendInt(nil, 200), wire.ErrOverflow},
		{"varint past 64 bits", bytes.Repeat([]byte{0xff}, 11), wire.ErrOverflow},
		{"bool byte 2", []byte{6, 2, 0}, wire.ErrBadBool},
		{"length past end", []byte{6, 1, 0x7f, 'x'}, wire.ErrTruncated},
		{"huge length", append([]byte{6, 1}, wire.AppendUint(nil, 1<<62)...), wire.ErrTruncated},
		{"trailing bytes", append(append([]byte(nil), good...), 0), wire.ErrTrailing},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := decodePayload[small](tc.payload)
			if !errors.Is(err, tc.want) {
				t.Fatalf("decode = %+v, %v; want %v", v, err, tc.want)
			}
			if !strings.HasPrefix(err.Error(), "mig: unpack") {
				t.Fatalf("error %q lacks context", err)
			}
		})
	}
	// The message wrapper: one []byte item or nothing.
	for _, body := range [][]any{nil, {good, good}, {"not bytes"}} {
		if _, err := unpack[small](&ipc.Message{Body: body}); !errors.Is(err, ErrBadReply) {
			t.Fatalf("body %v: err = %v, want ErrBadReply", body, err)
		}
	}
}

func TestMalformedRequestBecomesRemoteError(t *testing.T) {
	port, _, stop := newCounterService(t)
	defer stop()
	self := sched.New("client")
	resp, err := ipc.Call(self, port, opAdd, []byte{0x80})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Destroy()
	var re *RemoteError
	if !errors.As(resp.Err, &re) || re.Routine != "add" || !strings.Contains(re.Msg, "truncated") {
		t.Fatalf("resp.Err = %v, want a RemoteError from add about truncation", resp.Err)
	}
}

func BenchmarkPackUnpack(b *testing.B) {
	type lookupArgs struct {
		Slot int
		Name uint32
	}
	in := &lookupArgs{Slot: 17, Name: 3}
	b.ReportAllocs()
	for b.Loop() {
		payload, err := pack(in)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := decodePayload[lookupArgs](payload); err != nil {
			b.Fatal(err)
		}
	}
}
