package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestIntRoundTripBoundaries(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 64, -65, math.MinInt64, math.MaxInt64} {
		b := AppendInt(nil, v)
		d := NewDecoder(b)
		if got := d.Int(); got != v {
			t.Errorf("Int(%d) decoded as %d", v, got)
		}
		if err := d.Finish(); err != nil {
			t.Errorf("Int(%d): %v", v, err)
		}
	}
}

// TestZigZagEncoding pins the byte layout: small magnitudes of either sign
// take one byte, so the encoding is the zig-zag one, not two's complement.
func TestZigZagEncoding(t *testing.T) {
	for _, tc := range []struct {
		v    int64
		want []byte
	}{
		{0, []byte{0x00}},
		{-1, []byte{0x01}},
		{1, []byte{0x02}},
		{-64, []byte{0x7f}},
		{64, []byte{0x80, 0x01}},
	} {
		if got := AppendInt(nil, tc.v); !bytes.Equal(got, tc.want) {
			t.Errorf("AppendInt(%d) = % x, want % x", tc.v, got, tc.want)
		}
	}
	if n := len(AppendInt(nil, math.MinInt64)); n != 10 {
		t.Errorf("MinInt64 takes %d bytes, want 10", n)
	}
}

func TestUintRoundTripBoundaries(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, math.MaxUint32, math.MaxInt64, math.MaxUint64} {
		d := NewDecoder(AppendUint(nil, v))
		if got := d.Uint(); got != v {
			t.Errorf("Uint(%d) decoded as %d", v, got)
		}
		if err := d.Finish(); err != nil {
			t.Errorf("Uint(%d): %v", v, err)
		}
	}
}

func TestVarintErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"continuation without end", []byte{0x80, 0x80}, ErrTruncated},
		{"eleven bytes", bytes.Repeat([]byte{0xff}, 11), ErrOverflow},
		{"tenth byte above one", append(bytes.Repeat([]byte{0xff}, 9), 0x02), ErrOverflow},
	} {
		d := NewDecoder(tc.in)
		if got := d.Uint(); got != 0 {
			t.Errorf("%s: Uint = %d, want 0", tc.name, got)
		}
		if !errors.Is(d.Err(), tc.want) {
			t.Errorf("%s: Uint err = %v, want %v", tc.name, d.Err(), tc.want)
		}
		d = NewDecoder(tc.in)
		if got := d.Int(); got != 0 {
			t.Errorf("%s: Int = %d, want 0", tc.name, got)
		}
		if !errors.Is(d.Err(), tc.want) {
			t.Errorf("%s: Int err = %v, want %v", tc.name, d.Err(), tc.want)
		}
	}
}

func TestBool(t *testing.T) {
	for _, v := range []bool{false, true} {
		d := NewDecoder(AppendBool(nil, v))
		if got := d.Bool(); got != v || d.Finish() != nil {
			t.Errorf("Bool(%v) decoded as %v, err %v", v, got, d.Err())
		}
	}
	for _, b := range []byte{2, 0x7f, 0x80, 0xff} {
		d := NewDecoder([]byte{b})
		if d.Bool() {
			t.Errorf("bool byte %#x decoded as true", b)
		}
		if !errors.Is(d.Err(), ErrBadBool) {
			t.Errorf("bool byte %#x: err = %v, want ErrBadBool", b, d.Err())
		}
	}
	d := NewDecoder(nil)
	if d.Bool() || !errors.Is(d.Err(), ErrTruncated) {
		t.Errorf("bool from empty input: err = %v, want ErrTruncated", d.Err())
	}
}

func TestFloat(t *testing.T) {
	for _, v := range []float64{0, -1.5, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(-1)} {
		d := NewDecoder(AppendFloat(nil, v))
		if got := d.Float(); got != v || d.Finish() != nil {
			t.Errorf("Float(%v) decoded as %v, err %v", v, got, d.Err())
		}
	}
	d := NewDecoder(make([]byte, 7))
	if d.Float() != 0 || !errors.Is(d.Err(), ErrTruncated) {
		t.Errorf("7-byte float: err = %v, want ErrTruncated", d.Err())
	}
}

func TestStringAndBytes(t *testing.T) {
	b := AppendString(nil, "port")
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendString(b, "")
	b = AppendBytes(b, nil)
	d := NewDecoder(b)
	if got := d.String(); got != "port" {
		t.Errorf("String = %q", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if got := d.Bytes(); got != nil {
		t.Errorf("empty Bytes = %v, want nil", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}

	// Decoded bytes are a copy: mutating the input must not reach them.
	in := AppendBytes(nil, []byte{9})
	d = NewDecoder(in)
	got := d.Bytes()
	in[1] = 0
	if got[0] != 9 {
		t.Error("Bytes aliases its input")
	}
}

// TestLengthPastEnd: a length prefix claiming more bytes than remain fails
// with ErrTruncated, for every claimed size up to the largest varint.
func TestLengthPastEnd(t *testing.T) {
	for _, n := range []uint64{1, 4, 5, 1 << 20, math.MaxInt64, math.MaxUint64} {
		in := append(AppendUint(nil, n), "abcd"[:min(n-1, 4)]...)
		d := NewDecoder(in)
		if got := d.String(); got != "" {
			t.Errorf("claimed %d: String = %q", n, got)
		}
		if !errors.Is(d.Err(), ErrTruncated) {
			t.Errorf("claimed %d: String err = %v, want ErrTruncated", n, d.Err())
		}
		d = NewDecoder(in)
		if got := d.Bytes(); got != nil {
			t.Errorf("claimed %d: Bytes = %v", n, got)
		}
		if !errors.Is(d.Err(), ErrTruncated) {
			t.Errorf("claimed %d: Bytes err = %v, want ErrTruncated", n, d.Err())
		}
	}
}

// TestStickyError: after the first failure every read returns its zero
// value, the decoder reports no bytes left, and Err and Finish keep
// reporting the first failure rather than a later one.
func TestStickyError(t *testing.T) {
	in := append([]byte{7}, AppendInt(nil, 5)...) // bad bool, then a valid int
	d := NewDecoder(in)
	d.Bool()
	if !errors.Is(d.Err(), ErrBadBool) {
		t.Fatalf("first failure = %v, want ErrBadBool", d.Err())
	}
	if d.Len() != 0 {
		t.Errorf("Len after failure = %d, want 0", d.Len())
	}
	if d.Int() != 0 || d.Uint() != 0 || d.Float() != 0 || d.String() != "" || d.Bytes() != nil || d.Bool() || d.Byte() != 0 {
		t.Error("reads after a failure returned data")
	}
	if !errors.Is(d.Err(), ErrBadBool) || !errors.Is(d.Finish(), ErrBadBool) {
		t.Errorf("sticky error replaced: Err %v, Finish %v", d.Err(), d.Finish())
	}
}

func TestFinishTrailing(t *testing.T) {
	d := NewDecoder(AppendUint(AppendUint(nil, 1), 2))
	d.Uint()
	if !errors.Is(d.Finish(), ErrTrailing) {
		t.Errorf("Finish with input left = %v, want ErrTrailing", d.Err())
	}
}

// TestNoAllocationSizedByClaim: a hostile length prefix must not make the
// decoder allocate what it claims — a failed read allocates nothing, and a
// successful one allocates only the bytes actually present.
func TestNoAllocationSizedByClaim(t *testing.T) {
	hostile := AppendUint(nil, math.MaxInt64)
	if n := testing.AllocsPerRun(100, func() {
		d := NewDecoder(hostile)
		d.Bytes()
		d = NewDecoder(hostile)
		_ = d.String()
	}); n != 0 {
		t.Errorf("truncated length prefix allocated %v times per run", n)
	}

	d := NewDecoder(AppendBytes(nil, []byte("abc")))
	if got := d.Bytes(); cap(got) > 8 {
		t.Errorf("3-byte Bytes has capacity %d", cap(got))
	}
}
