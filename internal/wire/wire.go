// Package wire holds the binary encoding shared by the RPC path: the mig
// stubs pack typed arguments with it and netmsg frames carry messages in
// it, so a message crossing the network is one encoding end to end.
//
// Every value is self-delimiting and carries no type descriptor; the two
// sides agree on the layout the way MiG-generated stubs do:
//
//	bool            one byte, 0 or 1
//	signed int      zig-zag varint (encoding/binary.AppendVarint)
//	unsigned int    varint (encoding/binary.AppendUvarint)
//	float           8 bytes, little-endian IEEE 754 bits
//	string, []byte  varint length, then the bytes
//
// A Decoder never panics and never allocates more than its input holds:
// every length is checked against the bytes that remain before anything
// is copied.
package wire

import (
	"encoding/binary"
	"errors"
	"math"
)

// Decoding errors. Callers wrap them with their own context.
var (
	ErrTruncated = errors.New("wire: truncated input")
	ErrOverflow  = errors.New("wire: integer overflows its field")
	ErrBadBool   = errors.New("wire: bool byte is not 0 or 1")
	ErrTrailing  = errors.New("wire: trailing bytes after the last field")
)

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendInt appends v as a zig-zag varint.
func AppendInt(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendUint appends v as a varint.
func AppendUint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendFloat appends the IEEE 754 bits of v, little-endian.
func AppendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(b []byte, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// Decoder reads values from a byte slice. The first failure sticks: later
// reads return zero values and Err reports it.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder returns a decoder over b. It does not copy b.
func NewDecoder(b []byte) Decoder { return Decoder{buf: b} }

// Err returns the first decoding failure, if any.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of unread bytes.
func (d *Decoder) Len() int { return len(d.buf) }

// Finish returns the first failure, or ErrTrailing if input remains.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.buf) != 0 {
		d.err = ErrTrailing
	}
	return d.err
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.buf = nil
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if len(d.buf) == 0 {
		d.fail(ErrTruncated)
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

// Bool reads a bool byte, rejecting anything but 0 and 1.
func (d *Decoder) Bool() bool {
	switch d.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail(ErrBadBool)
	return false
}

// Int reads a zig-zag varint.
func (d *Decoder) Int() int64 {
	v, n := binary.Varint(d.buf)
	return int64(d.advance(uint64(v), n))
}

// Uint reads a varint.
func (d *Decoder) Uint() uint64 {
	v, n := binary.Uvarint(d.buf)
	return d.advance(v, n)
}

func (d *Decoder) advance(v uint64, n int) uint64 {
	switch {
	case n > 0:
		d.buf = d.buf[n:]
		return v
	case n == 0:
		d.fail(ErrTruncated)
	default:
		d.fail(ErrOverflow)
	}
	return 0
}

// Float reads 8 bytes of IEEE 754 bits.
func (d *Decoder) Float() float64 {
	if len(d.buf) < 8 {
		d.fail(ErrTruncated)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

// raw reads a length prefix and returns that many bytes, aliasing the
// input.
func (d *Decoder) raw() []byte {
	n := d.Uint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.fail(ErrTruncated)
		return nil
	}
	p := d.buf[:n:n]
	d.buf = d.buf[n:]
	return p
}

// String reads a length-prefixed string (a copy).
func (d *Decoder) String() string { return string(d.raw()) }

// Bytes reads a length-prefixed byte slice into fresh memory. An empty
// slice decodes as nil.
func (d *Decoder) Bytes() []byte {
	p := d.raw()
	if len(p) == 0 {
		return nil
	}
	return append([]byte(nil), p...)
}
