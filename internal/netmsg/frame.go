package netmsg

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"machlock/internal/wire"
)

// Frame layout (all integers in the internal/wire encoding):
//
//	length  4 bytes, big-endian: the byte count of everything below
//	op      signed varint
//	err     length-prefixed string, empty unless the frame is a failed reply
//	count   varint: the number of body items
//	items   count × (tag byte, value)
//
// Tags name the seven item types a body may carry: []byte, string, int,
// int64, uint64, float64 and bool.
const (
	tagBytes byte = iota + 1
	tagString
	tagInt
	tagInt64
	tagUint64
	tagFloat64
	tagBool
)

// MaxFrameSize bounds a frame's length field. A frame is decoded in place
// from the connection's read buffer, which is this large, so reading one
// allocates only the strings, byte slices and item list it decodes.
const MaxFrameSize = 64 << 10

// maxItems bounds the body items in one frame, which bounds the item list
// a hostile frame can make the reader allocate.
const maxItems = 256

// Framing errors. A message the sender cannot frame (ErrFrameTooLarge,
// ErrUnsupportedItem) or the receiver cannot parse (ErrMalformedFrame)
// fails alone and the connection stays usable. A length field past
// MaxFrameSize on the receiving side (ErrFrameTooLarge) ends it.
var (
	ErrFrameTooLarge   = errors.New("netmsg: frame exceeds MaxFrameSize")
	ErrUnsupportedItem = errors.New("netmsg: body item type cannot cross the wire")
	ErrMalformedFrame  = errors.New("netmsg: malformed frame")
)

// wireMsg is one frame: a request (Op, Body) or a reply (Op, Body, Err).
type wireMsg struct {
	Op   int
	Body []any
	Err  string
}

// isFrameError reports whether err failed to encode one message, as
// opposed to breaking the transport.
func isFrameError(err error) bool {
	return errors.Is(err, ErrFrameTooLarge) || errors.Is(err, ErrUnsupportedItem)
}

// appendFrame appends m as one complete frame to b. On failure it returns
// b unchanged along with the error. It never grows b by much more than
// MaxFrameSize.
func appendFrame(b []byte, m *wireMsg) ([]byte, error) {
	start := len(b)
	fail := func(err error) ([]byte, error) { return b[:start], err }
	if len(m.Body) > maxItems {
		return fail(fmt.Errorf("%w: %d body items (limit %d)", ErrFrameTooLarge, len(m.Body), maxItems))
	}
	tooLarge := func(extra int) bool { return len(b)-start-4+extra > MaxFrameSize }
	if tooLarge(len(m.Err)) {
		return fail(fmt.Errorf("%w: error text of %d bytes", ErrFrameTooLarge, len(m.Err)))
	}
	b = append(b, 0, 0, 0, 0)
	b = wire.AppendInt(b, int64(m.Op))
	b = wire.AppendString(b, m.Err)
	b = wire.AppendUint(b, uint64(len(m.Body)))
	for _, item := range m.Body {
		switch v := item.(type) {
		case []byte:
			if tooLarge(len(v)) {
				return fail(fmt.Errorf("%w: %d-byte item", ErrFrameTooLarge, len(v)))
			}
			b = wire.AppendBytes(append(b, tagBytes), v)
		case string:
			if tooLarge(len(v)) {
				return fail(fmt.Errorf("%w: %d-byte item", ErrFrameTooLarge, len(v)))
			}
			b = wire.AppendString(append(b, tagString), v)
		case int:
			b = wire.AppendInt(append(b, tagInt), int64(v))
		case int64:
			b = wire.AppendInt(append(b, tagInt64), v)
		case uint64:
			b = wire.AppendUint(append(b, tagUint64), v)
		case float64:
			b = wire.AppendFloat(append(b, tagFloat64), v)
		case bool:
			b = wire.AppendBool(append(b, tagBool), v)
		default:
			return fail(fmt.Errorf("%w: %T", ErrUnsupportedItem, item))
		}
	}
	n := len(b) - start - 4
	if n > MaxFrameSize {
		return fail(fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n))
	}
	binary.BigEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// decodeFrame parses a frame's contents (everything after the length).
// Strings and byte slices are copied out of frame.
func decodeFrame(frame []byte) (wireMsg, error) {
	d := wire.NewDecoder(frame)
	op := d.Int()
	m := wireMsg{Op: int(op), Err: d.String()}
	if int64(m.Op) != op {
		return m, fmt.Errorf("%w: op: %w", ErrMalformedFrame, wire.ErrOverflow)
	}
	count := d.Uint()
	if d.Err() == nil && count > 0 {
		// Every item takes at least two bytes.
		if count > maxItems || count > uint64(d.Len()/2) {
			return m, fmt.Errorf("%w: %d body items in %d bytes", ErrMalformedFrame, count, d.Len())
		}
		m.Body = make([]any, count)
		for i := range m.Body {
			switch tag := d.Byte(); tag {
			case tagBytes:
				m.Body[i] = d.Bytes()
			case tagString:
				m.Body[i] = d.String()
			case tagInt:
				x := d.Int()
				if int64(int(x)) != x {
					return m, fmt.Errorf("%w: item %d: %w", ErrMalformedFrame, i, wire.ErrOverflow)
				}
				m.Body[i] = int(x)
			case tagInt64:
				m.Body[i] = d.Int()
			case tagUint64:
				m.Body[i] = d.Uint()
			case tagFloat64:
				m.Body[i] = d.Float()
			case tagBool:
				m.Body[i] = d.Bool()
			default:
				if d.Err() == nil {
					return m, fmt.Errorf("%w: item %d has unknown tag %d", ErrMalformedFrame, i, tag)
				}
			}
		}
	}
	if err := d.Finish(); err != nil {
		return m, fmt.Errorf("%w: %w", ErrMalformedFrame, err)
	}
	return m, nil
}

// conn is one end of a netmsg connection. Frames are read through a
// buffer that holds the largest legal frame and written with a single
// Write each. Each side drives its conn from one goroutine.
type conn struct {
	rw   io.ReadWriter
	r    *bufio.Reader
	wbuf []byte
}

func newConn(rw io.ReadWriter) *conn {
	return &conn{rw: rw, r: bufio.NewReaderSize(rw, 4+MaxFrameSize)}
}

// readFrame reads and decodes the next frame. io.EOF means the peer
// closed cleanly between frames. A frame whose length is legal but whose
// contents do not parse is consumed and reported as ErrMalformedFrame, so
// the stream stays in step; any other error leaves the stream unusable.
func (c *conn) readFrame() (wireMsg, error) {
	hdr, err := c.r.Peek(4)
	if err != nil {
		if errors.Is(err, io.EOF) && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return wireMsg{}, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrameSize {
		return wireMsg{}, fmt.Errorf("%w: length field says %d bytes", ErrFrameTooLarge, n)
	}
	frame, err := c.r.Peek(4 + int(n))
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return wireMsg{}, err
	}
	m, err := decodeFrame(frame[4:])
	_, _ = c.r.Discard(len(frame)) // cannot fail: the bytes are buffered
	return m, err
}

// writeFrame sends m as one frame. An error satisfying isFrameError sent
// nothing and leaves the connection usable; any other error is the
// transport's.
func (c *conn) writeFrame(m *wireMsg) error {
	b, err := appendFrame(c.wbuf[:0], m)
	c.wbuf = b[:0]
	if err != nil {
		return err
	}
	_, err = c.rw.Write(b)
	return err
}
