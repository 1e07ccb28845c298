package mig

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"

	"machlock/internal/ipc"
	"machlock/internal/wire"
)

// codec is the packing plan for one Args or Reply struct type: its
// exported fields in declaration order. It plays the part of the
// marshalling code MiG would have generated for the type.
type codec struct {
	typ    reflect.Type
	fields []field
	size   int // capacity hint for a packed value
}

type field struct {
	index int
	kind  wireKind
}

// wireKind is how a field travels: the reflect kinds collapse to the six
// value encodings of internal/wire.
type wireKind uint8

const (
	kindBool wireKind = iota
	kindInt
	kindUint
	kindFloat
	kindString
	kindBytes
)

var codecs sync.Map // reflect.Type → *codec

// codecFor returns the cached plan for t, building it on first use. Only
// structs whose exported fields are all of a supported kind have one;
// unexported fields are skipped.
func codecFor(t reflect.Type) (*codec, error) {
	if c, ok := codecs.Load(t); ok {
		return c.(*codec), nil
	}
	if t.Kind() != reflect.Struct {
		return nil, fmt.Errorf("cannot pack %v: not a struct", t)
	}
	c := &codec{typ: t}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		var k wireKind
		switch f.Type.Kind() {
		case reflect.Bool:
			k, c.size = kindBool, c.size+1
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			k, c.size = kindInt, c.size+binary.MaxVarintLen64
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			k, c.size = kindUint, c.size+binary.MaxVarintLen64
		case reflect.Float32, reflect.Float64:
			k, c.size = kindFloat, c.size+8
		case reflect.String:
			k, c.size = kindString, c.size+16
		case reflect.Slice:
			if f.Type.Elem().Kind() != reflect.Uint8 {
				return nil, fmt.Errorf("cannot pack %v: field %s has unsupported type %v", t, f.Name, f.Type)
			}
			k, c.size = kindBytes, c.size+16
		default:
			return nil, fmt.Errorf("cannot pack %v: field %s has unsupported type %v", t, f.Name, f.Type)
		}
		c.fields = append(c.fields, field{index: i, kind: k})
	}
	actual, _ := codecs.LoadOrStore(t, c)
	return actual.(*codec), nil
}

// encode appends the fields of v, a struct of the codec's type.
func (c *codec) encode(b []byte, v reflect.Value) []byte {
	for _, f := range c.fields {
		fv := v.Field(f.index)
		switch f.kind {
		case kindBool:
			b = wire.AppendBool(b, fv.Bool())
		case kindInt:
			b = wire.AppendInt(b, fv.Int())
		case kindUint:
			b = wire.AppendUint(b, fv.Uint())
		case kindFloat:
			b = wire.AppendFloat(b, fv.Float())
		case kindString:
			b = wire.AppendString(b, fv.String())
		case kindBytes:
			b = wire.AppendBytes(b, fv.Bytes())
		}
	}
	return b
}

// decode fills v, a settable struct of the codec's type, from data, which
// must hold exactly one packed value.
func (c *codec) decode(data []byte, v reflect.Value) error {
	d := wire.NewDecoder(data)
	for _, f := range c.fields {
		fv := v.Field(f.index)
		overflow := false
		switch f.kind {
		case kindBool:
			fv.SetBool(d.Bool())
		case kindInt:
			x := d.Int()
			overflow = fv.OverflowInt(x)
			fv.SetInt(x)
		case kindUint:
			x := d.Uint()
			overflow = fv.OverflowUint(x)
			fv.SetUint(x)
		case kindFloat:
			x := d.Float()
			overflow = fv.OverflowFloat(x)
			fv.SetFloat(x)
		case kindString:
			fv.SetString(d.String())
		case kindBytes:
			fv.SetBytes(d.Bytes())
		}
		err := d.Err()
		if overflow {
			err = wire.ErrOverflow
		}
		if err != nil {
			return fmt.Errorf("field %s: %w", c.typ.Field(f.index).Name, err)
		}
	}
	return d.Finish()
}

// pack encodes *v into a fresh message payload.
func pack[T any](v *T) ([]byte, error) {
	c, err := codecFor(reflect.TypeFor[T]())
	if err != nil {
		return nil, fmt.Errorf("mig: pack: %w", err)
	}
	if v == nil {
		return nil, fmt.Errorf("mig: pack: nil *%v", c.typ)
	}
	return c.encode(make([]byte, 0, c.size), reflect.ValueOf(v).Elem()), nil
}

// decodePayload decodes one packed T.
func decodePayload[T any](data []byte) (*T, error) {
	c, err := codecFor(reflect.TypeFor[T]())
	if err != nil {
		return nil, fmt.Errorf("mig: unpack: %w", err)
	}
	v := new(T)
	if err := c.decode(data, reflect.ValueOf(v).Elem()); err != nil {
		return nil, fmt.Errorf("mig: unpack %v: %w", c.typ, err)
	}
	return v, nil
}

// unpack decodes a message's single payload item.
func unpack[T any](m *ipc.Message) (*T, error) {
	if len(m.Body) != 1 {
		return nil, ErrBadReply
	}
	payload, ok := m.Body[0].([]byte)
	if !ok {
		return nil, ErrBadReply
	}
	return decodePayload[T](payload)
}
