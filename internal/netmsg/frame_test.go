package netmsg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"machlock/internal/ipc"
	"machlock/internal/sched"
)

// readAll decodes every frame in data, stopping at the first error that
// leaves the stream out of step.
func readAll(data []byte) ([]wireMsg, error) {
	c := newConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(data), io.Discard})
	var out []wireMsg
	for {
		m, err := c.readFrame()
		if err != nil && !errors.Is(err, ErrMalformedFrame) {
			return out, err
		}
		out = append(out, m)
	}
}

func TestFrameRoundTripsEveryItemType(t *testing.T) {
	in := []wireMsg{
		{Op: 3, Body: []any{[]byte{1, 2, 3}, "mach", int(-7), int64(math.MinInt64), uint64(math.MaxUint64), 2.5, true, false}},
		{Op: -1, Err: "ipc: port is dead"},
		{Op: 0},
	}
	var data []byte
	for i := range in {
		var err error
		if data, err = appendFrame(data, &in[i]); err != nil {
			t.Fatal(err)
		}
	}
	out, err := readAll(data)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("stream ended with %v, want io.EOF", err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("decoded\n %+v\nwant\n %+v", out, in)
	}
}

func TestFrameEncodeRejectsWhatCannotCross(t *testing.T) {
	prefix := []byte("kept")
	cases := []struct {
		name string
		m    wireMsg
		want error
	}{
		{"unsupported item", wireMsg{Body: []any{int32(1)}}, ErrUnsupportedItem},
		{"nil item", wireMsg{Body: []any{nil}}, ErrUnsupportedItem},
		{"oversized bytes", wireMsg{Body: []any{make([]byte, MaxFrameSize)}}, ErrFrameTooLarge},
		{"oversized string", wireMsg{Body: []any{strings.Repeat("x", MaxFrameSize+1)}}, ErrFrameTooLarge},
		{"oversized error", wireMsg{Err: strings.Repeat("x", MaxFrameSize+1)}, ErrFrameTooLarge},
		{"too many items", wireMsg{Body: make([]any, maxItems+1)}, ErrFrameTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := appendFrame(prefix, &tc.m)
			if !errors.Is(err, tc.want) || !isFrameError(err) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if !bytes.Equal(b, prefix) || cap(b) > 2*MaxFrameSize {
				t.Fatalf("failed encode left %d bytes (cap %d), want the prefix alone", len(b), cap(b))
			}
		})
	}
	// Exactly at the limit is fine.
	m := wireMsg{Body: []any{make([]byte, MaxFrameSize-16)}}
	b, err := appendFrame(nil, &m)
	if err != nil || len(b) > 4+MaxFrameSize {
		t.Fatalf("frame near the limit: %d bytes, %v", len(b), err)
	}
	if out, err := readAll(b); !errors.Is(err, io.EOF) || len(out) != 1 {
		t.Fatalf("reading it back: %d frames, %v", len(out), err)
	}
}

func TestFrameDecodeRejectsMalformedContents(t *testing.T) {
	frame := func(contents ...byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(contents))), contents...)
	}
	cases := map[string][]byte{
		"unknown tag":      frame(0, 0, 1, 99, 0),
		"truncated item":   frame(0, 0, 1, tagInt64),
		"bad bool":         frame(0, 0, 1, tagBool, 2),
		"count past end":   frame(0, 0, 5, tagBool, 1),
		"trailing bytes":   frame(0, 0, 0, 0),
		"string past end":  frame(0, 0, 1, tagString, 9, 'a'),
		"huge count":       frame(0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f),
		"error past frame": frame(0, 40, 'x'),
	}
	good := frame(2, 0, 0)
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			c := newConn(struct {
				io.Reader
				io.Writer
			}{bytes.NewReader(append(data, good...)), io.Discard})
			if _, err := c.readFrame(); !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("err = %v, want ErrMalformedFrame", err)
			}
			// The bad frame was consumed whole: the next one still reads.
			if m, err := c.readFrame(); err != nil || m.Op != 1 {
				t.Fatalf("next frame = %+v, %v", m, err)
			}
		})
	}
}

func TestFrameReadBrokenStreams(t *testing.T) {
	full, err := appendFrame(nil, &wireMsg{Op: 1, Body: []any{"abc"}})
	if err != nil {
		t.Fatal(err)
	}
	huge := binary.BigEndian.AppendUint32(nil, MaxFrameSize+1)
	for name, tc := range map[string]struct {
		data []byte
		want error
	}{
		"clean EOF":       {nil, io.EOF},
		"partial header":  {full[:2], io.ErrUnexpectedEOF},
		"partial body":    {full[:len(full)-1], io.ErrUnexpectedEOF},
		"oversize length": {huge, ErrFrameTooLarge},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := readAll(tc.data); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestProxySurvivesUnencodableRequest: a request whose body cannot be
// framed fails alone; the proxy keeps forwarding later calls.
func TestProxySurvivesUnencodableRequest(t *testing.T) {
	target, stop := startService(t)
	defer stop()
	proxy, stopProxy := pipePair(t, target)
	defer stopProxy()

	self := sched.New("client")
	for _, tc := range []struct {
		body any
		want error
	}{
		{struct{}{}, ErrUnsupportedItem},
		{make([]byte, MaxFrameSize+1), ErrFrameTooLarge},
	} {
		resp, err := ipc.Call(self, proxy, opEcho, tc.body)
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(resp.Err, tc.want) {
			t.Fatalf("resp.Err = %v, want %v", resp.Err, tc.want)
		}
		resp.Destroy()

		resp, err = ipc.Call(self, proxy, opEcho, "still here")
		if err != nil || resp.Err != nil || resp.Body[0] != "still here" {
			t.Fatalf("call after a failed one: %+v, %v", resp, err)
		}
		resp.Destroy()
	}
}

// TestExportSurvivesUnencodableReply: a reply whose body cannot be framed
// comes back as a remote error, and the connection keeps serving.
func TestExportSurvivesUnencodableReply(t *testing.T) {
	target, stop := startService(t)
	defer stop()
	proxy, stopProxy := pipePair(t, target)
	defer stopProxy()

	self := sched.New("client")
	resp, err := ipc.Call(self, proxy, opBadReply)
	if err != nil {
		t.Fatal(err)
	}
	var re *RemoteError
	if !errors.As(resp.Err, &re) || !strings.Contains(re.Msg, "cannot cross the wire") {
		t.Fatalf("resp.Err = %v, want a remote framing error", resp.Err)
	}
	resp.Destroy()
	resp, err = ipc.Call(self, proxy, opEcho, int64(5))
	if err != nil || resp.Err != nil || resp.Body[0] != int64(5) {
		t.Fatalf("call after a failed reply: %+v, %v", resp, err)
	}
	resp.Destroy()
}

// TestExportAnswersMalformedRequest: a well-framed request that does not
// parse gets an error reply; a length past MaxFrameSize ends the
// connection before anything is allocated for it.
func TestExportAnswersMalformedRequest(t *testing.T) {
	target, stop := startService(t)
	defer stop()
	c1, c2 := net.Pipe()
	exported := make(chan error, 1)
	go func() { exported <- ExportConn(c2, target) }()
	client := newConn(c1)

	bad := append(binary.BigEndian.AppendUint32(nil, 5), 0, 0, 1, 99, 0)
	if _, err := c1.Write(bad); err != nil {
		t.Fatal(err)
	}
	m, err := client.readFrame()
	if err != nil || !strings.Contains(m.Err, "unknown tag") {
		t.Fatalf("reply to malformed request = %+v, %v", m, err)
	}
	if err := client.writeFrame(&wireMsg{Op: opEcho, Body: []any{"ok"}}); err != nil {
		t.Fatal(err)
	}
	if m, err := client.readFrame(); err != nil || m.Err != "" || m.Body[0] != "ok" {
		t.Fatalf("echo after malformed request = %+v, %v", m, err)
	}

	if _, err := c1.Write(binary.BigEndian.AppendUint32(nil, MaxFrameSize+1)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exported:
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("ExportConn = %v, want ErrFrameTooLarge", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ExportConn kept reading after an oversized length")
	}
	c1.Close()
}

// TestQueuedRequestFailsWhenTargetDies: the exported port is destroyed
// while a proxied request sits in its queue; the remote caller gets an
// error instead of hanging.
func TestQueuedRequestFailsWhenTargetDies(t *testing.T) {
	target := ipc.NewPort("unserved")
	target.TakeRef() // the exporter's reference, outliving Destroy
	defer target.Release(nil)
	proxy, stopProxy := pipePair(t, target)
	defer stopProxy()

	done := make(chan *ipc.Message, 1)
	sched.Go("client", func(self *sched.Thread) {
		resp, err := ipc.Call(self, proxy, opEcho, "never served")
		if err != nil {
			t.Errorf("Call: %v", err)
		}
		done <- resp
	})
	for target.QueueLen() == 0 {
		time.Sleep(time.Millisecond)
	}
	target.Destroy()
	select {
	case resp := <-done:
		if resp == nil {
			return
		}
		var re *RemoteError
		if !errors.As(resp.Err, &re) || !strings.Contains(re.Msg, ipc.ErrPortDead.Error()) {
			t.Fatalf("resp.Err = %v, want the remote ErrPortDead", resp.Err)
		}
		resp.Destroy()
	case <-time.After(5 * time.Second):
		t.Fatal("client still blocked after the exported port was destroyed")
	}
}
