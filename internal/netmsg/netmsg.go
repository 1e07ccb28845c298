// Package netmsg implements the network message server role of Section 3:
// "Most kernel operations are invoked by sending messages to the kernel,
// permitting transparent remote invocation over networks."
//
// Transparency is literal: Proxy returns an ordinary local *ipc.Port.
// Messages sent to it — by ipc.Call, by mig stubs, by anything — are
// forwarded over the connection to the exporting side, delivered to the
// real port there, and the replies travel back to the local sender's reply
// port. Client code cannot tell whether a port is local or a network
// proxy, which is exactly the property the paper describes.
//
// The wire format is a length-prefixed binary frame in the internal/wire
// encoding (see frame.go). Message bodies may carry []byte, string, int,
// int64, uint64, float64 and bool items; the mig stub layer only ever
// sends one []byte payload, so typed interfaces cross the network
// unchanged. A request whose body cannot be framed fails alone with an
// error reply; the connection keeps serving.
package netmsg

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"machlock/internal/ipc"
	"machlock/internal/sched"
)

// Errors surfaced by the proxy.
var (
	// ErrConnection reports a broken transport under an in-flight call.
	ErrConnection = errors.New("netmsg: connection failed")
)

// RemoteError carries a remote-side failure (dispatcher or handler error)
// back to the local caller as text; error identity does not cross the
// wire.
type RemoteError struct {
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string { return "netmsg(remote): " + e.Msg }

// Stats counts frames.
type Stats struct {
	RequestsForwarded int64
	RepliesReturned   int64
}

var (
	requestsForwarded atomic.Int64
	repliesReturned   atomic.Int64
)

// GlobalStats returns package-wide frame counts.
func GlobalStats() Stats {
	return Stats{
		RequestsForwarded: requestsForwarded.Load(),
		RepliesReturned:   repliesReturned.Load(),
	}
}

// ExportConn serves the target port over one connection: each decoded
// request frame becomes a local RPC to target and the reply frame travels
// back. It returns when the connection or the port dies. The caller's
// reference to target covers the calls made here.
func ExportConn(rw io.ReadWriteCloser, target *ipc.Port) error {
	defer rw.Close()
	c := newConn(rw)
	t := sched.New("netmsg-export")
	for {
		req, err := c.readFrame()
		var out wireMsg
		switch {
		case errors.Is(err, ErrMalformedFrame):
			// The framing is intact, so only this request is lost.
			out = wireMsg{Op: req.Op, Err: err.Error()}
		case errors.Is(err, io.EOF):
			return nil
		case err != nil:
			return err
		default:
			out = serve(t, target, &req)
		}
		if err := c.writeFrame(&out); err != nil {
			if !isFrameError(err) {
				return err
			}
			// The reply cannot cross the wire: report that instead.
			out = wireMsg{Op: out.Op, Err: err.Error()}
			if err := c.writeFrame(&out); err != nil {
				return err
			}
		}
	}
}

// serve makes the local RPC for one forwarded request.
func serve(t *sched.Thread, target *ipc.Port, req *wireMsg) wireMsg {
	resp, err := ipc.Call(t, target, req.Op, req.Body...)
	if err != nil {
		return wireMsg{Op: req.Op, Err: err.Error()}
	}
	defer resp.Destroy()
	if resp.Err != nil {
		return wireMsg{Op: resp.Op, Err: resp.Err.Error()}
	}
	return wireMsg{Op: resp.Op, Body: resp.Body}
}

// Export accepts connections and serves target on each until the listener
// closes. Run it on its own goroutine.
//
// Closing the listener is the shutdown path: Export closes every
// connection it is still serving — which unblocks their ExportConn
// goroutines out of the decode loop — and returns only after all of them
// have exited, so a daemon can tear down its network surface without
// leaking a goroutine per connected (or half-disconnected) client. A
// handler blocked inside the kernel RPC itself is not interruptible from
// here; the exporting side must destroy the target port (failing the call)
// before or alongside closing the listener.
func Export(l net.Listener, target *ipc.Port) {
	var (
		mu    sync.Mutex
		conns = make(map[io.Closer]struct{})
		wg    sync.WaitGroup
	)
	for {
		conn, err := l.Accept()
		if err != nil {
			mu.Lock()
			for c := range conns {
				c.Close()
			}
			mu.Unlock()
			wg.Wait()
			return
		}
		mu.Lock()
		conns[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = ExportConn(conn, target)
			mu.Lock()
			delete(conns, conn)
			mu.Unlock()
		}()
	}
}

// ProxyConn builds the transparent local port for a connection to an
// exporting side. The returned port carries the creator's reference; the
// forwarder holds its own. Destroy the port to shut the proxy down (the
// connection closes and the forwarder exits).
//
// Requests are forwarded one at a time in arrival order — the message
// queue on the proxy port provides the buffering, exactly as a real port's
// queue would.
func ProxyConn(rw io.ReadWriteCloser, name string) *ipc.Port {
	proxy := ipc.NewPort(name)
	proxy.TakeRef() // the forwarder's reference
	sched.Go("netmsg-proxy:"+name, func(t *sched.Thread) {
		defer rw.Close()
		defer proxy.Release(nil)
		c := newConn(rw)
		for {
			req, err := proxy.Receive(t)
			if err != nil {
				return // proxy destroyed
			}
			requestsForwarded.Add(1)
			reply, terr := c.forward(req)
			if reply != nil {
				repliesReturned.Add(1)
				if err := reply.Dest.Send(reply); err != nil {
					reply.Destroy()
				}
			}
			req.Destroy()
			if terr != nil {
				return // transport is gone; stop forwarding
			}
		}
	})
	return proxy
}

// forward sends one request over the connection and builds the local
// reply from the answer. A request that cannot be framed, or an answer
// that does not parse, fails only this call; the returned error is set
// only when the transport itself broke.
func (c *conn) forward(req *ipc.Message) (*ipc.Message, error) {
	err := c.writeFrame(&wireMsg{Op: req.Op, Body: req.Body})
	if isFrameError(err) {
		return ipc.NewErrorReply(req, err), nil
	}
	var out wireMsg
	if err == nil {
		out, err = c.readFrame()
	}
	switch {
	case errors.Is(err, ErrMalformedFrame):
		return ipc.NewErrorReply(req, err), nil
	case err != nil:
		err = fmt.Errorf("%w: %v", ErrConnection, err)
		return ipc.NewErrorReply(req, err), err
	case out.Err != "":
		return ipc.NewErrorReply(req, &RemoteError{Msg: out.Err}), nil
	default:
		return ipc.NewReply(req, out.Body...), nil
	}
}

// Proxy dials addr and returns the transparent port for it.
func Proxy(addr, name string) (*ipc.Port, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ProxyConn(conn, name), nil
}
