package flnet

// Tests for the message codec: vectors travel as raw frames behind a gob
// header, the server frames a round's global once, and a peer that sends
// headers or frames no peer of this protocol would is refused with
// ErrBadFrame before anything is allocated for them — evicted by a server,
// fatal to a client — never a hang or a panic.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"calibre/internal/fl"
	"calibre/internal/param"
)

// streamConn is a net.Conn over plain byte streams, for driving conn
// without a socket.
type streamConn struct {
	io.Reader
	io.Writer
}

func (streamConn) Close() error                     { return nil }
func (streamConn) LocalAddr() net.Addr              { return nil }
func (streamConn) RemoteAddr() net.Addr             { return nil }
func (streamConn) SetDeadline(time.Time) error      { return nil }
func (streamConn) SetReadDeadline(time.Time) error  { return nil }
func (streamConn) SetWriteDeadline(time.Time) error { return nil }

// wireBytes is what a fresh connection's first sends of the envelopes put
// on the socket (the first carries gob's type descriptors).
func wireBytes(t testing.TB, envs ...*Envelope) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := newConn(streamConn{Writer: &buf}, 0, 0)
	for _, e := range envs {
		if err := c.send(e); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	return buf.Bytes()
}

// gobBytes is the same for a plain gob stream: the v2 wire.
func gobBytes(t testing.TB, envs ...*Envelope) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, e := range envs {
		if err := enc.Encode(e); err != nil {
			t.Fatalf("gob: %v", err)
		}
	}
	return buf.Bytes()
}

// TestGlobalFramedOncePerRound: however many clients a round (or the
// personalization stage) sends the global to, it is encoded once.
func TestGlobalFramedOncePerRound(t *testing.T) {
	const n, rounds = 4, 3
	clients := netClients(t, n)
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: n, Rounds: rounds, ClientsPerRound: n, Seed: 7,
		Aggregator: fl.WeightedAverage{}, IOTimeout: 20 * time.Second,
		InitGlobal: func(*rand.Rand) (param.Vector, error) { return make(param.Vector, 64), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = RunClient(ctx, ClientConfig{Addr: srv.Addr().String(), ClientID: id, Data: clients[id],
				Trainer: driftTrainer{}, Personalizer: idPersonalizer{}, Seed: 7})
		}()
	}
	// Server.Run, with the engine kept in hand.
	go srv.acceptLoop()
	if err := srv.awaitQuorumJoin(ctx); err != nil {
		t.Fatal(err)
	}
	eng := newRoundEngine(srv)
	global, history, err := fl.RunRounds(ctx, srv.cfg.round(), eng)
	if err != nil {
		t.Fatal(err)
	}
	if eng.shares != rounds {
		t.Fatalf("%d rounds of %d participants framed the global %d times, want once a round", rounds, n, eng.shares)
	}
	accs, err := eng.personalizeAll(ctx, global)
	if err != nil {
		t.Fatal(err)
	}
	if eng.shares != rounds+1 {
		t.Fatalf("personalizing %d clients framed the global %d times, want once", n, eng.shares-rounds)
	}
	srv.shutdownAll()
	srv.listener.Close()
	srv.closeAll()
	close(srv.done)
	wg.Wait()
	if len(accs) != n || len(history) != rounds {
		t.Fatalf("federation incomplete: %d accuracies, %d rounds", len(accs), len(history))
	}
}

// TestSharedFrameNotOverwrittenInFlight: the engine reuses the previous
// round's frame buffer only once every send of it has finished.
func TestSharedFrameNotOverwrittenInFlight(t *testing.T) {
	e := &roundEngine{}
	first := e.share(param.Vector{1, 2})
	first.refs.Add(1) // a worker is still writing it
	second := e.share(param.Vector{3, 4})
	if second == first {
		t.Fatal("frame overwritten while a send was in flight")
	}
	if want := appendFrame(nil, param.Vector{1, 2}); !bytes.Equal(first.buf, want) {
		t.Fatalf("in-flight frame changed: %x", first.buf)
	}
	if third := e.share(param.Vector{5, 6}); third != second {
		t.Fatal("idle frame buffer not reused")
	}
}

// TestRecvReusesVectorBuffers: a connection decodes each round's global
// into the buffer the previous round's used.
func TestRecvReusesVectorBuffers(t *testing.T) {
	stream := wireBytes(t,
		&Envelope{Type: MsgTrain, Round: 0, Global: param.Vector{1, 2, 3}},
		&Envelope{Type: MsgTrain, Round: 1, Global: param.Vector{4, 5, 6}})
	c := newConn(streamConn{Reader: bytes.NewReader(stream)}, 0, MaxFrameBytes)
	a, err := c.recv()
	if err != nil {
		t.Fatal(err)
	}
	first := &a.Global[0]
	b, err := c.recv()
	if err != nil {
		t.Fatal(err)
	}
	if &b.Global[0] != first {
		t.Fatal("second global decoded into a fresh vector")
	}
	if !sameBits(b.Global, param.Vector{4, 5, 6}) || b.Round != 1 || b.Type != MsgTrain {
		t.Fatalf("second message = %+v", b)
	}
}

// TestV2PeerRejected: both directions refuse a peer of an earlier protocol
// — 2, whose vectors are gob fields, and 3, whose train-results may be
// deltas — at the preamble with the typed mismatch.
func TestV2PeerRejected(t *testing.T) {
	for _, version := range []uint16{2, 3} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			old := make([]byte, preambleSize)
			copy(old, ProtocolMagic)
			binary.LittleEndian.PutUint16(old[4:6], version)

			// This build's client dialing an old server.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				peer, err := ln.Accept()
				if err != nil {
					return
				}
				defer peer.Close()
				_, _ = peer.Write(old)
				_, _ = io.ReadFull(peer, make([]byte, preambleSize))
			}()
			err = RunClient(context.Background(), ClientConfig{
				Addr: ln.Addr().String(), Data: netClients(t, 1)[0],
				Trainer: addOneTrainer{}, Personalizer: idPersonalizer{}, IOTimeout: 2 * time.Second,
			})
			if !errors.Is(err, ErrProtocolMismatch) {
				t.Fatalf("client against a v%d server: %v, want ErrProtocolMismatch", version, err)
			}

			// An old client dialing this build's server: dropped after the
			// preamble.
			srv, err := NewServer(ServerConfig{
				Addr: "127.0.0.1:0", NumClients: 1, Rounds: 1, ClientsPerRound: 1,
				Aggregator: fl.WeightedAverage{}, IOTimeout: 5 * time.Second,
				InitGlobal: func(*rand.Rand) (param.Vector, error) { return make(param.Vector, 2), nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			ch := startServer(ctx, srv)
			peer, err := net.DialTimeout("tcp", srv.Addr().String(), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Close()
			if _, err := peer.Write(old); err != nil {
				t.Fatal(err)
			}
			if err := readPreamble(peer, 5*time.Second); err != nil {
				t.Fatalf("server preamble: %v", err)
			}
			_ = peer.SetReadDeadline(time.Now().Add(10 * time.Second))
			if _, err := peer.Read(make([]byte, 1)); err == nil {
				t.Fatalf("server kept talking to a v%d client", version)
			}
			if got := srv.Joined(); len(got) != 0 {
				t.Fatalf("v%d client joined: %v", version, got)
			}
			cancel()
			<-ch
		})
	}
}

// hostileReply is one way of answering a train request that no client of
// this protocol would: the bytes written after the request arrives.
type hostileReply struct {
	name string
	// write sends the reply on rc, for a model of n parameters.
	write func(rc *rawClient, n int) error
	// accepted marks replies whose first message is valid (the poison is
	// behind it): the update counts, and the peer is evicted at the next
	// read instead.
	accepted bool
}

// reply writes a train-result header announcing frames (nil update: a
// header without one), then raw bytes behind it.
func (r *rawClient) reply(frames int, u *fl.Update, raw ...[]byte) error {
	hdr := &Envelope{Type: MsgTrainResult | MsgType(frames<<frameShift), ClientID: 1, Update: u}
	if err := r.c.enc.Encode(hdr); err != nil {
		return err
	}
	for _, b := range raw {
		if _, err := r.c.bw.Write(b); err != nil {
			return err
		}
	}
	return r.c.bw.Flush()
}

func lengthPrefix(n uint64) []byte { return binary.LittleEndian.AppendUint64(nil, n) }

func hostileReplies(t *testing.T) []hostileReply {
	bare := func() *fl.Update { return &fl.Update{ClientID: 1, NumSamples: 1} }
	return []hostileReply{
		{name: "truncated-frame", write: func(rc *rawClient, n int) error {
			defer rc.conn.Close()
			return rc.reply(1<<frameParams, bare(), lengthPrefix(uint64(8*n)), make([]byte, 4*n))
		}},
		{name: "oversize-length", write: func(rc *rawClient, n int) error {
			return rc.reply(1<<frameParams, bare(), lengthPrefix(1<<40))
		}},
		{name: "length-not-8n", write: func(rc *rawClient, n int) error {
			return rc.reply(1<<frameParams, bare(), lengthPrefix(uint64(8*n-3)), make([]byte, 8*n-3))
		}},
		{name: "wrong-model-size", write: func(rc *rawClient, n int) error {
			return rc.reply(1<<frameParams, bare(), lengthPrefix(uint64(8*(n+1))), make([]byte, 8*(n+1)))
		}},
		{name: "unknown-frame-bits", write: func(rc *rawClient, n int) error {
			return rc.reply(1<<numFrames, bare())
		}},
		{name: "update-frame-without-update", write: func(rc *rawClient, n int) error {
			return rc.reply(1<<frameParams, nil, lengthPrefix(uint64(8*n)), make([]byte, 8*n))
		}},
		{name: "vector-in-gob-header", write: func(rc *rawClient, n int) error {
			// What a v2 client would send.
			u := bare()
			u.Params = make(param.Vector, n)
			return rc.reply(0, u)
		}},
		{name: "oversize-header-declared", write: func(rc *rawClient, n int) error {
			// A gob length prefix beyond the header budget, and nothing behind it.
			_, err := rc.conn.Write(gobCount1MiB)
			return err
		}},
		{name: "oversize-header-streamed", write: func(rc *rawClient, n int) error {
			// The server hangs up as soon as the budget is spent, which may
			// well be mid-write.
			_, _ = rc.conn.Write(manySmallGobMessages(t))
			return nil
		}},
		{name: "trailing-garbage", accepted: true, write: func(rc *rawClient, n int) error {
			u := bare()
			u.Params = make(param.Vector, n)
			if err := rc.c.send(&Envelope{Type: MsgTrainResult, ClientID: 1, Update: u}); err != nil {
				return err
			}
			_, err := rc.conn.Write([]byte("\x00\xde\xad\xbe\xef garbage after a valid message"))
			return err
		}},
	}
}

// runBadFrameFederation runs two rounds of a two-client federation in which
// client 1 is a raw peer answering its first train request with reply.
func runBadFrameFederation(t *testing.T, reply hostileReply, quorum int) (*Result, error) {
	t.Helper()
	const n = 6
	cfg := ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 2, Rounds: 2, ClientsPerRound: 2, Seed: 5,
		Quorum: quorum, Aggregator: fl.WeightedAverage{}, IOTimeout: 10 * time.Second,
		InitGlobal: func(*rand.Rand) (param.Vector, error) { return make(param.Vector, n), nil },
	}
	if quorum > 0 {
		cfg.RoundDeadline = 20 * time.Second
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The context is the hang detector: far beyond what any case needs.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ch := startServer(ctx, srv)

	rc := dialRaw(t, srv.Addr().String())
	defer rc.conn.Close()
	rc.send(t, &Envelope{Type: MsgJoin, ClientID: 1})
	if ack := rc.recv(t); ack.Type != MsgJoinAck {
		t.Fatalf("ack = %v", ack.Type)
	}
	data := netClients(t, 1)[0]
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// Under the synchronous discipline the federation fails and takes
		// this client's connection with it.
		_ = RunClient(ctx, ClientConfig{Addr: srv.Addr().String(), ClientID: 0, Data: data,
			Trainer: addOneTrainer{}, Personalizer: idPersonalizer{}, Seed: 5, IOTimeout: 10 * time.Second})
	}()
	go func() {
		defer wg.Done()
		train, err := rc.c.recv()
		if err != nil || train.Type != MsgTrain || len(train.Global) != n {
			t.Errorf("train request: %+v, %v", train, err)
			return
		}
		if err := reply.write(rc, n); err != nil {
			t.Errorf("hostile reply: %v", err)
			return
		}
		// The server's answer to all of it is to hang up.
		for {
			if _, err := rc.c.recv(); err != nil {
				return
			}
		}
	}()
	out := <-ch
	cancel()
	rc.conn.Close()
	wg.Wait()
	if ctx.Err() == context.DeadlineExceeded {
		t.Fatal("federation hung")
	}
	return out.res, out.err
}

// TestServerEvictsBadFramePeer: with a quorum of one, every hostile reply
// costs the federation exactly the offending peer.
func TestServerEvictsBadFramePeer(t *testing.T) {
	for _, reply := range hostileReplies(t) {
		t.Run(reply.name, func(t *testing.T) {
			res, err := runBadFrameFederation(t, reply, 1)
			if err != nil {
				t.Fatalf("federation failed: %v", err)
			}
			bad := 0 // the round the peer falls out of
			if reply.accepted {
				bad = 1
				if got := res.History[0].Stragglers; len(got) != 0 {
					t.Fatalf("round 0 stragglers = %v, the valid update should count", got)
				}
			}
			if got := res.History[bad].Stragglers; len(got) != 1 || got[0] != 1 {
				t.Fatalf("round %d stragglers = %v, want the hostile peer [1]", bad, got)
			}
			if _, ok := res.Accuracies[1]; ok || len(res.Accuracies) != 1 {
				t.Fatalf("accuracies = %v, want the well-behaved client only", res.Accuracies)
			}
		})
	}
}

// TestSyncRoundFailsTypedOnBadFrame: without a quorum to fall back on, the
// same replies fail the round with the typed quorum error.
func TestSyncRoundFailsTypedOnBadFrame(t *testing.T) {
	for _, reply := range hostileReplies(t) {
		t.Run(reply.name, func(t *testing.T) {
			_, err := runBadFrameFederation(t, reply, 0)
			if !errors.Is(err, fl.ErrQuorumNotMet) {
				t.Fatalf("err = %v, want fl.ErrQuorumNotMet", err)
			}
		})
	}
}

// manySmallGobMessages is a gob stream one Decode consumes whole although
// no message in it is over the header budget, only their sum: the type
// descriptors of a value with many long-named struct fields, one message
// per field type.
func manySmallGobMessages(t *testing.T) []byte {
	t.Helper()
	fields := make([]reflect.StructField, 2*maxHeaderBytes>>10)
	for i := range fields {
		long := fmt.Sprintf("F%d%s", i, strings.Repeat("x", 1<<10))
		fields[i] = reflect.StructField{Name: fmt.Sprintf("F%d", i),
			Type: reflect.StructOf([]reflect.StructField{{Name: long, Type: reflect.TypeOf(0)}})}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(reflect.New(reflect.StructOf(fields)).Interface()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHeaderBudget: a gob header beyond maxHeaderBytes — declared in one
// length prefix, or streamed as many small messages — is refused with
// ErrBadFrame without reading on into what follows it, and one just under
// the budget is not.
func TestHeaderBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		header []byte
	}{
		{"declared", gobCount1MiB},
		{"streamed", manySmallGobMessages(t)},
	} {
		header := bytes.NewReader(tc.header)
		frames := bytes.NewReader(make([]byte, 1<<20)) // what a hostile peer would have follow
		_, err := newConn(streamConn{Reader: io.MultiReader(header, frames)}, 0, MaxFrameBytes).recv()
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: recv returned %v, want ErrBadFrame", tc.name, err)
		}
		// The connection's bufio.Reader may have one buffer in hand.
		if read := len(tc.header) - header.Len() + 1<<20 - frames.Len(); read > maxHeaderBytes+4096 {
			t.Errorf("%s: %d bytes were read off the wire for a header budget of %d", tc.name, read, maxHeaderBytes)
		}
	}
	long := &Envelope{Type: MsgError, Err: strings.Repeat("x", maxHeaderBytes-1024)}
	got, err := newConn(streamConn{Reader: bytes.NewReader(wireBytes(t, long, long))}, 0, 0).recv()
	if err != nil || got.Err != long.Err {
		t.Fatalf("a %d-byte header was refused: %v", len(wireBytes(t, long)), err)
	}
}

// TestClientRefusesBadFrames: a client refuses a global larger than the
// protocol allows without allocating it, and a later global of another
// size than the first.
func TestClientRefusesBadFrames(t *testing.T) {
	serve := func(t *testing.T, script func(c *conn)) error {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			defer raw.Close()
			if writePreamble(raw, time.Second) != nil || readPreamble(raw, time.Second) != nil {
				return
			}
			c := newConn(raw, 5*time.Second, MaxFrameBytes)
			if join, err := c.recv(); err != nil || join.Type != MsgJoin {
				return
			}
			_ = c.send(&Envelope{Type: MsgJoinAck})
			script(c)
			_, _ = c.recv() // until the client hangs up
		}()
		return RunClient(context.Background(), ClientConfig{
			Addr: ln.Addr().String(), Data: netClients(t, 1)[0],
			Trainer: addOneTrainer{}, Personalizer: idPersonalizer{}, IOTimeout: 5 * time.Second,
		})
	}
	err := serve(t, func(c *conn) {
		_ = c.enc.Encode(&Envelope{Type: MsgTrain | 1<<frameGlobal<<frameShift})
		_, _ = c.bw.Write(lengthPrefix(MaxFrameBytes + 8))
		_ = c.bw.Flush()
	})
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversize global: %v, want ErrBadFrame", err)
	}
	err = serve(t, func(c *conn) {
		_ = c.send(&Envelope{Type: MsgTrain, Round: 0, Global: make(param.Vector, 4)})
		if reply, err := c.recv(); err != nil || reply.Type != MsgTrainResult {
			return
		}
		_ = c.send(&Envelope{Type: MsgTrain, Round: 1, Global: make(param.Vector, 5)})
	})
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("resized global: %v, want ErrBadFrame", err)
	}
}
