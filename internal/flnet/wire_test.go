package flnet

// Tests for the message codec: vectors travel as raw frames behind a fixed
// header, written from and read into the vectors' own memory, the server
// sends a round's global as it is, and a peer that sends
// headers or frames no peer of this protocol would is refused with
// ErrBadFrame before anything is allocated for them — evicted by a server,
// fatal to a client — never a hang or a panic.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
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

// wireBytes is what sending the envelopes puts on the socket.
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

// trainResultHeader is the header of a train-result from client 1 carrying
// u (nil: no update) that announces frames, whatever u's vectors are.
func trainResultHeader(frames byte, u *fl.Update) []byte {
	return appendHeader(nil, &Envelope{Type: MsgTrainResult, ClientID: 1, Update: u}, frames)
}

// patchedHeader is the header of a train-result from client 1 with an
// update and no frames, byte at set to v.
func patchedHeader(at int, v byte) []byte {
	h := trainResultHeader(0, &fl.Update{ClientID: 1, NumSamples: 1})
	h[at] = v
	return h
}

// errorHeader is the header of an error message from client 1 declaring an
// n-byte error string.
func errorHeader(n uint32) []byte {
	h := appendHeader(nil, &Envelope{Type: MsgError, ClientID: 1}, 0)
	binary.LittleEndian.PutUint32(h[4:], n)
	return h
}

// appendFrame appends v's frame to dst one element at a time: the encoding
// the protocol specifies, which send's view of a vector's memory must match.
func appendFrame(dst []byte, v param.Vector) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(8*len(v)))
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// roundGlobalsAggregator is FedAvg, still streaming, that records the global
// each round aggregates over, and a copy of its bits.
type roundGlobalsAggregator struct {
	fl.WeightedAverage
	globals, bits []param.Vector
}

func (a *roundGlobalsAggregator) NewSink(global param.Vector) fl.UpdateSink {
	a.globals = append(a.globals, global)
	a.bits = append(a.bits, global.Clone())
	return a.WeightedAverage.NewSink(global)
}

// TestStragglerSendReadsClosedGlobal: the server sends a round's global from
// the vector itself and keeps no count of the sends still reading it. A raw
// peer that answers round 0 and then leaves its round-1 request unread until
// round 2 has been dispatched and closed holds that send in flight the whole
// time (the frame is larger than both sockets' buffers), and then still
// decodes round 1's global bit for bit. That global is an aggregate, borrowed
// from param's pool: the round that supersedes it must not give it back
// while a straggler's send may read it, so it is not idle in the pool while
// the send is in flight, nor after the run.
func TestStragglerSendReadsClosedGlobal(t *testing.T) {
	const n = 1 << 20 // an 8 MiB frame
	first := make(param.Vector, n)
	for i := range first {
		first[i] = math.Sqrt(float64(i)) - 512
	}
	want := first.Clone()
	closed := make(chan struct{}) // closed when round 2 has
	rounds := 0
	agg := &roundGlobalsAggregator{}
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 2, Rounds: 3, ClientsPerRound: 2, Seed: 7,
		Federation: fl.Federation{Quorum: 1}, RoundDeadline: 2 * time.Second, IOTimeout: 30 * time.Second,
		Aggregator: agg,
		InitGlobal: func(*rand.Rand) (param.Vector, error) { return first, nil },
		OnRound: func(fl.RoundStats) {
			if rounds++; rounds == 3 {
				close(closed)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ch := startServer(ctx, srv)

	rc := dialRaw(t, srv.Addr().String())
	defer rc.conn.Close()
	// A small receive buffer keeps the server's send of the frame blocked.
	if err := rc.conn.(*net.TCPConn).SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	rc.send(t, &Envelope{Type: MsgJoin, ClientID: 1})
	if ack := rc.recv(t); ack.Type != MsgJoinAck {
		t.Fatalf("ack = %v", ack.Type)
	}
	data := netClients(t, 1)[0]
	done := make(chan error, 1)
	go func() {
		done <- RunClient(ctx, ClientConfig{Addr: srv.Addr().String(), ClientID: 0, Data: data,
			Trainer: addOneTrainer{}, Personalizer: idPersonalizer{}, Seed: 7, IOTimeout: 30 * time.Second})
	}()
	// Round 0: the peer trains in place on the global it received.
	train := rc.recv(t)
	if train.Type != MsgTrain || train.Round != 0 || !sameBits(train.Global, want) {
		t.Fatalf("the peer read a %s for round %d whose global is not InitGlobal's", train.Type, train.Round)
	}
	g0 := train.Global
	rc.send(t, &Envelope{Type: MsgTrainResult, ClientID: 1, Update: &fl.Update{ClientID: 1, Params: g0, NumSamples: 1}})
	param.GiveBack(g0)

	select {
	case <-closed:
	case out := <-ch:
		t.Fatalf("the federation ended before round 2 closed: %v", out.err)
	}
	// The worker's send of the round-1 request still holds the write lock.
	if h := srv.handle(1); h == nil || h.c.wmu.TryLock() {
		t.Fatal("the round-1 send to the peer was not in flight when round 2 closed: the test shows nothing")
	}
	if len(agg.globals) != 3 {
		t.Fatalf("%d rounds aggregated, want 3", len(agg.globals))
	}
	sent := agg.globals[1]
	if param.IsIdle(sent) {
		t.Fatal("round 1's global is idle in the pool while a send still reads it")
	}
	train = rc.recv(t)
	if train.Type != MsgTrain || train.Round != 1 || !sameBits(train.Global, agg.bits[1]) {
		t.Fatalf("the peer read a %s for round %d whose global is not round 1's", train.Type, train.Round)
	}
	param.GiveBack(train.Global)
	rc.conn.Close() // the server evicts the straggler and finishes without it

	out := <-ch
	if out.err != nil {
		t.Fatalf("federation: %v", out.err)
	}
	if err := <-done; err != nil {
		t.Fatalf("client 0: %v", err)
	}
	if got := out.res.History[1].Stragglers; len(got) != 1 || got[0] != 1 {
		t.Fatalf("round 1 stragglers = %v, want the peer [1]", got)
	}
	if out.res.History[0].Stragglers != nil {
		t.Fatalf("round 0 stragglers = %v, want none", out.res.History[0].Stragglers)
	}
	if !sameBits(sent, agg.bits[1]) || param.IsIdle(sent) {
		t.Fatal("round 1's global changed, or went back to the pool, after its round expired")
	}
	if !sameBits(first, want) {
		t.Fatal("InitGlobal's vector changed after round 0 closed")
	}
}

// TestRecvReusesVectorBuffers: a connection decodes every vector into one
// it borrows from param's pool, so a global its receiver has not given back
// is never decoded into again, and one given back is the next one's.
func TestRecvReusesVectorBuffers(t *testing.T) {
	stream := wireBytes(t,
		&Envelope{Type: MsgTrain, Round: 0, Global: param.Vector{1, 2, 3}},
		&Envelope{Type: MsgTrain, Round: 1, Global: param.Vector{4, 5, 6}},
		&Envelope{Type: MsgPersonalize, Global: param.Vector{7, 8, 9}})
	c := newConn(streamConn{Reader: bytes.NewReader(stream)}, 0, MaxFrameBytes)
	a, err := c.recv()
	if err != nil {
		t.Fatal(err)
	}
	first := a.Global
	b, err := c.recv()
	if err != nil {
		t.Fatal(err)
	}
	if &b.Global[0] == &first[0] || !sameBits(first, param.Vector{1, 2, 3}) {
		t.Fatalf("the second global was decoded into the first, which was not given back: %v", first)
	}
	if !sameBits(b.Global, param.Vector{4, 5, 6}) || b.Round != 1 || b.Type != MsgTrain {
		t.Fatalf("second message = %+v", b)
	}
	second := b.Global // b is the connection's envelope, which the next recv overwrites
	param.GiveBack(first)
	idle := param.Idle()
	p, err := c.recv()
	if err != nil {
		t.Fatal(err)
	}
	if now := param.Idle(); now != idle-1 || &p.Global[0] != &first[0] || !sameBits(p.Global, param.Vector{7, 8, 9}) {
		t.Fatalf("the third global = %v, the pool went from %d to %d vectors: want it decoded into the first, given back", p.Global, idle, now)
	}
	param.GiveBack(p.Global)
	param.GiveBack(second)
}

// TestRequestWithoutGlobalRefused: a train or personalize request that
// announces no global, and any other message that announces one, is refused
// with ErrBadFrame from its header alone: nothing is borrowed for it.
func TestRequestWithoutGlobalRefused(t *testing.T) {
	for _, tc := range []struct {
		e      *Envelope
		frames byte
	}{
		{&Envelope{Type: MsgTrain, Round: 3}, 0},
		{&Envelope{Type: MsgPersonalize}, 0},
		{&Envelope{Type: MsgJoinAck}, 1 << frameGlobal},
		{&Envelope{Type: MsgTrainResult, ClientID: 1, Update: &fl.Update{ClientID: 1}}, 1<<frameGlobal | 1<<frameParams},
	} {
		stream := append(appendHeader(nil, tc.e, tc.frames), appendFrame(nil, param.Vector{1, 2, 3})...)
		r := bytes.NewReader(stream)
		c := newConn(streamConn{Reader: r}, 0, MaxFrameBytes)
		idle := param.Idle()
		if _, err := c.recv(); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%s announcing frames %#x: recv returned %v, want ErrBadFrame", tc.e.Type, tc.frames, err)
		}
		if read := len(stream) - r.Len() - c.br.Buffered(); read != headerSize {
			t.Fatalf("%s: %d bytes consumed, want the %d-byte header only", tc.e.Type, read, headerSize)
		}
		if now := param.Idle(); now != idle {
			t.Fatalf("%s: the pool went from %d to %d vectors", tc.e.Type, idle, now)
		}
	}
}

// TestSentFramesMatchAppendFrame: send writes each vector from its memory,
// through a buffered writer far smaller than the frame; whether the frame is
// empty, one element, or on either side of 64 KiB, the bytes are the header
// and appendFrame's.
func TestSentFramesMatchAppendFrame(t *testing.T) {
	const per = 8192 // 64 KiB of elements
	for _, n := range []int{0, 1, per - 1, per, per + 1, 3*per + 5} {
		v, w := make(param.Vector, n), make(param.Vector, n)
		for i := range v {
			v[i], w[i] = float64(i)+0.5, -float64(n-i)
		}
		for _, tc := range []struct {
			e      *Envelope
			frames byte
			vecs   []param.Vector
		}{
			{&Envelope{Type: MsgTrain, Round: 3, Global: v}, 1 << frameGlobal, []param.Vector{v}},
			{&Envelope{Type: MsgTrainResult, ClientID: 2, Update: &fl.Update{ClientID: 2, Params: v, ControlDelta: w, NumSamples: 7}},
				1<<frameParams | 1<<frameControl, []param.Vector{v, w}},
		} {
			want := appendHeader(nil, tc.e, tc.frames)
			for _, x := range tc.vecs {
				want = appendFrame(want, x)
			}
			if got := wireBytes(t, tc.e); !bytes.Equal(got, want) {
				t.Fatalf("%s of %d elements: %d bytes sent differ from the %d appendFrame builds", tc.e.Type, n, len(got), len(want))
			}
		}
	}
}

// TestSendAllocatesNothing: sending an update allocates nothing, on a
// warmed conn and on a cold one, whatever the model size: every frame is
// written from its vector's memory. The counters are process-wide, and
// goroutines an earlier test left winding down only add to them: the least
// of five tries is what a send allocates.
func TestSendAllocatesNothing(t *testing.T) {
	for _, n := range []int{80 << 10, 320 << 10} {
		e := &Envelope{Type: MsgTrainResult, Update: &fl.Update{Params: make(param.Vector, n)}}
		c := newConn(streamConn{Writer: io.Discard}, 0, 0)
		if err := c.send(e); err != nil {
			t.Fatal(err)
		}
		warm, cold := math.Inf(1), uint64(math.MaxUint64)
		for range 5 {
			warm = min(warm, testing.AllocsPerRun(20, func() { _ = c.send(e) }))
			conns := make([]*conn, 16)
			for i := range conns {
				conns[i] = newConn(streamConn{Writer: io.Discard}, 0, 0)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, c := range conns {
				_ = c.send(e)
			}
			runtime.ReadMemStats(&after)
			cold = min(cold, after.Mallocs-before.Mallocs)
		}
		if warm != 0 {
			t.Errorf("a %d-element update on a warmed conn: %v allocations per send, want 0", n, warm)
		}
		if cold != 0 {
			t.Errorf("a %d-element update on 16 cold conns: %d allocations, want 0", n, cold)
		}
	}
}

// TestV2PeerRejected: both directions refuse a peer of an earlier protocol
// — 2, whose vectors are gob fields, 3, whose train-results may be deltas,
// and 4, whose headers are gob — at the preamble with the typed mismatch.
func TestV2PeerRejected(t *testing.T) {
	for _, version := range []uint16{2, 3, 4} {
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

// write puts raw bytes on rc's socket.
func (r *rawClient) write(parts ...[]byte) error {
	_, err := r.conn.Write(bytes.Join(parts, nil))
	return err
}

func lengthPrefix(n uint64) []byte { return binary.LittleEndian.AppendUint64(nil, n) }

func hostileReplies() []hostileReply {
	bare := func() *fl.Update { return &fl.Update{ClientID: 1, NumSamples: 1} }
	params := trainResultHeader(1<<frameParams, bare())
	return []hostileReply{
		{name: "truncated-frame", write: func(rc *rawClient, n int) error {
			defer rc.conn.Close()
			return rc.write(params, lengthPrefix(uint64(8*n)), make([]byte, 4*n))
		}},
		{name: "oversize-length", write: func(rc *rawClient, n int) error {
			return rc.write(params, lengthPrefix(1<<40))
		}},
		{name: "length-not-8n", write: func(rc *rawClient, n int) error {
			return rc.write(params, lengthPrefix(uint64(8*n-3)), make([]byte, 8*n-3))
		}},
		{name: "wrong-model-size", write: func(rc *rawClient, n int) error {
			return rc.write(params, lengthPrefix(uint64(8*(n+1))), make([]byte, 8*(n+1)))
		}},
		{name: "unknown-frame-bits", write: func(rc *rawClient, n int) error {
			return rc.write(trainResultHeader(1<<numFrames, bare()))
		}},
		{name: "update-frame-without-update", write: func(rc *rawClient, n int) error {
			return rc.write(trainResultHeader(1<<frameParams, nil), lengthPrefix(uint64(8*n)), make([]byte, 8*n))
		}},
		{name: "unknown-type", write: func(rc *rawClient, n int) error {
			return rc.write(patchedHeader(0, byte(MsgError+1)))
		}},
		{name: "reserved-byte-set", write: func(rc *rawClient, n int) error {
			return rc.write(patchedHeader(3, 1))
		}},
		{name: "oversize-error", write: func(rc *rawClient, n int) error {
			// A 1 GiB error string declared, and nothing behind it.
			return rc.write(errorHeader(1 << 30))
		}},
		{name: "global-on-reply", write: func(rc *rawClient, n int) error {
			h := appendHeader(nil, &Envelope{Type: MsgTrainResult, ClientID: 1, Update: bare()}, 1<<frameGlobal|1<<frameParams)
			return rc.write(h, lengthPrefix(uint64(8*n)), make([]byte, 8*n), lengthPrefix(uint64(8*n)), make([]byte, 8*n))
		}},
		{name: "trailing-garbage", accepted: true, write: func(rc *rawClient, n int) error {
			u := bare()
			u.Params = make(param.Vector, n)
			if err := rc.c.send(&Envelope{Type: MsgTrainResult, ClientID: 1, Update: u}); err != nil {
				return err
			}
			return rc.write(bytes.Repeat([]byte("garbage!"), headerSize/8))
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
		Federation: fl.Federation{Quorum: quorum}, Aggregator: fl.WeightedAverage{}, IOTimeout: 10 * time.Second,
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
	for _, reply := range hostileReplies() {
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
	for _, reply := range hostileReplies() {
		t.Run(reply.name, func(t *testing.T) {
			_, err := runBadFrameFederation(t, reply, 0)
			if !errors.Is(err, fl.ErrQuorumNotMet) {
				t.Fatalf("err = %v, want fl.ErrQuorumNotMet", err)
			}
		})
	}
}

// TestHeaderBudget: a header declaring a 1 GiB error string, read the way
// the server reads a connection that has not joined yet, is refused with
// ErrBadFrame after its 64 bytes and with next to nothing allocated; error
// strings up to maxErrBytes still travel, and a longer one is not sent.
func TestHeaderBudget(t *testing.T) {
	const runs = 16
	stream := append(errorHeader(1<<30), make([]byte, 1<<20)...) // what a hostile peer would have follow
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		r := bytes.NewReader(stream)
		c := newConn(streamConn{Reader: r}, 0, 0)
		if _, err := c.recv(); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("recv returned %v, want ErrBadFrame", err)
		}
		if read := len(stream) - r.Len() - c.br.Buffered(); read != headerSize {
			t.Fatalf("%d bytes consumed, want the %d-byte header only", read, headerSize)
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= 64<<10 {
		t.Fatalf("a connection refusing the header allocated %d bytes", perRun)
	}
	for _, n := range []int{maxErrBytes - 1, maxErrBytes} {
		long := &Envelope{Type: MsgError, Err: strings.Repeat("x", n)}
		got, err := newConn(streamConn{Reader: bytes.NewReader(wireBytes(t, long))}, 0, 0).recv()
		if err != nil || got.Err != long.Err {
			t.Fatalf("a %d-byte error string did not round-trip: %v", n, err)
		}
	}
	tooLong := &Envelope{Type: MsgError, Err: strings.Repeat("x", maxErrBytes+1)}
	if err := newConn(streamConn{Writer: io.Discard}, 0, 0).send(tooLong); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("sending a %d-byte error string: %v, want ErrBadFrame", len(tooLong.Err), err)
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
		_, _ = c.raw.Write(append(appendHeader(nil, &Envelope{Type: MsgTrain}, 1<<frameGlobal), lengthPrefix(MaxFrameBytes+8)...))
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
