package flnet

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"calibre/internal/fl"
	"calibre/internal/param"
)

// TestPreambleExchange pins the preamble bytes and the happy path over a
// real pipe.
func TestPreambleExchange(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	errc := make(chan error, 1)
	go func() { errc <- writePreamble(a, time.Second) }()
	buf := make([]byte, preambleSize)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("writePreamble: %v", err)
	}
	if string(buf[:4]) != ProtocolMagic {
		t.Fatalf("magic = %q", buf[:4])
	}
	if v := binary.LittleEndian.Uint16(buf[4:6]); v != ProtocolVersion {
		t.Fatalf("version = %d", v)
	}
	if buf[6] != 0 || buf[7] != 0 {
		t.Fatalf("reserved bytes = %v", buf[6:8])
	}
}

// TestPreambleRejectsIncompatiblePeers: wrong magic and wrong version each
// yield the typed ErrProtocolMismatch.
func TestPreambleRejectsIncompatiblePeers(t *testing.T) {
	send := func(t *testing.T, raw []byte) error {
		t.Helper()
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		go func() {
			_, _ = a.Write(raw)
			_ = a.Close()
		}()
		return readPreamble(b, time.Second)
	}
	gobJoin := []byte{0x2c, 0xff, 0x81, 0x03, 0x01, 0x01, 0x08} // a legacy client's first gob bytes
	if err := send(t, gobJoin[:preambleSize-1]); err == nil || errors.Is(err, ErrProtocolMismatch) {
		// Short writes surface as transport errors, not mismatches.
		t.Fatalf("truncated preamble err = %v", err)
	}
	if err := send(t, append(gobJoin, 0)); !errors.Is(err, ErrProtocolMismatch) {
		t.Fatalf("legacy gob stream err = %v, want ErrProtocolMismatch", err)
	}
	futuristic := make([]byte, preambleSize)
	copy(futuristic, ProtocolMagic)
	binary.LittleEndian.PutUint16(futuristic[4:6], ProtocolVersion+7)
	if err := send(t, futuristic); !errors.Is(err, ErrProtocolMismatch) {
		t.Fatalf("future version err = %v, want ErrProtocolMismatch", err)
	}
}

// TestClientRejectsIncompatibleServer: a client dialing a server from an
// incompatible build gets a clean typed error, not a gob failure.
func TestClientRejectsIncompatibleServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		bad := make([]byte, preambleSize)
		copy(bad, ProtocolMagic)
		binary.LittleEndian.PutUint16(bad[4:6], ProtocolVersion+1)
		_, _ = conn.Write(bad)
		buf := make([]byte, preambleSize)
		_, _ = io.ReadFull(conn, buf)
	}()
	err = RunClient(context.Background(), ClientConfig{
		Addr: ln.Addr().String(), ClientID: 0, Data: netClients(t, 1)[0],
		Trainer: addOneTrainer{}, Personalizer: idPersonalizer{},
		IOTimeout: 2 * time.Second,
	})
	if !errors.Is(err, ErrProtocolMismatch) {
		t.Fatalf("err = %v, want ErrProtocolMismatch", err)
	}
}

// TestServerRejectsIncompatibleClient: a wrong-version client is dropped at
// the preamble without disturbing the federation, which completes with the
// compatible client.
func TestServerRejectsIncompatibleClient(t *testing.T) {
	clients := netClients(t, 1)
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 1, Rounds: 1, ClientsPerRound: 1, Seed: 3,
		Aggregator: fl.WeightedAverage{},
		InitGlobal: func(rng *rand.Rand) (param.Vector, error) { return make([]float64, 2), nil },
		IOTimeout:  10 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	var srvErr error
	var res *Result
	go func() {
		defer wg.Done()
		res, srvErr = srv.Run(ctx)
	}()

	// The incompatible client: valid magic, wrong version. The server
	// answers with its own preamble and then hangs up.
	conn, err := net.DialTimeout("tcp", srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	bad := make([]byte, preambleSize)
	copy(bad, ProtocolMagic)
	binary.LittleEndian.PutUint16(bad[4:6], ProtocolVersion+1)
	if _, err := conn.Write(bad); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := readPreamble(conn, 5*time.Second); err != nil {
		t.Fatalf("server preamble: %v", err)
	}
	buf := make([]byte, 1)
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept talking to an incompatible client")
	}
	_ = conn.Close()

	cerr := RunClient(ctx, ClientConfig{
		Addr: srv.Addr().String(), ClientID: 0, Data: clients[0],
		Trainer: addOneTrainer{}, Personalizer: idPersonalizer{},
		Seed: 3, IOTimeout: 10 * time.Second,
	})
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server Run: %v", srvErr)
	}
	if cerr != nil {
		t.Fatalf("compatible client: %v", cerr)
	}
	if len(res.Accuracies) != 1 {
		t.Fatalf("accuracies = %v", res.Accuracies)
	}
}

// TestEnvelopeWireRoundTrip pins the message codec: an Envelope carrying
// a full Update survives send/recv over a real connection, vectors
// bit for bit.
func TestEnvelopeWireRoundTrip(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	want := &Envelope{
		Type:     MsgTrainResult,
		ClientID: 7,
		Round:    3,
		Update: &fl.Update{
			ClientID:     7,
			Params:       []float64{1.5, -2.25, 0},
			NumSamples:   120,
			TrainLoss:    3.14,
			Divergence:   0.42,
			ControlDelta: []float64{0.1, 0.2, 0.3},
		},
	}
	done := make(chan error, 1)
	go func() {
		done <- newConn(client, time.Second, 0).send(want)
	}()
	got, err := newConn(server, time.Second, MaxFrameBytes).recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("send: %v", err)
	}
	if got.Type != want.Type || got.ClientID != 7 || got.Round != 3 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.Update == nil || got.Update.Divergence != 0.42 || got.Update.NumSamples != 120 || got.Update.TrainLoss != 3.14 {
		t.Fatalf("update mismatch: %+v", got.Update)
	}
	if !sameBits(got.Update.Params, want.Update.Params) || !sameBits(got.Update.ControlDelta, want.Update.ControlDelta) {
		t.Fatalf("vectors mismatch: %+v", got.Update)
	}
	if want.Update.Params == nil || want.Update.ControlDelta == nil || want.Type != MsgTrainResult {
		t.Fatal("send mutated the caller's envelope")
	}
}

// TestConnDeadlineFires verifies that the per-operation timeout aborts a
// receive on a silent connection instead of blocking forever.
func TestConnDeadlineFires(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			defer conn.Close()
			time.Sleep(2 * time.Second) // never send anything
		}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c := newConn(raw, 100*time.Millisecond, MaxFrameBytes)
	defer c.close()
	start := time.Now()
	if _, err := c.recv(); err == nil {
		t.Fatal("recv on a silent peer should time out")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
}

// sameBits reports bit-identity of two vectors.
func sameBits(a, b param.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
