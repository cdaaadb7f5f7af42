package flnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"calibre/internal/fl"
	"calibre/internal/param"
)

// wireSeed is one byte stream a fresh connection might receive — preamble
// first — and what reading it must end in.
type wireSeed struct {
	name   string
	stream []byte
	// err is the error the stream ends in (io.EOF for one that is clean to
	// its last byte).
	err error
}

// wireSeeds are FuzzWireDecoder's seeds and TestWireDecoderSeeds' table:
// one well-formed conversation, and each way a header, a frame or a
// preamble can be wrong. The model has 3 parameters.
func wireSeeds(t testing.TB) []wireSeed {
	preamble := func(version uint16) []byte {
		b := make([]byte, preambleSize)
		copy(b, ProtocolMagic)
		binary.LittleEndian.PutUint16(b[4:6], version)
		return b
	}
	pre := preamble(ProtocolVersion)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	dense := &Envelope{Type: MsgTrainResult, ClientID: 1, Round: 1, Update: &fl.Update{ClientID: 1,
		Params: param.Vector{1, 2, 3}, ControlDelta: param.Vector{4, 5, 6}, NumSamples: 9}}
	conversation := wireBytes(t,
		&Envelope{Type: MsgJoin, ClientID: 1},
		dense,
		&Envelope{Type: MsgTrain, Round: 2, Global: param.Vector{7, 8, 9}},
		&Envelope{Type: MsgPersonalizeResult, ClientID: 1, Accuracy: 0.5})
	// header announces a Params frame and stops there.
	header := wireBytes(t, &Envelope{Type: MsgTrainResult | 1<<frameParams<<frameShift, ClientID: 1,
		Update: &fl.Update{ClientID: 1, NumSamples: 9}})
	oneDense := wireBytes(t, dense)
	return []wireSeed{
		{"conversation", cat(pre, conversation), io.EOF},
		{"truncated-frame", cat(pre, oneDense[:len(oneDense)-5]), io.ErrUnexpectedEOF},
		{"oversize-length", cat(pre, header, lengthPrefix(1<<40)), ErrBadFrame},
		{"length-not-8n", cat(pre, header, lengthPrefix(20), make([]byte, 20)), ErrBadFrame},
		{"wrong-model-size", cat(pre, header, lengthPrefix(32), make([]byte, 32)), ErrBadFrame},
		{"trailing-garbage", cat(pre, oneDense, []byte("\x05garbage")), errAny},
		{"unknown-frame-bits", cat(pre, wireBytes(t, &Envelope{Type: MsgTrain | 1<<numFrames<<frameShift})), ErrBadFrame},
		{"update-frame-without-update", cat(pre, wireBytes(t, &Envelope{Type: MsgTrain | 1<<frameControl<<frameShift})), ErrBadFrame},
		{"vector-in-gob-header", cat(pre, gobBytes(t, dense)), ErrBadFrame},
		{"v2-preamble", cat(preamble(2), gobBytes(t, dense)), ErrProtocolMismatch},
		{"not-calibre", []byte("GET / HTTP/1.1\r\n\r\n"), ErrProtocolMismatch},
		{"v3-preamble", cat(preamble(3), oneDense), ErrProtocolMismatch},
		{"oversize-header", cat(pre, gobCount1MiB), ErrBadFrame},
	}
}

// gobCount1MiB is gob's length prefix for a 1 MiB message: the negated
// byte count, then the count big-endian.
var gobCount1MiB = []byte{0xfd, 0x10, 0x00, 0x00}

// errAny marks a seed that must fail without a particular error type
// (garbage that reaches the gob decoder fails however gob says).
var errAny = errors.New("any error")

// readWire reads stream as a connection would — preamble, then messages
// until one fails — under the given frame limits, checking every message
// it accepts, and returns the error that ended it.
func readWire(t testing.TB, stream []byte, elems int, maxBytes uint64) error {
	raw := streamConn{Reader: bytes.NewReader(stream)}
	if err := readPreamble(raw, 0); err != nil {
		return err
	}
	c := newConn(raw, 0, maxBytes)
	c.elems = elems
	for {
		e, err := c.recv()
		if err != nil {
			return err
		}
		vectors := []param.Vector{e.Global}
		if e.Update != nil {
			vectors = append(vectors, e.Update.Params, e.Update.ControlDelta)
		}
		for _, v := range vectors {
			if v != nil && (elems > 0 && len(v) != elems || elems <= 0 && uint64(8*len(v)) > maxBytes) {
				t.Fatalf("accepted a %d-element vector under limits elems=%d maxBytes=%d", len(v), elems, maxBytes)
			}
		}
		// What recv accepts, send reproduces: decode is injective on
		// vectors, and the header survives a second trip.
		again, err := newConn(streamConn{Reader: bytes.NewReader(wireBytes(t, e))}, 0, MaxFrameBytes).recv()
		if err != nil {
			t.Fatalf("re-reading an accepted %s: %v", e.Type, err)
		}
		if again.Type != e.Type || again.ClientID != e.ClientID || again.Round != e.Round || !sameBits(again.Global, e.Global) ||
			(again.Update == nil) != (e.Update == nil) ||
			e.Update != nil && (!sameBits(again.Update.Params, e.Update.Params) || !sameBits(again.Update.ControlDelta, e.Update.ControlDelta)) {
			t.Fatalf("accepted message does not survive send/recv:\n first %+v\n again %+v", e, again)
		}
	}
}

// TestWireDecoderSeeds pins each seed's outcome for a receiver that knows
// the model size, as a server's does.
func TestWireDecoderSeeds(t *testing.T) {
	for _, s := range wireSeeds(t) {
		err := readWire(t, s.stream, 3, 0)
		switch {
		case err == nil:
			t.Errorf("%s: stream never ended", s.name)
		case s.err != errAny && !errors.Is(err, s.err):
			t.Errorf("%s: ended in %v, want %v", s.name, err, s.err)
		}
	}
}

// FuzzWireDecoder is the hardening gate for the last decoder of untrusted
// bytes without one: whatever arrives on a fresh connection — preamble,
// gob headers, frames — reading it never panics, never accepts a vector
// outside the receiver's limits (so never allocates one), and ends in an
// error. Both receivers are exercised: one that knows the model size (the
// server) and one that only has the protocol's cap (a client before its
// first global; the cap is lowered so the fuzzer can reach it). Seeds
// found by fuzzing live in testdata/fuzz/FuzzWireDecoder.
func FuzzWireDecoder(f *testing.F) {
	for _, s := range wireSeeds(f) {
		f.Add(s.stream)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		if err := readWire(t, stream, 3, 0); err == nil {
			t.Fatal("stream never ended")
		}
		if err := readWire(t, stream, 0, 1<<10); err == nil {
			t.Fatal("stream never ended")
		}
	})
}
