package flnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
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
		&Envelope{Type: MsgPersonalizeResult, ClientID: 1, Accuracy: 0.5},
		&Envelope{Type: MsgError, ClientID: 1, Err: "out of memory"})
	// header announces a Params frame and stops there.
	header := trainResultHeader(1<<frameParams, &fl.Update{ClientID: 1, NumSamples: 9})
	oneDense := wireBytes(t, dense)
	wideEnd := error(io.EOF) // a ClientID of 2³²+1 fits a 64-bit int
	if math.MaxInt == math.MaxInt32 {
		wideEnd = ErrBadFrame
	}
	return []wireSeed{
		{"conversation", cat(pre, conversation), io.EOF},
		{"truncated-frame", cat(pre, oneDense[:len(oneDense)-5]), io.ErrUnexpectedEOF},
		{"oversize-length", cat(pre, header, lengthPrefix(1<<40)), ErrBadFrame},
		{"length-not-8n", cat(pre, header, lengthPrefix(20), make([]byte, 20)), ErrBadFrame},
		{"wrong-model-size", cat(pre, header, lengthPrefix(32), make([]byte, 32)), ErrBadFrame},
		{"trailing-garbage", cat(pre, oneDense, bytes.Repeat([]byte("garbage!"), headerSize/8)), ErrBadFrame},
		{"unknown-frame-bits", cat(pre, patchedHeader(1, 1<<numFrames)), ErrBadFrame},
		{"update-frame-without-update", cat(pre, trainResultHeader(1<<frameControl, nil)), ErrBadFrame},
		{"unknown-type", cat(pre, patchedHeader(0, byte(MsgError+1))), ErrBadFrame},
		{"v2-preamble", cat(preamble(2), oneDense), ErrProtocolMismatch},
		{"not-calibre", []byte("GET / HTTP/1.1\r\n\r\n"), ErrProtocolMismatch},
		{"v3-preamble", cat(preamble(3), oneDense), ErrProtocolMismatch},
		{"oversize-header", cat(pre, errorHeader(1<<30)), ErrBadFrame},
		{"v4-preamble", cat(preamble(4), oneDense), ErrProtocolMismatch},
		{"update-flag-not-0-or-1", cat(pre, patchedHeader(2, 2)), ErrBadFrame},
		{"reserved-byte-set", cat(pre, patchedHeader(3, 1)), ErrBadFrame},
		{"update-fields-without-update", cat(pre, patchedHeader(2, 0)), ErrBadFrame},
		{"wide-int", cat(pre, patchedHeader(12, 1)), wideEnd},
		{"train-without-global", cat(pre, appendHeader(nil, &Envelope{Type: MsgTrain, Round: 2}, 0)), ErrBadFrame},
		{"global-on-reply", cat(pre, appendHeader(nil, &Envelope{Type: MsgPersonalizeResult, ClientID: 1}, 1<<frameGlobal),
			appendFrame(nil, param.Vector{7, 8, 9})), ErrBadFrame},
	}
}

// wireEnds are the errors a stream may end in: its bytes running out,
// cleanly or mid-message, or a typed refusal.
var wireEnds = []error{io.EOF, io.ErrUnexpectedEOF, ErrBadFrame, ErrProtocolMismatch}

// readWire reads stream as a connection would — preamble, then messages
// until one fails — under the given frame limits, checking every message
// it accepts, and returns the error that ended it.
func readWire(t testing.TB, stream []byte, elems int, maxBytes uint64) error {
	r := bytes.NewReader(stream)
	raw := streamConn{Reader: r}
	if err := readPreamble(raw, 0); err != nil {
		return err
	}
	c := newConn(raw, 0, maxBytes)
	c.elems = elems
	at := preambleSize // where the next message starts
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
		// What recv accepts is exactly what send writes: the encoding is
		// canonical.
		next := len(stream) - r.Len() - c.br.Buffered()
		if sent := wireBytes(t, e); !bytes.Equal(sent, stream[at:next]) {
			t.Fatalf("accepted %s re-encodes to\n %x\nnot the bytes it was read from\n %x", e.Type, sent, stream[at:next])
		}
		at = next
	}
}

// checkEnd fails t unless err is one of wireEnds (want, when non-nil).
func checkEnd(t testing.TB, name string, err, want error) {
	t.Helper()
	if want != nil && !errors.Is(err, want) {
		t.Errorf("%s: ended in %v, want %v", name, err, want)
	}
	if !slices.ContainsFunc(wireEnds, func(end error) bool { return errors.Is(err, end) }) {
		t.Errorf("%s: ended in %v, not one of %v", name, err, wireEnds)
	}
}

// TestWireDecoderSeeds pins each seed's outcome for a receiver that knows
// the model size, as a server's does.
func TestWireDecoderSeeds(t *testing.T) {
	for _, s := range wireSeeds(t) {
		checkEnd(t, s.name, readWire(t, s.stream, 3, 0), s.err)
	}
}

// FuzzWireDecoder is the hardening gate for the last decoder of untrusted
// bytes without one: whatever arrives on a fresh connection — preamble,
// headers, frames — reading it never panics, never accepts a vector
// outside the receiver's limits (so never allocates one), accepts only
// messages that re-encode to the bytes they were read from, and ends in one
// of wireEnds. Both receivers are exercised: one that knows the model size
// (the server) and one that only has the protocol's cap (a client before
// its first global; the cap is lowered so the fuzzer can reach it). Seeds
// found by fuzzing live in testdata/fuzz/FuzzWireDecoder.
func FuzzWireDecoder(f *testing.F) {
	for _, s := range wireSeeds(f) {
		f.Add(s.stream)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		checkEnd(t, "server", readWire(t, stream, 3, 0), nil)
		checkEnd(t, "client", readWire(t, stream, 0, 1<<10), nil)
	})
}
