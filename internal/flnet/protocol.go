package flnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"calibre/internal/fl"
	"calibre/internal/param"
)

// Wire preamble: before any message, each side of a fresh connection
// writes an 8-byte preamble — 4 magic bytes, a little-endian uint16
// protocol version and 2 reserved zero bytes — and validates the peer's.
// Both sides write first, then read, so the exchange cannot deadlock. An
// incompatible peer (wrong build, or something that is not a calibre
// process at all) is detected here and rejected with ErrProtocolMismatch
// instead of surfacing as a malformed message mid-handshake.
const (
	// ProtocolMagic identifies the calibre federation wire protocol.
	ProtocolMagic = "CALF"
	// ProtocolVersion is bumped on any incompatible wire change (envelope
	// layout, handshake sequence, codec switch).
	//
	// Version history:
	//
	//	1  gob envelopes with dense []float64 payloads everywhere
	//	2  typed param.Vector payloads; train-result updates may carry a
	//	   lossless XOR-delta against the round's global instead of dense
	//	   params; which form a result takes is the sender's choice per
	//	   update (dense whenever the delta would not be smaller)
	//	3  parameter vectors (the downlink global, dense update params,
	//	   SCAFFOLD control deltas) leave the gob stream: the envelope is a
	//	   gob header announcing raw little-endian frames that follow it,
	//	   length-checked before allocation (ErrBadFrame); delta payloads
	//	   and every message without a vector are unchanged
	//	4  train-results are always a dense frame: fl.Update has no delta
	//	   form any more (a v3 peer's delta would be a gob field this build
	//	   silently drops, hence the bump), and with no payload bytes left
	//	   in it the gob header is read under a constant byte budget
	//	5  the gob header becomes a fixed 64-byte little-endian header
	//	   (headerSize) followed by the error string it declares; the
	//	   frames behind it are unchanged
	ProtocolVersion = 5

	preambleSize = 8
)

// ErrProtocolMismatch is returned when the peer does not speak this
// build's wire protocol: wrong magic (not a calibre endpoint) or a
// different protocol version.
var ErrProtocolMismatch = errors.New("flnet: incompatible wire protocol")

// writePreamble sends this build's preamble on a fresh connection.
func writePreamble(raw net.Conn, timeout time.Duration) error {
	var b [preambleSize]byte
	copy(b[:4], ProtocolMagic)
	binary.LittleEndian.PutUint16(b[4:6], ProtocolVersion)
	if timeout > 0 {
		if err := raw.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return fmt.Errorf("flnet: set preamble write deadline: %w", err)
		}
	}
	if _, err := raw.Write(b[:]); err != nil {
		return fmt.Errorf("flnet: send preamble: %w", err)
	}
	return nil
}

// readPreamble reads and validates the peer's preamble.
func readPreamble(raw net.Conn, timeout time.Duration) error {
	var b [preambleSize]byte
	if timeout > 0 {
		if err := raw.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return fmt.Errorf("flnet: set preamble read deadline: %w", err)
		}
	}
	if _, err := io.ReadFull(raw, b[:]); err != nil {
		return fmt.Errorf("flnet: read preamble: %w", err)
	}
	if string(b[:4]) != ProtocolMagic {
		return fmt.Errorf("%w: peer sent magic %q, want %q", ErrProtocolMismatch, b[:4], ProtocolMagic)
	}
	if v := binary.LittleEndian.Uint16(b[4:6]); v != ProtocolVersion {
		return fmt.Errorf("%w: peer speaks protocol version %d, this build speaks %d", ErrProtocolMismatch, v, ProtocolVersion)
	}
	return nil
}

// MsgType discriminates protocol envelopes.
type MsgType int

// Protocol message types.
const (
	MsgJoin MsgType = iota + 1
	MsgJoinAck
	MsgTrain
	MsgTrainResult
	MsgPersonalize
	MsgPersonalizeResult
	MsgShutdown
	MsgError
)

var msgNames = [...]string{MsgJoin: "join", MsgJoinAck: "join-ack", MsgTrain: "train", MsgTrainResult: "train-result",
	MsgPersonalize: "personalize", MsgPersonalizeResult: "personalize-result", MsgShutdown: "shutdown", MsgError: "error"}

// known reports whether m is a message type of this protocol.
func (m MsgType) known() bool { return m >= MsgJoin && m <= MsgError }

// request reports whether m is one of the server's requests, the messages
// that carry a global and the only ones that may.
func (m MsgType) request() bool { return m == MsgTrain || m == MsgPersonalize }

// String renders the message type for logs and errors.
func (m MsgType) String() string {
	if m.known() {
		return msgNames[m]
	}
	return fmt.Sprintf("msgtype(%d)", int(m))
}

// Envelope is the single wire message; fields are populated according to
// Type. On the wire it is a fixed header, the error string the header
// declares, and one raw frame per parameter vector it carries (see conn).
type Envelope struct {
	Type     MsgType
	ClientID int
	Round    int
	Global   param.Vector
	Update   *fl.Update
	Accuracy float64
	Err      string
}

// A message is a headerSize-byte header (its layout is in the package
// documentation), the error string the header declares, and the vectors
// whose frame bits it sets, in the order below: each a little-endian
// uint64 byte length followed by that many bytes of little-endian
// IEEE-754 doubles — the vector's own memory (param.Bytes), and the
// representation internal/store writes to disk.
const (
	frameGlobal  = iota // Envelope.Global
	frameParams         // Envelope.Update.Params
	frameControl        // Envelope.Update.ControlDelta
	numFrames

	headerSize = 64

	// maxErrBytes is the longest error string a header may declare.
	maxErrBytes = 64 << 10

	frameHeader = 8 // the byte-length prefix

	// MaxFrameBytes is the largest vector frame a peer may declare before
	// the receiver knows the model's size (a client's first global): 2²⁷
	// parameters, twelve times the paper's ResNet-18. Once the size is
	// known every frame must match it exactly.
	MaxFrameBytes = 1 << 30
)

// ErrBadFrame is returned for a message that cannot be what a peer of this
// protocol sends: a header send would not write (an unknown type or frame
// bit, an update flag other than 0 or 1, the reserved byte set, update
// frames or update fields without an update, an integer the platform's int
// cannot hold, an error string beyond maxErrBytes), a request without its
// global or a global on any other message, or a declared frame
// length that is not a whole number of float64s, exceeds MaxFrameBytes or
// disagrees with the model size the receiver already knows. The header is
// checked before anything behind it is read, and a frame's length before
// anything is allocated for the frame.
var ErrBadFrame = errors.New("flnet: bad message frame")

// appendHeader appends e's header, announcing frames, to dst.
func appendHeader(dst []byte, e *Envelope, frames byte) []byte {
	var u fl.Update
	hasUpdate := byte(0)
	if e.Update != nil {
		u, hasUpdate = *e.Update, 1
	}
	dst = append(dst, byte(e.Type), frames, hasUpdate, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.Err)))
	for _, w := range [...]uint64{uint64(e.ClientID), uint64(e.Round), math.Float64bits(e.Accuracy),
		uint64(u.ClientID), uint64(u.NumSamples), math.Float64bits(u.TrainLoss), math.Float64bits(u.Divergence)} {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// conn wraps a net.Conn with the message codec and deadline
// management. One goroutine at a time may receive; the Envelope recv
// returns and its Update are the conn's own, valid until the next recv. Their
// vectors are not: each is borrowed from param's pool for the receiver to
// give back (the update is Lent) — a client once it has answered the request,
// the server's round once it has closed — so a process holds a received
// vector only while it is in use.
type conn struct {
	raw net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer // coalesces a header with the head of its first frame
	// wmu serializes writers: sends are normally funneled through one
	// goroutine per connection, but the join handshake and the final
	// shutdown broadcast can overlap on a freshly admitted client, and the
	// send scratch is not goroutine-safe.
	wmu sync.Mutex
	// ioTimeout bounds each send/receive; zero disables deadlines.
	ioTimeout time.Duration
	// whdr (under wmu) is the send scratch: a message's header, then each
	// of its frames' length prefixes.
	whdr [headerSize]byte

	// elems, when positive, is the model size: every frame received must
	// hold exactly that many elements. While it is zero a frame may
	// declare up to maxBytes, and the first one accepted sets elems. Both
	// belong to the receiving goroutine, as does the rest.
	elems    int
	maxBytes uint64
	// rhdr is the header recv reads, renv and rupdate what it decodes it
	// into, and rlen a frame's length prefix.
	rhdr    [headerSize]byte
	rlen    [frameHeader]byte
	renv    Envelope
	rupdate fl.Update
}

// newConn wraps raw. maxBytes bounds the frames the peer may send before
// the model size is known: MaxFrameBytes for a client, which learns the
// size from its first global; 0 for the server, which sets elems itself
// before it ever expects a vector.
func newConn(raw net.Conn, ioTimeout time.Duration, maxBytes uint64) *conn {
	return &conn{raw: raw, ioTimeout: ioTimeout, maxBytes: maxBytes,
		br: bufio.NewReader(raw), bw: bufio.NewWriter(raw)}
}

// send writes e. The envelope and its vectors are only read: each frame's
// body is the vector's own memory (param.Bytes), written through bw as it
// is, so a vector must not change until send returns.
func (c *conn) send(e *Envelope) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if len(e.Err) > maxErrBytes {
		return fmt.Errorf("flnet: send %s: %w: %d-byte error string, at most %d", e.Type, ErrBadFrame, len(e.Err), maxErrBytes)
	}
	if c.ioTimeout > 0 {
		if err := c.raw.SetWriteDeadline(time.Now().Add(c.ioTimeout)); err != nil {
			return fmt.Errorf("flnet: set write deadline: %w", err)
		}
	}
	// vecs are e's vectors in frame order.
	vecs := [numFrames]param.Vector{frameGlobal: e.Global}
	if e.Update != nil {
		vecs[frameParams], vecs[frameControl] = e.Update.Params, e.Update.ControlDelta
	}
	frames := byte(0)
	for k, v := range vecs {
		if v != nil {
			frames |= 1 << k
		}
	}
	// A bufio.Writer's first error sticks: Flush reports it. A frame body
	// longer than what bw has free fills it, and the rest goes straight to
	// the socket.
	_, _ = c.bw.Write(appendHeader(c.whdr[:0], e, frames))
	_, _ = c.bw.WriteString(e.Err)
	for _, v := range vecs {
		if v != nil {
			_, _ = c.bw.Write(binary.LittleEndian.AppendUint64(c.whdr[:0], uint64(8*len(v))))
			_, _ = c.bw.Write(param.Bytes(v))
		}
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("flnet: send %s: %w", e.Type, err)
	}
	return nil
}

// recv reads one message. The returned envelope is the conn's own (see
// conn).
func (c *conn) recv() (*Envelope, error) {
	if c.ioTimeout > 0 {
		if err := c.raw.SetReadDeadline(time.Now().Add(c.ioTimeout)); err != nil {
			return nil, fmt.Errorf("flnet: set read deadline: %w", err)
		}
	}
	if _, err := io.ReadFull(c.br, c.rhdr[:]); err != nil {
		return nil, fmt.Errorf("flnet: recv: %w", err)
	}
	frames, errLen, err := c.decodeHeader()
	if err != nil {
		return nil, fmt.Errorf("flnet: recv %s: %w", MsgType(c.rhdr[0]), err)
	}
	e := &c.renv
	if errLen > 0 {
		b := make([]byte, errLen)
		if _, err := io.ReadFull(c.br, b); err != nil {
			return nil, fmt.Errorf("flnet: recv %s: error string: %w", e.Type, err)
		}
		e.Err = string(b)
	}
	// The update's frames are announced only with an update (decodeHeader).
	for k, dst := range [numFrames]*param.Vector{&e.Global, &c.rupdate.Params, &c.rupdate.ControlDelta} {
		if frames&(1<<k) != 0 {
			if *dst, err = c.readFrame(); err != nil {
				return nil, fmt.Errorf("flnet: recv %s: %w", e.Type, err)
			}
		}
	}
	return e, nil
}

// decodeHeader decodes rhdr into renv (and rupdate), refusing every header
// appendHeader would not write, and returns the frames and the error
// string length it announces.
func (c *conn) decodeHeader() (frames byte, errLen int, err error) {
	h, le := &c.rhdr, binary.LittleEndian
	frames, hasUpdate, n := h[1], h[2], le.Uint32(h[4:])
	i64 := func(at int) int64 { return int64(le.Uint64(h[at:])) }
	f64 := func(at int) float64 { return math.Float64frombits(le.Uint64(h[at:])) }
	c.renv = Envelope{Type: MsgType(h[0]), ClientID: int(i64(8)), Round: int(i64(16)), Accuracy: f64(24)}
	c.rupdate = fl.Update{ClientID: int(i64(32)), NumSamples: int(i64(40)), TrainLoss: f64(48), Divergence: f64(56), Lent: true}
	fits := int64(c.renv.ClientID) == i64(8) && int64(c.renv.Round) == i64(16) &&
		int64(c.rupdate.ClientID) == i64(32) && int64(c.rupdate.NumSamples) == i64(40)
	var why string
	switch {
	case !c.renv.Type.known():
		why = "unknown message type"
	case frames >= 1<<numFrames:
		why = fmt.Sprintf("unknown frame bits %#x", frames)
	case hasUpdate > 1:
		why = fmt.Sprintf("update flag %d", hasUpdate)
	case h[3] != 0:
		why = "reserved byte set"
	case hasUpdate == 0 && frames>>frameParams != 0:
		why = "update frames without an update"
	case hasUpdate == 0 && [32]byte(h[32:]) != [32]byte{}:
		why = "update fields without an update"
	case c.renv.Type.request() && frames&(1<<frameGlobal) == 0:
		why = fmt.Sprintf("%s without a global", c.renv.Type)
	case !c.renv.Type.request() && frames&(1<<frameGlobal) != 0:
		why = fmt.Sprintf("a global on %s", c.renv.Type)
	case !fits:
		why = "integer field overflows int"
	case n > maxErrBytes:
		why = fmt.Sprintf("%d-byte error string, at most %d", n, maxErrBytes)
	}
	if why != "" {
		return 0, 0, fmt.Errorf("%w: %s", ErrBadFrame, why)
	}
	if hasUpdate == 1 {
		c.renv.Update = &c.rupdate
	}
	return frames, int(n), nil
}

// readFrame reads the next frame's body straight into the bytes of a vector
// it borrows from param's pool, refusing a bad length before anything is
// borrowed.
func (c *conn) readFrame() (param.Vector, error) {
	if _, err := io.ReadFull(c.br, c.rlen[:]); err != nil {
		return nil, fmt.Errorf("frame length: %w", err)
	}
	n := binary.LittleEndian.Uint64(c.rlen[:])
	switch {
	case n%8 != 0:
		return nil, fmt.Errorf("%w: %d bytes is not a whole number of float64s", ErrBadFrame, n)
	case c.elems > 0 && n != 8*uint64(c.elems):
		return nil, fmt.Errorf("%w: %d bytes declared, the model has %d parameters", ErrBadFrame, n, c.elems)
	case c.elems <= 0 && n > c.maxBytes:
		return nil, fmt.Errorf("%w: %d bytes declared, at most %d allowed here", ErrBadFrame, n, c.maxBytes)
	}
	v := param.Borrow(int(n / 8))
	if c.elems == 0 {
		c.elems = len(v) // a federation has one model size
	}
	if _, err := io.ReadFull(c.br, param.Bytes(v)); err != nil {
		return nil, fmt.Errorf("frame body: %w", err)
	}
	return v, nil
}

func (c *conn) close() error { return c.raw.Close() }
