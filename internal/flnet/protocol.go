package flnet

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"calibre/internal/fl"
	"calibre/internal/param"
)

// Wire preamble: before any gob traffic, each side of a fresh connection
// writes an 8-byte preamble — 4 magic bytes, a little-endian uint16
// protocol version and 2 reserved zero bytes — and validates the peer's.
// Both sides write first, then read, so the exchange cannot deadlock. An
// incompatible peer (wrong build, or something that is not a calibre
// process at all) is detected here and rejected with ErrProtocolMismatch
// instead of surfacing as an inscrutable gob decode failure mid-handshake.
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
	//	   (maxHeaderBytes)
	ProtocolVersion = 4

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

// String renders the message type for logs and errors.
func (m MsgType) String() string {
	switch m {
	case MsgJoin:
		return "join"
	case MsgJoinAck:
		return "join-ack"
	case MsgTrain:
		return "train"
	case MsgTrainResult:
		return "train-result"
	case MsgPersonalize:
		return "personalize"
	case MsgPersonalizeResult:
		return "personalize-result"
	case MsgShutdown:
		return "shutdown"
	case MsgError:
		return "error"
	default:
		return fmt.Sprintf("msgtype(%d)", int(m))
	}
}

// Envelope is the single wire message; fields are populated according to
// Type. On the wire it is a small gob header followed by one raw frame per
// parameter vector it carries (see conn): gob's self-describing stream
// keeps the header simple, and the vectors stay out of gob's per-element
// path.
type Envelope struct {
	Type     MsgType
	ClientID int
	Round    int
	Global   param.Vector `json:",omitempty"`
	Update   *fl.Update   `json:",omitempty"`
	Accuracy float64
	Err      string
}

// Vector frames. A message is the gob-encoded Envelope with every
// param.Vector taken out, then those vectors in the order below, each as
// a little-endian uint64 byte length followed by that many bytes of
// little-endian IEEE-754 doubles — the representation internal/store
// writes to disk. Which frames follow is announced in the header itself:
// the wire form of Envelope.Type carries one bit per frame above the
// message type (frameShift), so a message without vectors is a bare gob
// envelope.
const (
	frameGlobal  = iota // Envelope.Global
	frameParams         // Envelope.Update.Params
	frameControl        // Envelope.Update.ControlDelta
	numFrames

	// frameShift is where the frame bits sit in the wire form of Type; the
	// message types themselves stay below 1<<frameShift.
	frameShift = 4

	frameHeader = 8 // the byte-length prefix

	// MaxFrameBytes is the largest vector frame a peer may declare before
	// the receiver knows the model's size (a client's first global): 2²⁷
	// parameters, twelve times the paper's ResNet-18. Once the size is
	// known every frame must match it exactly.
	MaxFrameBytes = 1 << 30

	// frameChunk is how many bytes of a frame are read and converted at a
	// time, so receiving a vector needs no model-sized byte buffer.
	frameChunk = 64 << 10

	// maxHeaderBytes is the most one message's gob header may take off the
	// wire — the first one on a connection carries gob's type descriptors,
	// a few hundred bytes; the rest are tens of bytes plus an error string.
	// No vector travels in a header, so the bound does not depend on the
	// model.
	maxHeaderBytes = 64 << 10
)

// ErrBadFrame is returned for a message that cannot be what a peer of this
// protocol sends: a gob header beyond maxHeaderBytes, a declared frame
// length that is not a whole number of float64s, exceeds MaxFrameBytes or
// disagrees with the model size the receiver already knows, frame bits the
// header's content does not allow, or vector elements inside the gob
// header. The length checks happen before anything is allocated for the
// frame, and the header check before any frame is read.
var ErrBadFrame = errors.New("flnet: bad vector frame")

// appendFrame appends v's frame to dst.
func appendFrame(dst []byte, v param.Vector) []byte {
	at := len(dst)
	dst = slices.Grow(dst, frameHeader+8*len(v))[:at+frameHeader+8*len(v)]
	binary.LittleEndian.PutUint64(dst[at:], uint64(8*len(v)))
	body := dst[at+frameHeader:]
	for i, x := range v {
		binary.LittleEndian.PutUint64(body[8*i:], math.Float64bits(x))
	}
	return dst
}

// sharedFrame is one vector framed once and sent to many clients: the
// server's round global. refs counts the sends that have not finished, so
// the owner knows when the buffer is free to be overwritten.
type sharedFrame struct {
	buf  []byte
	refs atomic.Int32
}

// headerReader is what the gob decoder reads a conn through: the conn's
// buffered reader under a byte budget that recv refills per message, so a
// peer can neither declare nor stream a header beyond maxHeaderBytes. gob
// asks for a whole message in one Read, which lets an oversized one be
// refused without consuming it. (gob itself sizes its message buffer from
// the declared length first, in chunks of at most 10 MiB, whatever the
// reader then says.) It is an io.ByteReader only so that gob does not wrap
// it in a bufio.Reader of its own, which would read ahead into the frames.
type headerReader struct {
	br   *bufio.Reader
	left int
}

var errHeaderBudget = fmt.Errorf("%w: gob header exceeds %d bytes", ErrBadFrame, maxHeaderBytes)

func (h *headerReader) Read(p []byte) (int, error) {
	if len(p) > h.left {
		return 0, errHeaderBudget
	}
	n, err := h.br.Read(p)
	h.left -= n
	return n, err
}

func (h *headerReader) ReadByte() (byte, error) {
	if h.left < 1 {
		return 0, errHeaderBudget
	}
	b, err := h.br.ReadByte()
	if err == nil {
		h.left--
	}
	return b, err
}

// conn wraps a net.Conn with the message codec and deadline
// management. One goroutine at a time may receive; an Envelope returned
// by recv owns its vectors only until the next recv on the same conn,
// which decodes into the same buffers.
type conn struct {
	raw net.Conn
	br  *bufio.Reader // shared by the gob decoder (through hdrIn) and the frame reader
	bw  *bufio.Writer // coalesces a header with the head of its first frame
	enc *gob.Encoder
	dec *gob.Decoder
	// hdrIn meters what dec reads; it belongs to the receiving goroutine.
	hdrIn headerReader
	// wmu serializes writers: sends are normally funneled through one
	// goroutine per connection, but the join handshake and the final
	// shutdown broadcast can overlap on a freshly admitted client, and
	// neither gob encoders nor the scratch below are goroutine-safe.
	wmu sync.Mutex
	// ioTimeout bounds each send/receive; zero disables deadlines.
	ioTimeout time.Duration

	// Send scratch (under wmu): the header copy that goes through gob with
	// its vectors removed, and the buffer their frames are built in.
	hdr       Envelope
	hdrUpdate fl.Update
	wbuf      []byte

	// elems, when positive, is the model size: every frame received must
	// hold exactly that many elements. While it is zero a frame may
	// declare up to maxBytes, and the first one accepted sets elems. Both
	// belong to the receiving goroutine.
	elems    int
	maxBytes uint64
	// rvec are the vectors recv decodes into, one per frame kind, reused
	// while the size stays the same; rbuf is the chunk they are read by.
	rvec [numFrames]param.Vector
	rbuf []byte
}

// newConn wraps raw. maxBytes bounds the frames the peer may send before
// the model size is known: MaxFrameBytes for a client, which learns the
// size from its first global; 0 for the server, which sets elems itself
// before it ever expects a vector.
func newConn(raw net.Conn, ioTimeout time.Duration, maxBytes uint64) *conn {
	c := &conn{raw: raw, ioTimeout: ioTimeout, maxBytes: maxBytes,
		br: bufio.NewReader(raw), bw: bufio.NewWriter(raw)}
	// gob reads exactly one message at a time from a reader that is also
	// an io.ByteReader, so the frames behind a header stay in br.
	c.hdrIn.br = c.br
	c.enc, c.dec = gob.NewEncoder(c.bw), gob.NewDecoder(&c.hdrIn)
	return c
}

func (c *conn) send(e *Envelope) error { return c.sendShared(e, nil) }

// sendShared writes e with its Global taken from global, a frame built
// beforehand (e.Global is then ignored), or from e.Global when global is
// nil. The envelope and its vectors are only read.
func (c *conn) sendShared(e *Envelope, global []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.ioTimeout > 0 {
		if err := c.raw.SetWriteDeadline(time.Now().Add(c.ioTimeout)); err != nil {
			return fmt.Errorf("flnet: set write deadline: %w", err)
		}
	}
	c.hdr = *e
	c.hdr.Global = nil
	c.wbuf = c.wbuf[:0]
	frames := 0
	if global == nil && e.Global != nil {
		c.wbuf = appendFrame(c.wbuf, e.Global)
		global = c.wbuf
	}
	if global != nil {
		frames |= 1 << frameGlobal
	}
	own := len(c.wbuf) // the update's frames start here
	if u := e.Update; u != nil && (u.Params != nil || u.ControlDelta != nil) {
		c.hdrUpdate = *u
		c.hdrUpdate.Params, c.hdrUpdate.ControlDelta = nil, nil
		c.hdr.Update = &c.hdrUpdate
		if u.Params != nil {
			c.wbuf = appendFrame(c.wbuf, u.Params)
			frames |= 1 << frameParams
		}
		if u.ControlDelta != nil {
			c.wbuf = appendFrame(c.wbuf, u.ControlDelta)
			frames |= 1 << frameControl
		}
	}
	c.hdr.Type |= MsgType(frames << frameShift)
	err := c.enc.Encode(&c.hdr)
	if err == nil && global != nil {
		_, err = c.bw.Write(global)
	}
	if err == nil && own < len(c.wbuf) {
		_, err = c.bw.Write(c.wbuf[own:])
	}
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		return fmt.Errorf("flnet: send %s: %w", e.Type, err)
	}
	return nil
}

// recv reads one message. The vectors of the returned envelope alias the
// conn's receive buffers (see conn).
func (c *conn) recv() (*Envelope, error) {
	if c.ioTimeout > 0 {
		if err := c.raw.SetReadDeadline(time.Now().Add(c.ioTimeout)); err != nil {
			return nil, fmt.Errorf("flnet: set read deadline: %w", err)
		}
	}
	var e Envelope
	c.hdrIn.left = maxHeaderBytes
	if err := c.dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("flnet: recv: %w", err)
	}
	frames := uint(e.Type) >> frameShift
	e.Type &= 1<<frameShift - 1
	switch {
	case e.Global != nil || e.Update != nil && (e.Update.Params != nil || e.Update.ControlDelta != nil):
		return nil, fmt.Errorf("flnet: recv %s: %w: vector elements in the gob header", e.Type, ErrBadFrame)
	case frames >= 1<<numFrames:
		return nil, fmt.Errorf("flnet: recv %s: %w: unknown frame bits %#x", e.Type, ErrBadFrame, frames)
	case frames>>frameParams != 0 && e.Update == nil:
		return nil, fmt.Errorf("flnet: recv %s: %w: update frames without an update", e.Type, ErrBadFrame)
	}
	for k := 0; k < numFrames; k++ {
		if frames&(1<<k) == 0 {
			continue
		}
		v, err := c.readFrame(k)
		if err != nil {
			return nil, fmt.Errorf("flnet: recv %s: %w", e.Type, err)
		}
		switch k {
		case frameGlobal:
			e.Global = v
		case frameParams:
			e.Update.Params = v
		case frameControl:
			e.Update.ControlDelta = v
		}
	}
	return &e, nil
}

// readFrame reads frame k into the conn's vector for it, refusing a bad
// length before anything is allocated.
func (c *conn) readFrame(k int) (param.Vector, error) {
	var prefix [frameHeader]byte
	if _, err := io.ReadFull(c.br, prefix[:]); err != nil {
		return nil, fmt.Errorf("frame length: %w", err)
	}
	n := binary.LittleEndian.Uint64(prefix[:])
	switch {
	case n%8 != 0:
		return nil, fmt.Errorf("%w: %d bytes is not a whole number of float64s", ErrBadFrame, n)
	case c.elems > 0 && n != 8*uint64(c.elems):
		return nil, fmt.Errorf("%w: %d bytes declared, the model has %d parameters", ErrBadFrame, n, c.elems)
	case c.elems <= 0 && n > c.maxBytes:
		return nil, fmt.Errorf("%w: %d bytes declared, at most %d allowed here", ErrBadFrame, n, c.maxBytes)
	}
	v := c.rvec[k]
	if v == nil || len(v) != int(n/8) {
		v = make(param.Vector, n/8)
		c.rvec[k] = v
	}
	if c.elems == 0 {
		c.elems = len(v) // a federation has one model size
	}
	if c.rbuf == nil {
		c.rbuf = make([]byte, frameChunk)
	}
	for done := 0; done < len(v); {
		chunk := c.rbuf[:min(8*(len(v)-done), len(c.rbuf))]
		if _, err := io.ReadFull(c.br, chunk); err != nil {
			return nil, fmt.Errorf("frame body: %w", err)
		}
		for i := 0; i < len(chunk); i += 8 {
			v[done] = math.Float64frombits(binary.LittleEndian.Uint64(chunk[i:]))
			done++
		}
	}
	return v, nil
}

func (c *conn) close() error { return c.raw.Close() }
