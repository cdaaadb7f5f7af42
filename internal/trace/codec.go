package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// Wire format: one record per line,
//
//	<decimal body length> <json body>\n
//
// The explicit length prefix makes torn tails detectable (a crash mid-write
// leaves a record whose body is shorter than its prefix) and lets readers
// skip bodies without parsing them. Bodies are plain JSON objects, so the
// file doubles as JSONL for jq-style tooling: `cut -d' ' -f2- trace.jsonl`.

// Sink receives encoded trace batches. FileSink is the production
// implementation; tests use in-memory buffers.
type Sink interface {
	Write(p []byte) (int, error)
}

// maxRecordLen bounds a single record body on decode; anything larger is
// treated as corruption rather than an allocation request.
const maxRecordLen = 1 << 20

var (
	// ErrCorrupt reports a structurally invalid record (bad length
	// prefix, missing separator or newline, oversized body, or a body
	// that is not the JSON of an Event).
	ErrCorrupt = errors.New("trace: corrupt record")
	// ErrTruncated reports a record cut off by end-of-file — the
	// expected shape of the final record after a crash. Readers that
	// tolerate torn tails (`calibre trace` does) treat it as a clean stop.
	ErrTruncated = errors.New("trace: truncated record")
)

// appendRecord encodes e as one framed record onto dst, using rec as the
// reused body scratch. It returns the grown dst and scratch so callers
// keep both buffers alive across calls without allocation.
func appendRecord(dst, rec []byte, e *Event) (newDst, newRec []byte) {
	rec = appendEventJSON(rec[:0], e)
	dst = strconv.AppendInt(dst, int64(len(rec)), 10)
	dst = append(dst, ' ')
	dst = append(dst, rec...)
	dst = append(dst, '\n')
	return dst, rec
}

// appendEventJSON appends e's JSON body to dst. The encoding is hand-rolled
// for two reasons: the hot path must not allocate, and field order must be
// fixed so an injected clock yields byte-identical traces. Round and
// Client are always emitted (with -1 meaning "not scoped"); other optional
// fields follow omitempty semantics.
func appendEventJSON(dst []byte, e *Event) []byte {
	dst = append(dst, `{"t":`...)
	dst = appendJSONString(dst, string(e.Kind))
	dst = append(dst, `,"ts":`...)
	dst = strconv.AppendInt(dst, e.TS, 10)
	dst = appendString(dst, `,"rt":`, e.Runtime)
	dst = appendString(dst, `,"cell":`, e.Cell)
	dst = append(dst, `,"round":`...)
	dst = strconv.AppendInt(dst, int64(e.Round), 10)
	dst = append(dst, `,"client":`...)
	dst = strconv.AppendInt(dst, int64(e.Client), 10)
	dst = appendString(dst, `,"reason":`, string(e.Reason))
	dst = appendString(dst, `,"wire":`, e.Wire)
	dst = appendInt(dst, `,"bytes":`, e.Bytes)
	dst = appendInt(dst, `,"dur_ns":`, e.Dur)
	dst = appendInt(dst, `,"n":`, int64(e.N))
	dst = appendInt(dst, `,"adv":`, int64(e.Adversarial))
	dst = appendInt(dst, `,"rejected":`, int64(e.Rejected))
	dst = appendFloat(dst, `,"loss":`, e.Loss)
	dst = appendFloat(dst, `,"norm":`, e.Norm)
	dst = appendString(dst, `,"note":`, e.Note)
	return append(dst, '}')
}

// appendString, appendInt and appendFloat append one optional field —
// key is its `,"name":` prefix — unless v is its zero value (a
// non-finite float too, which JSON cannot carry).
func appendString(dst []byte, key, v string) []byte {
	if v == "" {
		return dst
	}
	return appendJSONString(append(dst, key...), v)
}

func appendInt(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

func appendFloat(dst []byte, key string, v float64) []byte {
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return dst
	}
	return strconv.AppendFloat(append(dst, key...), v, 'g', -1, 64)
}

// appendJSONString appends s as a JSON string literal. Control characters,
// quotes and backslashes are escaped; invalid UTF-8 bytes are replaced
// with U+FFFD so the output is always valid JSON.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			switch {
			case b == '"':
				dst = append(dst, '\\', '"')
			case b == '\\':
				dst = append(dst, '\\', '\\')
			case b == '\n':
				dst = append(dst, '\\', 'n')
			case b == '\r':
				dst = append(dst, '\\', 'r')
			case b == '\t':
				dst = append(dst, '\\', 't')
			case b < 0x20:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			default:
				dst = append(dst, b)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, `�`...)
			i++
			continue
		}
		dst = append(dst, s[i:i+size]...)
		i += size
	}
	return append(dst, '"')
}

const hexDigits = "0123456789abcdef"

// Reader decodes a trace stream record by record.
type Reader struct {
	br  *bufio.Reader
	buf []byte
	n   int // records decoded so far, for error context
}

// NewReader wraps r for record-at-a-time decoding.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Next decodes the next record. It returns io.EOF at a clean end of
// stream, ErrTruncated when the stream ends mid-record (a torn tail), and
// ErrCorrupt for structural damage. After a non-EOF error the reader is
// not positioned to continue.
func (r *Reader) Next() (Event, error) {
	var e Event
	// Length prefix: decimal digits up to the separating space.
	length := -1
	for {
		b, err := r.br.ReadByte()
		if err != nil {
			if err == io.EOF {
				if length < 0 {
					return e, io.EOF // clean boundary
				}
				return e, fmt.Errorf("%w: EOF inside length prefix of record %d", ErrTruncated, r.n)
			}
			return e, err
		}
		if b == ' ' {
			if length < 0 {
				return e, fmt.Errorf("%w: record %d has an empty length prefix", ErrCorrupt, r.n)
			}
			break
		}
		if b < '0' || b > '9' {
			return e, fmt.Errorf("%w: record %d length prefix holds byte %q", ErrCorrupt, r.n, b)
		}
		if length < 0 {
			length = 0
		}
		length = length*10 + int(b-'0')
		if length > maxRecordLen {
			return e, fmt.Errorf("%w: record %d claims %d bytes (max %d)", ErrCorrupt, r.n, length, maxRecordLen)
		}
	}
	if cap(r.buf) < length+1 {
		r.buf = make([]byte, length+1)
	}
	buf := r.buf[:length+1] // body + trailing newline
	if _, err := io.ReadFull(r.br, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return e, fmt.Errorf("%w: EOF inside body of record %d", ErrTruncated, r.n)
		}
		return e, err
	}
	if buf[length] != '\n' {
		return e, fmt.Errorf("%w: record %d not newline-terminated", ErrCorrupt, r.n)
	}
	e.Round, e.Client = -1, -1 // decode default for "not scoped"
	if err := json.Unmarshal(buf[:length], &e); err != nil {
		return e, fmt.Errorf("%w: record %d body: %v", ErrCorrupt, r.n, err)
	}
	if e.Kind == "" {
		return e, fmt.Errorf("%w: record %d has no event kind", ErrCorrupt, r.n)
	}
	r.n++
	return e, nil
}

// ReadAll decodes every record in r until end of stream. A torn tail
// (ErrTruncated) is reported alongside the records decoded before it so
// crash-cut traces remain usable; any other error discards nothing read
// so far but stops the scan.
func ReadAll(r io.Reader) ([]Event, error) {
	tr := NewReader(r)
	var events []Event
	for {
		e, err := tr.Next()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return events, err
		}
		events = append(events, e)
	}
}
