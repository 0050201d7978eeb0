// Package frame is the wire layer internal/rmswire and internal/trustwire
// share: newline-delimited JSON, one value per line, with a hard bound on
// the size of a line in either direction (this file); the one client
// connection both protocols' clients speak over (conn.go); the one server
// loop both protocols' servers answer through (server.go); and the one
// codec that turns their frames, and the daemon's journal records, into
// those lines and back (codec.go).
//
// The format is whatever encoding/json writes for the frame structs and
// their tags, and stays so: the codec is a table-driven fast path that
// writes the same bytes and reads only the canonical form, handing any
// other line to json.Unmarshal.  Nothing here takes an `any`: a value
// reaches the wire only bound to its Codec, so a new frame type cannot
// fall back to reflection unnoticed.
package frame

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// MaxBytes bounds one JSON frame.
const MaxBytes = 1 << 20

// readBuffer is the read buffer of every frame stream, both sides; a
// longer line is gathered into a copy (readLineBounded).  Measured: a
// submit is under 0.6 KiB, a reply 0.3 KiB, a busy fleet's trust delta
// 2.5 KiB, a metrics reply 4.9 KiB after 20 s of mixed load.  Only a cold
// trust snapshot (25 KiB for 612 entries) is longer.
const readBuffer = 8 << 10

// newReader is the reader of one frame stream.
func newReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, readBuffer) }

// ErrTooLarge reports a frame exceeding MaxBytes.  The reader fails as
// soon as the limit is crossed — it never buffers an unbounded line
// waiting for a newline that may not come — so a server can answer with
// an error frame instead of silently dropping the connection.  The text
// names the limit as both protocols export it.
var ErrTooLarge = errors.New("frame exceeds MaxFrameBytes")

// Frame is what Read, Write and Conn.RoundTrip move: a value bound to
// the codec that encodes and decodes it, or a Line already in wire form.
// Only a Codec makes the first kind, so no value reaches the wire by
// reflection.
type Frame interface {
	appendTo(dst []byte) ([]byte, error)
	// parse decodes line, reporting whether a codec's fast path took it.
	parse(line []byte) (fast bool, err error)
}

type bound[T any] struct {
	c *Codec[T]
	v *T
}

func (f bound[T]) appendTo(dst []byte) ([]byte, error) { return f.c.Append(dst, f.v) }
func (f bound[T]) parse(line []byte) (bool, error)     { return f.c.read(line, f.v) }

// Line is a frame in its wire form: Bytes is one line without its
// newline.  Written, a Line is its bytes as they stand.  Read, the line
// is decoded into Of, when Of is set, and only once that succeeded is it
// copied over Bytes, reusing their capacity.  So one Line can be both
// halves of a round trip, the request a relay sends and the reply it
// brings back, and a round trip that failed leaves the request in it,
// ready to resend.
type Line struct {
	Bytes []byte
	Of    Frame
}

func (l *Line) appendTo(dst []byte) ([]byte, error) { return append(dst, l.Bytes...), nil }

func (l *Line) parse(line []byte) (fast bool, err error) {
	if l.Of != nil {
		if fast, err = l.Of.parse(line); err != nil {
			return false, err
		}
	}
	l.Bytes = append(l.Bytes[:0], trimNewline(line)...)
	return fast, nil
}

// Frame binds v to the codec: written from *v, or read into it.
func (c *Codec[T]) Frame(v *T) Frame { return bound[T]{c, v} }

// Write writes f to w as one newline-terminated frame.
func Write(w io.Writer, f Frame) error {
	_, err := writeOver(nil, w, f)
	return err
}

// writeOver is Write encoding over buf, which it returns for the next
// frame: what a connection handler does for its replies.
func writeOver(buf []byte, w io.Writer, f Frame) ([]byte, error) {
	buf, err := encode(buf, f)
	if err == nil {
		err = write(w, buf)
	}
	return buf, err
}

// write writes data, one or more whole frames, to w.
func write(w io.Writer, data []byte) error {
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("frame: write: %w", err)
	}
	return nil
}

// encode overwrites buf with f as one newline-terminated frame within
// MaxBytes.
func encode(buf []byte, f Frame) ([]byte, error) {
	buf, err := f.appendTo(buf[:0])
	if err != nil {
		return buf, fmt.Errorf("frame: marshal: %w", err)
	}
	if len(buf) > MaxBytes {
		return buf, fmt.Errorf("%w: %d bytes to send", ErrTooLarge, len(buf))
	}
	return append(buf, '\n'), nil
}

// Read reads one newline-terminated frame into f, enforcing MaxBytes
// while the line accumulates.  io.EOF propagates untouched for clean
// shutdown.
func Read(r *bufio.Reader, f Frame) error {
	_, err := readFrame(r, f)
	return err
}

// readFrame is Read returning the frame's line, without its newline,
// when a codec's fast path took it, and nil otherwise.  The line is
// valid until r's next read.
func readFrame(r *bufio.Reader, f Frame) ([]byte, error) {
	line, err := readLineBounded(r)
	if err != nil {
		return nil, err
	}
	fast, err := f.parse(line)
	if err != nil {
		return nil, fmt.Errorf("frame: unmarshal: %w", err)
	}
	if !fast {
		return nil, nil
	}
	return trimNewline(line), nil
}

// trimNewline drops the newline that ends a line as read.
func trimNewline(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		return line[:n-1]
	}
	return line
}

// readLineBounded returns one newline-terminated line from r, failing
// with ErrTooLarge the moment the bytes read exceed MaxBytes — bounded
// memory no matter how much a peer streams without a newline.  A line
// that fits r's buffer is returned where it lies, valid until the next
// read; only a longer one is accumulated in a copy.
func readLineBounded(r *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		chunk, err := r.ReadSlice('\n')
		if err == nil && line == nil {
			line = chunk
		} else {
			line = append(line, chunk...)
		}
		payload := len(line)
		if err == nil {
			payload-- // the trailing newline is framing, not payload
		}
		if payload > MaxBytes {
			return nil, fmt.Errorf("%w: got %d bytes", ErrTooLarge, payload)
		}
		switch {
		case err == nil:
			return line, nil
		case errors.Is(err, bufio.ErrBufferFull):
			continue
		default:
			return nil, err
		}
	}
}
