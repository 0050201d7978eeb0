// Package frame is the wire layer internal/rmswire and internal/trustwire
// share: newline-delimited JSON, one value per line, with a hard bound on
// the size of a line in either direction (this file); the one client
// connection both protocols' clients speak over (conn.go); and the one
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

// ErrTooLarge reports a frame exceeding MaxBytes.  The reader fails as
// soon as the limit is crossed — it never buffers an unbounded line
// waiting for a newline that may not come — so a server can answer with
// an error frame instead of silently dropping the connection.  The text
// names the limit as both protocols export it.
var ErrTooLarge = errors.New("frame exceeds MaxFrameBytes")

// Frame is one value bound to the codec that encodes and decodes it:
// what Read, Write and Conn.RoundTrip move.  Only a Codec makes one, so
// no frame reaches the wire by reflection.
type Frame interface {
	appendTo(dst []byte) ([]byte, error)
	parse(line []byte) error
}

type bound[T any] struct {
	c *Codec[T]
	v *T
}

func (f bound[T]) appendTo(dst []byte) ([]byte, error) { return f.c.Append(dst, f.v) }
func (f bound[T]) parse(line []byte) error             { return f.c.Parse(line, f.v) }

// Frame binds v to the codec: written from *v, or read into it.
func (c *Codec[T]) Frame(v *T) Frame { return bound[T]{c, v} }

// Writer writes frames to one stream through one encode buffer it keeps:
// what a connection handler holds for its replies.
type Writer struct {
	W   io.Writer
	buf []byte
}

// Write encodes f as one newline-terminated frame and writes it.
func (w *Writer) Write(f Frame) error {
	var err error
	if w.buf, err = encode(w.buf, f); err != nil {
		return err
	}
	if _, err := w.W.Write(w.buf); err != nil {
		return fmt.Errorf("frame: write: %w", err)
	}
	return nil
}

// Write writes the one frame a caller has for w.
func Write(w io.Writer, f Frame) error { return (&Writer{W: w}).Write(f) }

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
	line, err := readLineBounded(r)
	if err != nil {
		return err
	}
	if err := f.parse(line); err != nil {
		return fmt.Errorf("frame: unmarshal: %w", err)
	}
	return nil
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
