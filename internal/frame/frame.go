// Package frame is the wire layer internal/rmswire and internal/trustwire
// share: newline-delimited JSON, one value per line, with a hard bound on
// the size of a line in either direction (this file), and the one client
// connection both protocols' clients are codecs over (conn.go).
package frame

import (
	"bufio"
	"encoding/json"
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

// Write marshals v as one newline-terminated frame.
func Write(w io.Writer, v any) error {
	data, err := encode(v)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("frame: write: %w", err)
	}
	return nil
}

// encode marshals v as one newline-terminated frame within MaxBytes.
func encode(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("frame: marshal: %w", err)
	}
	if len(data) > MaxBytes {
		return nil, fmt.Errorf("frame: %d bytes exceeds limit", len(data))
	}
	return append(data, '\n'), nil
}

// Read reads one newline-terminated frame into v, enforcing MaxBytes
// while the line accumulates.  io.EOF propagates untouched for clean
// shutdown.
func Read(r *bufio.Reader, v any) error {
	line, err := readLineBounded(r)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(line, v); err != nil {
		return fmt.Errorf("frame: unmarshal: %w", err)
	}
	return nil
}

// readLineBounded accumulates one newline-terminated line from r,
// returning ErrTooLarge the moment the accumulated bytes exceed MaxBytes
// — bounded memory no matter how much a peer streams without a newline.
func readLineBounded(r *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		chunk, err := r.ReadSlice('\n')
		line = append(line, chunk...)
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
