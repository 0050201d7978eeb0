package frame

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestReadLineBoundedLimits(t *testing.T) {
	read := func(payload []byte, terminated bool) ([]byte, error) {
		buf := payload
		if terminated {
			buf = append(append([]byte(nil), payload...), '\n')
		}
		return readLineBounded(bufio.NewReaderSize(bytes.NewReader(buf), 64))
	}

	// A maximal legal frame (exactly MaxBytes of payload) must pass:
	// Write emits payloads up to that size.
	line, err := read(bytes.Repeat([]byte{'x'}, MaxBytes), true)
	if err != nil {
		t.Fatalf("maximal frame rejected: %v", err)
	}
	if len(line) != MaxBytes+1 {
		t.Fatalf("maximal frame truncated to %d bytes", len(line))
	}

	// One byte over the limit fails with the typed error.
	if _, err := read(bytes.Repeat([]byte{'x'}, MaxBytes+1), true); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized frame: got %v, want ErrTooLarge", err)
	}

	// An unterminated flood fails as soon as the limit is crossed — the
	// reader must not wait for a newline that never comes.
	if _, err := read(bytes.Repeat([]byte{'x'}, MaxBytes+100), false); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("unterminated flood: got %v, want ErrTooLarge", err)
	}

	// A short unterminated line is a plain EOF, not a framing error.
	if _, err := read([]byte("short"), false); !errors.Is(err, io.EOF) {
		t.Fatalf("short unterminated line: got %v, want EOF", err)
	}
}
