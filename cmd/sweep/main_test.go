package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary impersonate sweep: re-executed with this
// variable set, it runs main() against its own flags.
func TestMain(m *testing.M) {
	if os.Getenv("SWEEP_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestUnknownFormatFailsBeforeAnyCell: -format is checked with the other
// flags, not when the first table renders.  A bad value must cost no
// replication: no progress line, and no checkpoint directory, which sweep
// creates before it runs a grid.
func TestUnknownFormatFailsBeforeAnyCell(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck")
	cmd := exec.Command(os.Args[0], "-mode", "tcweight", "-reps", "1", "-tasks", "10",
		"-format", "yaml", "-v", "-checkpoint", ck)
	cmd.Env = append(os.Environ(), "SWEEP_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("got %v, want exit status 1", err)
	}
	if !strings.Contains(stderr.String(), `unknown format "yaml"`) {
		t.Errorf("stderr does not name the format: %q", stderr.String())
	}
	if strings.Contains(stderr.String(), "reps,") || stdout.Len() != 0 {
		t.Errorf("cells ran before the format was rejected:\nstdout %q\nstderr %q", stdout.String(), stderr.String())
	}
	if _, err := os.Stat(ck); !os.IsNotExist(err) {
		t.Errorf("checkpoint directory was created (stat: %v)", err)
	}
}
