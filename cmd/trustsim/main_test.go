package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary impersonate trustsim: re-executed with this
// variable set, it runs main() against its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("TRUSTSIM_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestUnknownFormatFailsBeforeAnyCell: -format is checked with the other
// flags, so a bad value costs no replication on either grid path: no
// progress line under -v, and the scenario file is not even opened.
func TestUnknownFormatFailsBeforeAnyCell(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "4", "-tasks", "10", "-v"},
		{"-config", "/nonexistent/scenarios.json"},
	} {
		cmd := exec.Command(os.Args[0], append(args, "-reps", "1", "-format", "yaml")...)
		cmd.Env = append(os.Environ(), "TRUSTSIM_RUN_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%v: got %v, want exit status 1", args, err)
		}
		if got := stderr.String(); !strings.HasPrefix(got, `trustsim: report: unknown format "yaml"`) || stdout.Len() != 0 {
			t.Errorf("%v: work was done before the format was rejected:\nstdout %q\nstderr %q", args, stdout.String(), got)
		}
	}
}
