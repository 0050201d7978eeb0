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

// TestMain lets the test binary impersonate trustsim: re-executed with this
// variable set, it runs main() against its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("TRUSTSIM_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// run executes trustsim with args in the repository root, so the paths in
// args and in a scenario list's title read as they do on the command line.
func run(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = filepath.Join("..", "..")
	cmd.Env = append(os.Environ(), "TRUSTSIM_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case errors.As(err, &ee):
		exit = ee.ExitCode()
	case err != nil:
		t.Fatalf("%v: %v", args, err)
	}
	return out.String(), errb.String(), exit
}

// TestUnknownFormatFailsBeforeAnyCell: -format is checked with the other
// flags, so a bad value costs no replication on either grid path: no
// progress line under -v, and the experiment file is not even opened.
func TestUnknownFormatFailsBeforeAnyCell(t *testing.T) {
	rejectsFormat(t, "-table", "4", "-tasks", "10", "-v", "-reps", "1", "-format", "yaml")
	rejectsFormat(t, "sweep", "-reps", "1", "-format", "yaml", "/nonexistent/scenarios.json")
}

// TestSweepUnknownFormatFailsBeforeAnyCell: under -checkpoint -v a bad
// -format prints no progress line and creates no checkpoint directory,
// which sweep makes before it runs a cell.
func TestSweepUnknownFormatFailsBeforeAnyCell(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck")
	rejectsFormat(t, "sweep", "-reps", "1", "-format", "yaml", "-v", "-checkpoint", ck, "configs/sweeps/tcweight.json")
	if _, err := os.Stat(ck); !os.IsNotExist(err) {
		t.Errorf("checkpoint directory was created (stat: %v)", err)
	}
}

// rejectsFormat runs trustsim with args, whose -format is "yaml", and
// fails t unless it exits 1 on the format with nothing else done.
func rejectsFormat(t *testing.T, args ...string) {
	t.Helper()
	stdout, stderr, exit := run(t, args...)
	if exit != 1 {
		t.Fatalf("%v: exit %d, want 1", args, exit)
	}
	if !strings.HasPrefix(stderr, `trustsim: report: unknown format "yaml"`) || stdout != "" {
		t.Errorf("%v: work was done before the format was rejected:\nstdout %q\nstderr %q", args, stdout, stderr)
	}
}

// TestSweepSpecsMatchParent: the experiment files reproduce, byte for
// byte, what the removed sweep binary's modes and `trustsim -config`
// printed at 59c44c9 (testdata/sweep_59c44c9, written by those binaries).
func TestSweepSpecsMatchParent(t *testing.T) {
	type golden struct {
		file string
		args []string
	}
	var cases []golden
	for _, m := range []string{"heuristics", "tcweight", "heterogeneity", "batch", "machines", "etsrule",
		"rate", "evolving", "deadline", "staging", "fault", "trustzoo"} {
		cases = append(cases, golden{m + ".txt", []string{"configs/sweeps/" + m + ".json"}})
	}
	for _, f := range []string{"markdown", "csv", "json"} {
		cases = append(cases, golden{"machines." + f, []string{"-format", f, "configs/sweeps/machines.json"}})
	}
	for _, m := range []string{"tcweight", "rate"} {
		cases = append(cases, golden{m + "-chart.txt", []string{"-chart", "configs/sweeps/" + m + ".json"}})
	}
	for _, c := range []string{"paper-tables", "extensions"} {
		for _, f := range []string{"ascii", "markdown", "csv", "json"} {
			cases = append(cases, golden{c + "." + f, []string{"-format", f, "configs/" + c + ".json"}})
		}
	}
	for _, c := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", "sweep_59c44c9", c.file))
		if err != nil {
			t.Fatal(err)
		}
		args := append([]string{"sweep", "-reps", "2", "-seed", "1"}, c.args...)
		stdout, stderr, exit := run(t, args...)
		if exit != 0 {
			t.Fatalf("%v: exit %d: %s", args, exit, stderr)
		}
		if stdout != string(want) {
			t.Errorf("%v: output differs from testdata/sweep_59c44c9/%s:\n%s", args, c.file, stdout)
		}
	}
}

// TestBadSweepFileFailsBeforeAnyCell: a missing file, a misspelled key
// inside a cell and an unknown kind are rejected when the file loads,
// before the checkpoint directory is created or a cell runs.
func TestBadSweepFileFailsBeforeAnyCell(t *testing.T) {
	dir := t.TempDir()
	for name, c := range map[string]struct{ body, want string }{
		"cell-key.json": {`{"title": "t", "scenarios": [{"heuristic": "mct", "tasks": 20, "tc_wieght": 0}]}`, `unknown field "tc_wieght"`},
		"kind.json":     {`{"kind": "deadlines", "scenarios": [{"heuristic": "mct", "tasks": 20}]}`, `unknown kind "deadlines"`},
		"wrapper.json":  {`{"titel": "t", "scenarios": [{"heuristic": "mct", "tasks": 20}]}`, `unknown field "titel"`},
		"missing.json":  {"", "no such file"},
	} {
		path := filepath.Join(dir, name)
		if c.body != "" {
			if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		ck := filepath.Join(dir, name+".ck")
		stdout, stderr, exit := run(t, "sweep", "-reps", "1", "-v", "-checkpoint", ck, path)
		if exit != 1 || !strings.Contains(stderr, c.want) {
			t.Errorf("%s: exit %d, stderr %q; want exit 1 naming %s", name, exit, stderr, c.want)
		}
		if strings.Contains(stderr, "reps,") || stdout != "" {
			t.Errorf("%s: cells ran:\nstdout %q\nstderr %q", name, stdout, stderr)
		}
		if _, err := os.Stat(ck); !os.IsNotExist(err) {
			t.Errorf("%s: checkpoint directory was created (stat: %v)", name, err)
		}
	}
}

// TestEditedSweepRestoresNoCell: the checkpoint salt is the file's resolved
// content, so after one cell's arrival rate changes a rerun against the
// same directory restores nothing and prints what a fresh run prints.
func TestEditedSweepRestoresNoCell(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck")
	spec, err := os.ReadFile(filepath.Join("..", "..", "configs", "sweeps", "machines.json"))
	if err != nil {
		t.Fatal(err)
	}
	orig, edited := filepath.Join(dir, "machines.json"), filepath.Join(dir, "edited.json")
	if err := os.WriteFile(orig, spec, 0o644); err != nil {
		t.Fatal(err)
	}
	const from, to = `"machines": 10, "arrival_rate": 0.08}`, `"machines": 10, "arrival_rate": 0.09}`
	if !bytes.Contains(spec, []byte(from)) {
		t.Fatalf("configs/sweeps/machines.json has no cell %s", from)
	}
	if err := os.WriteFile(edited, bytes.Replace(spec, []byte(from), []byte(to), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	sweep := func(args ...string) (string, string) {
		t.Helper()
		stdout, stderr, exit := run(t, append([]string{"sweep", "-reps", "2", "-seed", "1", "-v"}, args...)...)
		if exit != 0 {
			t.Fatalf("%v: exit %d: %s", args, exit, stderr)
		}
		return stdout, stderr
	}
	first, _ := sweep("-checkpoint", ck, orig)
	// The unedited file restores every cell: the check below can see one.
	again, stderr := sweep("-checkpoint", ck, orig)
	if strings.Count(stderr, "cached") != 5 || again != first {
		t.Fatalf("unedited rerun did not restore all five cells identically:\n%s", stderr)
	}
	rerun, stderr := sweep("-checkpoint", ck, edited)
	if strings.Contains(stderr, "cached") {
		t.Errorf("edited file restored cells:\n%s", stderr)
	}
	if fresh, _ := sweep(edited); rerun != fresh {
		t.Errorf("edited rerun differs from a fresh run:\n%s\nvs\n%s", rerun, fresh)
	}
}

// TestSingleScenarioFile: a file holding one scenario object, not a list,
// runs as the list of that one scenario, as `trustsim -config` ran it.
func TestSingleScenarioFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "one.json")
	const one = `{"heuristic": "sufferage", "tasks": 20, "tc_weight": 0}`
	var outs []string
	for _, body := range []string{one, "[" + one + "]"} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		stdout, stderr, exit := run(t, "sweep", "-reps", "2", "-seed", "1", path)
		if exit != 0 {
			t.Fatalf("%s: exit %d: %s", body, exit, stderr)
		}
		outs = append(outs, stdout)
	}
	if outs[0] != outs[1] || !strings.Contains(outs[0], "sufferage/inconsistent/20-tasks") {
		t.Errorf("one object and a list of it print differently:\n%s\nvs\n%s", outs[0], outs[1])
	}
}
