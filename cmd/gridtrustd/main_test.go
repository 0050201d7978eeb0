package main

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gridtrust/internal/grid"
	"gridtrust/internal/rmswire"
)

// TestMain lets the test binary impersonate the daemon: re-executed with
// this variable set, it runs main() against its own flags, which gives the
// crash test a real process to SIGKILL.
func TestMain(m *testing.M) {
	if os.Getenv("GRIDTRUSTD_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// daemonOutput accumulates a spawned daemon's stdout lines for assertions
// about its shutdown narrative.
type daemonOutput struct {
	mu    sync.Mutex
	lines []string
	eof   chan struct{} // closed when the daemon's stdout reaches EOF
}

// String returns the daemon's output.  After the daemon has exited it is
// complete: the reader reaches EOF as soon as the last line is consumed,
// and String waits for that.  While the daemon still runs (failure
// messages only) it gives up after two seconds and returns what there is.
func (o *daemonOutput) String() string {
	select {
	case <-o.eof:
	case <-time.After(2 * time.Second):
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return strings.Join(o.lines, "\n")
}

// spawnDaemon re-executes the test binary as gridtrustd and waits for the
// listening line to learn the bound address.  The test owns the stdout
// pipe: cmd.StdoutPipe's read end is closed by cmd.Wait, which loses the
// shutdown narrative whenever Wait wins the race against the reader.
func spawnDaemon(t *testing.T, args ...string) (*exec.Cmd, string, *daemonOutput) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GRIDTRUSTD_RUN_MAIN=1")
	cmd.Stderr = os.Stderr
	stdout, child, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = child
	err = cmd.Start()
	child.Close()
	if err != nil {
		stdout.Close()
		t.Fatal(err)
	}
	out := &daemonOutput{eof: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(out.eof)
		defer stdout.Close()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			out.mu.Lock()
			out.lines = append(out.lines, line)
			out.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "gridtrustd listening on "); ok {
				addrCh <- rest
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr, out
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("daemon did not report a listening address")
		return nil, "", nil
	}
}

// TestCrashRestartRoundTrip kills a journalling daemon mid-stream with
// SIGKILL — no shutdown path runs — and asserts a restart against the same
// data directory recovers the exact pre-crash view: placements, open
// placements and the trust table.
func TestCrashRestartRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	args := []string{
		"-addr", "127.0.0.1:0", "-data", dir,
		"-topology-seed", "7", "-domains", "3",
	}
	cmd, addr, _ := spawnDaemon(t, args...)
	client, err := rmswire.Dial(addr)
	if err != nil {
		_ = cmd.Process.Kill()
		t.Fatal(err)
	}

	const tasks = 12
	reported := 0
	var nMachines int
	// Submit needs one EEC per machine; the generated topology's machine
	// count is not exposed over the wire, so discover it by growing the
	// vector until the daemon accepts.
	for n := 1; n <= 64; n++ {
		eec := make([]float64, n)
		for i := range eec {
			eec[i] = 100 + float64(i)
		}
		if _, err := client.Submit(0, []grid.Activity{grid.ActCompute}, grid.LevelD, eec, 0); err != nil {
			if strings.Contains(err.Error(), "EEC entries for") {
				continue
			}
			t.Fatal(err)
		}
		nMachines = n
		break
	}
	if nMachines == 0 {
		t.Fatal("could not determine machine count")
	}
	if err := client.Report(1, 5, 0.5); err != nil {
		t.Fatal(err)
	}
	reported++
	for i := 1; i < tasks; i++ {
		eec := make([]float64, nMachines)
		for m := range eec {
			eec[m] = 100 + float64((i*7+m*13)%40)
		}
		p, err := client.Submit(0, []grid.Activity{grid.ActCompute}, grid.LevelD, eec, float64(i))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if i%4 == 3 {
			continue // leave some placements open across the crash
		}
		outcome := 6.0
		if i%2 == 0 {
			outcome = 2.0
		}
		if err := client.Report(p.ID, outcome, float64(i)+0.5); err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		reported++
	}
	// Checkpoint partway through history so recovery exercises both the
	// snapshot and the record tail.
	if i, err := client.Checkpoint(); err != nil {
		t.Fatal(err)
	} else if i.Compacted == 0 {
		t.Fatal("checkpoint compacted nothing")
	}
	p, err := client.Submit(0, []grid.Activity{grid.ActCompute}, grid.LevelD, seqEEC(nMachines), 90)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Report(p.ID, 6, 91); err != nil {
		t.Fatal(err)
	}
	reported++

	before, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Pin the expected pre-crash shape: 12 tasks + 1 post-checkpoint
	// placement, of which i=3,7,11 were left open, and every report
	// applied before its reply.
	if before.Placed != tasks+1 || before.OpenPlacements != 3 || before.AgentsProcessed != reported {
		t.Fatalf("pre-crash state unexpected: %+v", before)
	}
	client.Close()

	// Hard kill: SIGKILL gives the daemon no chance to flush anything
	// beyond what the journal already made durable.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	cmd2, addr2, _ := spawnDaemon(t, args...)
	defer func() {
		_ = cmd2.Process.Kill()
		_ = cmd2.Wait()
	}()
	client2, err := rmswire.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	st, err := client2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Placed != before.Placed ||
		st.OpenPlacements != before.OpenPlacements ||
		st.TableVersion != before.TableVersion ||
		st.TableEntries != before.TableEntries {
		t.Fatalf("restart diverged from pre-crash view:\n before %+v\n after  %+v", before, st)
	}

	// A data dir started with different topology flags must refuse.
	bad := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-data", dir, "-topology-seed", "8")
	bad.Env = append(os.Environ(), "GRIDTRUSTD_RUN_MAIN=1")
	out, err := bad.CombinedOutput()
	if err == nil || !strings.Contains(string(out), "was created with") {
		t.Fatalf("mismatched meta accepted: err=%v out=%s", err, out)
	}
}

func seqEEC(n int) []float64 {
	eec := make([]float64, n)
	for i := range eec {
		eec[i] = 100 + float64(i)
	}
	return eec
}

// TestMetaFromAgentsFlagEra: testdata/meta_with_agents/meta.json was
// written by a gridtrustd that still had an -agents flag, with its default
// of 2.  A daemon started with default flags writes a meta.json with no
// agents key into a new data directory, and checkMeta accepts the old
// file under that meta.
func TestMetaFromAgentsFlagEra(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	fresh := t.TempDir()
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-data", fresh, "-demo")
	cmd.Env = append(os.Environ(), "GRIDTRUSTD_RUN_MAIN=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("demo failed: %v\n%s", err, out)
	}
	written, err := os.ReadFile(filepath.Join(fresh, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(written, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["agents"]; ok {
		t.Fatalf("new meta.json has an agents key:\n%s", written)
	}
	var meta daemonMeta
	if err := json.Unmarshal(written, &meta); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join("testdata", "meta_with_agents", "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"agents": 2`) {
		t.Fatalf("fixture lost its agents key:\n%s", data)
	}
	old := t.TempDir()
	if err := os.WriteFile(filepath.Join(old, "meta.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkMeta(old, meta); err != nil {
		t.Fatalf("a directory written with -agents 2 refused: %v", err)
	}
}

// TestDemoSmoke runs the -demo path end to end in-process via re-exec.
func TestDemoSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-demo")
	cmd.Env = append(os.Environ(), "GRIDTRUSTD_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("demo failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "demo: placed=5") {
		t.Fatalf("demo output missing summary:\n%s", out)
	}
}
