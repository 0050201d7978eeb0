package grid

import (
	"errors"
	"strings"
	"testing"
)

func dotTopology(t *testing.T) *Topology {
	t.Helper()
	top, err := NewTopology(makeGD(0, 2, 1), makeGD(1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestWriteDOTStructure(t *testing.T) {
	top := dotTopology(t)
	var sb strings.Builder
	if err := WriteDOT(&sb, top); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"digraph gridtrust {",
		"subgraph cluster_gd0",
		"subgraph cluster_gd1",
		"rd0 [",
		"cd1 [",
		"machine 100", // GD1's first machine id = 100
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Error("DOT not terminated")
	}
}

// TestWriteDOTWithoutTable checks that the document is structure only:
// the trust table is not drawn, so no CD→RD edge appears.
func TestWriteDOTWithoutTable(t *testing.T) {
	var sb strings.Builder
	if err := WriteDOT(&sb, dotTopology(t)); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), " -> rd") {
		t.Errorf("DOT drew a trust edge:\n%s", sb.String())
	}
}

func TestWriteDOTDeterministic(t *testing.T) {
	top := dotTopology(t)
	var a, b strings.Builder
	if err := WriteDOT(&a, top); err != nil {
		t.Fatal(err)
	}
	if err := WriteDOT(&b, top); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("DOT output is not deterministic")
	}
}

func TestWriteDOTErrors(t *testing.T) {
	if err := WriteDOT(&strings.Builder{}, nil); err == nil {
		t.Error("nil topology accepted")
	}
	if err := WriteDOT(failWriter{}, dotTopology(t)); err == nil {
		t.Error("write error swallowed")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("sink closed") }

func TestSummary(t *testing.T) {
	s := Summary(dotTopology(t))
	if !strings.Contains(s, "2 grid domains") || !strings.Contains(s, "3 machines") ||
		!strings.Contains(s, "3 clients") {
		t.Errorf("summary = %q", s)
	}
	if Summary(nil) != "<nil topology>" {
		t.Error("nil summary wrong")
	}
}
