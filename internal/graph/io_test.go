package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mat"
	"repro/internal/sparse"
)

func TestGraphIORoundTrip(t *testing.T) {
	g := lineGraph(t, 8, 3)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != g.N() || got.M() != g.M() || got.F() != g.F() || got.NumClasses != g.NumClasses {
		t.Fatalf("shape mismatch: %d/%d/%d/%d", got.N(), got.M(), got.F(), got.NumClasses)
	}
	if !mat.Equal(got.Features, g.Features) {
		t.Fatal("features changed in round trip")
	}
	for i, y := range g.Labels {
		if got.Labels[i] != y {
			t.Fatal("labels changed in round trip")
		}
	}
	if !mat.Equal(got.Adj.ToDense(), g.Adj.ToDense()) {
		t.Fatal("adjacency changed in round trip")
	}
}

func TestGraphIOFileRoundTrip(t *testing.T) {
	g := lineGraph(t, 5, 2)
	path := filepath.Join(t.TempDir(), "g.txt")
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 5 {
		t.Fatal("file round trip broken")
	}
}

func TestReadGraphCommentsAndBlankLines(t *testing.T) {
	in := `# nai-graph v1

# a comment
graph 2 1 2
node 0 1.5
node 1 -2
edge 0 1
`
	g, err := ReadGraph(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 || g.M() != 1 || g.Features.At(1, 0) != -2 {
		t.Fatal("parse mismatch")
	}
}

func TestReadGraphErrors(t *testing.T) {
	cases := map[string]string{
		"missing header":    "node 0 1\n",
		"bad header":        "graph 2 1\n",
		"node count low":    "graph 2 1 2\nnode 0 1\n",
		"node count high":   "graph 1 1 2\nnode 0 1\nnode 1 2\n",
		"bad label":         "graph 1 1 2\nnode x 1\n",
		"bad feature":       "graph 1 1 2\nnode 0 z\n",
		"feature count":     "graph 1 2 2\nnode 0 1\n",
		"edge out of range": "graph 2 1 2\nnode 0 1\nnode 1 1\nedge 0 9\n",
		"edge before head":  "edge 0 1\n",
		"unknown record":    "graph 1 1 2\nnode 0 1\nblob 1\n",
		"label range":       "graph 1 1 2\nnode 7 1\n",
		"duplicate header":  "graph 1 1 2\ngraph 1 1 2\nnode 0 1\n",
		"self-loop":         "graph 2 1 2\nnode 0 1\nnode 1 1\nedge 1 1\n",
		"duplicate edge":    "graph 2 1 2\nnode 0 1\nnode 1 1\nedge 0 1\nedge 0 1\n",
		"reversed dup edge": "graph 3 1 2\nnode 0 1\nnode 1 1\nnode 0 1\nedge 0 1\nedge 1 0\n",
		"negative edge":     "graph 2 1 2\nnode 0 1\nnode 1 1\nedge -1 0\n",
		"ids past int32":    "graph 2147483648 1 2\nnode 0 1\n",
	}
	for name, in := range cases {
		if _, err := ReadGraph(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

// TestReadGraphTruncated cuts a serialized graph at every record boundary
// and in the middle of a line: every truncation that loses a node line must
// be rejected (edge lines are optional, so cuts past the last node line can
// still parse).
func TestReadGraphTruncated(t *testing.T) {
	g := lineGraph(t, 6, 2)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.String()
	lines := strings.SplitAfter(full, "\n")
	nodeLines := 0
	prefix := ""
	for _, ln := range lines {
		if strings.HasPrefix(ln, "node ") {
			nodeLines++
		}
		if nodeLines < g.N() && ln != "" {
			// Cut after this complete line, and once more mid-line.
			for _, cut := range []string{prefix + ln, prefix + ln[:len(ln)/2]} {
				if _, err := ReadGraph(strings.NewReader(cut)); err == nil {
					t.Fatalf("accepted truncation at %d bytes (%d/%d node lines)",
						len(cut), nodeLines, g.N())
				}
			}
		}
		prefix += ln
	}
	if _, err := ReadGraph(strings.NewReader(full)); err != nil {
		t.Fatalf("full file rejected: %v", err)
	}
}

func TestWriteGraphStoresEachEdgeOnce(t *testing.T) {
	adj := sparse.FromEdges(3, []int{0, 1}, []int{1, 2}, true)
	g, err := New(adj, mat.New(3, 1), []int{0, 0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "edge "); got != 2 {
		t.Fatalf("%d edge lines, want 2", got)
	}
}
