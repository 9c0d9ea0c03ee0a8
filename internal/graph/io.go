package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/mat"
	"repro/internal/sparse"
)

// The text format is line-oriented and self-describing:
//
//	# comments are ignored
//	graph <n> <f> <classes>
//	node <label> <f1> ... <ff>     ← n lines, node ids are implicit 0..n-1
//	edge <u> <v>                   ← one line per undirected edge
//
// It exists so downstream users can serve their own graphs through the
// cmd/ binaries without writing Go.

const graphMagic = "# nai-graph v1"

// WriteGraph serializes g in the text format.
func WriteGraph(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, graphMagic)
	fmt.Fprintf(bw, "graph %d %d %d\n", g.N(), g.F(), g.NumClasses)
	for i := 0; i < g.N(); i++ {
		fmt.Fprintf(bw, "node %d", g.Labels[i])
		for _, v := range g.Features.Row(i) {
			fmt.Fprintf(bw, " %g", v)
		}
		fmt.Fprintln(bw)
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Adj.RowIndices(u) {
			if int(v) > u { // store each undirected edge once
				fmt.Fprintf(bw, "edge %d %d\n", u, v)
			}
		}
	}
	return bw.Flush()
}

// ReadGraph parses the text format strictly: truncated files (fewer node
// lines than the header's n), out-of-range node ids or labels, self-loops
// and duplicate edge lines are all errors — WriteGraph emits none of them,
// so any occurrence signals a corrupt file that silent deduplication would
// mask.
func ReadGraph(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var (
		n, f, classes int
		seenHeader    bool
		nodeCount     int
		features      *mat.Matrix
		labels        []int
		src, dst      []int
		lineNo        int
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "graph":
			if seenHeader {
				return nil, fmt.Errorf("graph: line %d: duplicate header", lineNo)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: header needs n f classes", lineNo)
			}
			var err error
			if n, err = strconv.Atoi(fields[1]); err != nil {
				return nil, fmt.Errorf("graph: line %d: bad n: %w", lineNo, err)
			}
			if f, err = strconv.Atoi(fields[2]); err != nil {
				return nil, fmt.Errorf("graph: line %d: bad f: %w", lineNo, err)
			}
			if classes, err = strconv.Atoi(fields[3]); err != nil {
				return nil, fmt.Errorf("graph: line %d: bad classes: %w", lineNo, err)
			}
			if n < 1 || f < 1 || classes < 1 {
				return nil, fmt.Errorf("graph: line %d: non-positive header values", lineNo)
			}
			if n > math.MaxInt32 {
				return nil, fmt.Errorf("graph: line %d: %d nodes exceed the int32 node ids", lineNo, n)
			}
			features = mat.New(n, f)
			labels = make([]int, n)
			seenHeader = true
		case "node":
			if !seenHeader {
				return nil, fmt.Errorf("graph: line %d: node before header", lineNo)
			}
			if nodeCount >= n {
				return nil, fmt.Errorf("graph: line %d: more than %d nodes", lineNo, n)
			}
			if len(fields) != 2+f {
				return nil, fmt.Errorf("graph: line %d: node needs label + %d features", lineNo, f)
			}
			label, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad label: %w", lineNo, err)
			}
			labels[nodeCount] = label
			row := features.Row(nodeCount)
			for j := 0; j < f; j++ {
				if row[j], err = strconv.ParseFloat(fields[2+j], 64); err != nil {
					return nil, fmt.Errorf("graph: line %d: bad feature %d: %w", lineNo, j, err)
				}
			}
			nodeCount++
		case "edge":
			if !seenHeader {
				return nil, fmt.Errorf("graph: line %d: edge before header", lineNo)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: edge needs u v", lineNo)
			}
			u, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad u: %w", lineNo, err)
			}
			v, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad v: %w", lineNo, err)
			}
			if u < 0 || u >= n || v < 0 || v >= n {
				return nil, fmt.Errorf("graph: line %d: edge (%d,%d) outside [0,%d)", lineNo, u, v, n)
			}
			// Self-loops are parse errors, not silent drops: WriteGraph
			// never emits them, so one means a corrupt or hand-mangled
			// file. (Duplicate edge lines are detected after parsing, by
			// comparing the line count against the deduplicated adjacency —
			// no per-edge hashing on the large-graph load path.)
			if u == v {
				return nil, fmt.Errorf("graph: line %d: self-loop on node %d", lineNo, u)
			}
			src = append(src, u)
			dst = append(dst, v)
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !seenHeader {
		return nil, fmt.Errorf("graph: missing header")
	}
	if nodeCount != n {
		return nil, fmt.Errorf("graph: %d node lines for n=%d", nodeCount, n)
	}
	adj := sparse.FromEdges(n, src, dst, true)
	// FromEdges stores each unordered pair once per direction and drops
	// duplicates; self-loops were already rejected above, so any shortfall
	// against the edge-line count is a duplicate line (in either
	// orientation) — a corrupt file, like the other strict checks.
	if stored := adj.NNZ() / 2; stored != len(src) {
		return nil, fmt.Errorf("graph: %d duplicate edge lines (%d lines, %d distinct edges)",
			len(src)-stored, len(src), stored)
	}
	return New(adj, features, labels, classes)
}

// ReadGraphFile parses a graph file.
func ReadGraphFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadGraph(f)
}
