package serve

import (
	"context"
	"testing"
)

// BenchmarkClassify prices one uncached single-node read through
// ClassifyContext: quota, id validation, admission, the backend call and
// the trace, with no result cache in front, so every iteration reaches the
// engine (whose X^(1) layer warms over the first pass of the test nodes).
func BenchmarkClassify(b *testing.B) {
	s, _ := newTestServer(b, Config{})
	ds, _ := fixture(b)
	test := ds.Split.Test
	ctx := context.Background()
	node := []int{0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node[0] = test[i%len(test)]
		if _, _, err := s.ClassifyContext(ctx, node, ""); err != nil {
			b.Fatal(err)
		}
	}
}
