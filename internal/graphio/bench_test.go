package graphio

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"mpcgraph/internal/graph"
	"mpcgraph/internal/rng"
)

// benchData is a mid-size G(n, p) instance (~1M edges), the same
// density regime as internal/graph's builder benchmarks; the read
// benchmarks measure pure parse throughput from memory.
func benchData(b *testing.B) *graph.Graph {
	b.Helper()
	g := graph.GNP(1<<14, 1/float64(int(1)<<7), rng.New(99))
	return g
}

// benchWeighted attaches the read benchmarks' weights to g.
func benchWeighted(b *testing.B, g *graph.Graph) *graph.Weighted {
	b.Helper()
	weights := make([]float64, g.NumEdges())
	src := rng.New(7)
	for i := range weights {
		weights[i] = src.Float64() + 0.5
	}
	wg, err := graph.NewWeighted(g, weights)
	if err != nil {
		b.Fatal(err)
	}
	return wg
}

// render writes d in format f.
func render(b *testing.B, d *Data, f Format) []byte {
	b.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, d, f); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// benchRead measures Read of data in format f.
func benchRead(b *testing.B, data []byte, f Format) {
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data), f); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWrite measures Write of d in format f.
func benchWrite(b *testing.B, d *Data, f Format) {
	b.SetBytes(int64(len(render(b, d, f))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Write(io.Discard, d, f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadEdgeList(b *testing.B) {
	benchRead(b, render(b, Unweighted(benchData(b)), FormatEdgeList), FormatEdgeList)
}

func BenchmarkReadWEL(b *testing.B) {
	benchRead(b, render(b, FromWeighted(benchWeighted(b, benchData(b))), FormatWeightedEdgeList), FormatWeightedEdgeList)
}

func BenchmarkReadDIMACS(b *testing.B) {
	benchRead(b, render(b, Unweighted(benchData(b)), FormatDIMACS), FormatDIMACS)
}

func BenchmarkReadMatrixMarket(b *testing.B) {
	g := benchData(b)
	b.Run("pattern", func(b *testing.B) {
		benchRead(b, render(b, Unweighted(g), FormatMatrixMarket), FormatMatrixMarket)
	})
	b.Run("real", func(b *testing.B) {
		benchRead(b, render(b, FromWeighted(benchWeighted(b, g)), FormatMatrixMarket), FormatMatrixMarket)
	})
}

func BenchmarkReadMETIS(b *testing.B) {
	g := benchData(b)
	b.Run("plain", func(b *testing.B) {
		benchRead(b, render(b, Unweighted(g), FormatMETIS), FormatMETIS)
	})
	b.Run("weighted", func(b *testing.B) {
		benchRead(b, render(b, FromWeighted(benchWeighted(b, g)), FormatMETIS), FormatMETIS)
	})
}

// BenchmarkReadFileEdgeList reads benchData's edge list through
// ReadFile from an uncompressed file, the path that knows the stream's
// length and so sizes the merged edge slices once.
func BenchmarkReadFileEdgeList(b *testing.B) {
	data := render(b, Unweighted(benchData(b)), FormatEdgeList)
	path := filepath.Join(b.TempDir(), "g.el")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteEdgeList(b *testing.B) {
	benchWrite(b, Unweighted(benchData(b)), FormatEdgeList)
}

func BenchmarkWriteWEL(b *testing.B) {
	benchWrite(b, FromWeighted(benchWeighted(b, benchData(b))), FormatWeightedEdgeList)
}

func BenchmarkWriteDIMACS(b *testing.B) {
	benchWrite(b, Unweighted(benchData(b)), FormatDIMACS)
}

func BenchmarkWriteMatrixMarket(b *testing.B) {
	benchWrite(b, Unweighted(benchData(b)), FormatMatrixMarket)
}

func BenchmarkWriteMETIS(b *testing.B) {
	benchWrite(b, FromWeighted(benchWeighted(b, benchData(b))), FormatMETIS)
}
