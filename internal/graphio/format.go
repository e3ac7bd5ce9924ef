package graphio

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mpcgraph/internal/graph"
)

// Format identifies one on-disk graph dialect. See docs/formats.md for
// the grammar, limits and error behavior of each.
type Format int

const (
	// FormatUnknown is the zero value; ReadFile falls back to content
	// sniffing when the path does not determine a format.
	FormatUnknown Format = iota
	// FormatEdgeList is the repository's native unweighted edge list
	// ("u v" per line, optional "n <count>" header, '#' comments).
	FormatEdgeList
	// FormatWeightedEdgeList is the weighted edge list ("u v w" per
	// line, optional "n <count>" header, '#' comments).
	FormatWeightedEdgeList
	// FormatDIMACS is the DIMACS edge format ("p edge n m" then "e u v",
	// 1-based, 'c' comments) used by the coloring/clique challenges.
	FormatDIMACS
	// FormatMETIS is the METIS/Chaco adjacency format (header "n m
	// [fmt]", then one neighbor line per vertex, 1-based, '%' comments).
	FormatMETIS
	// FormatMatrixMarket is the MatrixMarket coordinate format
	// (%%MatrixMarket banner; pattern or real field, symmetric or
	// general symmetry) reading the adjacency matrix of the graph.
	FormatMatrixMarket
)

// String returns the short name accepted by ParseFormat and the CLI.
func (f Format) String() string {
	switch f {
	case FormatEdgeList:
		return "el"
	case FormatWeightedEdgeList:
		return "wel"
	case FormatDIMACS:
		return "dimacs"
	case FormatMETIS:
		return "metis"
	case FormatMatrixMarket:
		return "mm"
	default:
		return "unknown"
	}
}

// Weighted reports whether the format can carry per-edge weights.
func (f Format) Weighted() bool {
	switch f {
	case FormatWeightedEdgeList, FormatMETIS, FormatMatrixMarket:
		return true
	}
	return false
}

// Unweighted reports whether the format can represent a plain graph
// without inventing weights.
func (f Format) Unweighted() bool {
	return f != FormatWeightedEdgeList
}

// Extensions returns the file extensions (without the optional trailing
// ".gz") mapped to f, primary first.
func (f Format) Extensions() []string {
	switch f {
	case FormatEdgeList:
		return []string{".el", ".txt", ".edges"}
	case FormatWeightedEdgeList:
		return []string{".wel"}
	case FormatDIMACS:
		return []string{".dimacs", ".col"}
	case FormatMETIS:
		return []string{".metis", ".graph"}
	case FormatMatrixMarket:
		return []string{".mtx", ".mm"}
	default:
		return nil
	}
}

// Formats enumerates every concrete format in stable order, the same
// table the CLI listing and the round-trip tests iterate.
func Formats() []Format {
	return []Format{FormatEdgeList, FormatWeightedEdgeList, FormatDIMACS, FormatMETIS, FormatMatrixMarket}
}

// ParseFormat resolves a short name ("el", "wel", "dimacs", "metis",
// "mm") to its Format.
func ParseFormat(name string) (Format, error) {
	for _, f := range Formats() {
		if name == f.String() {
			return f, nil
		}
	}
	names := make([]string, 0, len(Formats()))
	for _, f := range Formats() {
		names = append(names, f.String())
	}
	sort.Strings(names)
	return FormatUnknown, fmt.Errorf("graphio: unknown format %q (want one of %s)", name, strings.Join(names, ", "))
}

// DetectFormat maps a file path to a Format by extension, ignoring a
// trailing ".gz". It returns FormatUnknown when the extension is not
// recognized.
func DetectFormat(path string) Format {
	ext := strings.ToLower(filepath.Ext(path))
	if ext == ".gz" {
		ext = strings.ToLower(filepath.Ext(strings.TrimSuffix(path, filepath.Ext(path))))
	}
	for _, f := range Formats() {
		for _, e := range f.Extensions() {
			if ext == e {
				return f
			}
		}
	}
	return FormatUnknown
}

// Data is a parsed graph instance: the graph plus, when the source
// format carried per-edge weights, the weighted view. WG, when non-nil,
// shares G as its skeleton.
type Data struct {
	G  *graph.Graph
	WG *graph.Weighted
}

// Unweighted wraps a plain graph as Data.
func Unweighted(g *graph.Graph) *Data { return &Data{G: g} }

// FromWeighted wraps a weighted graph as Data.
func FromWeighted(wg *graph.Weighted) *Data { return &Data{G: wg.Graph, WG: wg} }

// Read parses one graph in the given format from an uncompressed
// stream. Use ReadFile for path-based access with gzip auto-detection.
func Read(r io.Reader, f Format) (*Data, error) {
	return readSized(r, f, 0)
}

// readSized is Read of a stream of size bytes, 0 when unknown. The
// line-format readers size their edge slices from it (see
// fastReader.reserve); a wrong size costs capacity only.
func readSized(r io.Reader, f Format, size int64) (*Data, error) {
	switch f {
	case FormatEdgeList, FormatWeightedEdgeList:
		return readNativeFast(r, f == FormatWeightedEdgeList, 0, size)
	case FormatDIMACS:
		return readDIMACSFast(r, 0, size)
	case FormatMETIS:
		return readMETIS(r)
	case FormatMatrixMarket:
		return readMatrixMarketFast(r, 0, size)
	default:
		return nil, fmt.Errorf("graphio: cannot read format %q", f)
	}
}

// Write renders d in the given format to an uncompressed stream. A
// weighted instance requires a weight-capable format (wel, metis, mm)
// and an unweighted instance a format with an unweighted form (all but
// wel); mismatches error rather than silently dropping or inventing
// weights.
func Write(w io.Writer, d *Data, f Format) error {
	if d == nil || d.G == nil {
		return fmt.Errorf("graphio: write of nil graph")
	}
	if d.WG != nil && !f.Weighted() {
		return fmt.Errorf("graphio: format %q cannot carry edge weights (use wel, metis or mm)", f)
	}
	if d.WG == nil && !f.Unweighted() {
		return fmt.Errorf("graphio: format %q requires edge weights", f)
	}
	switch f {
	case FormatEdgeList:
		return WriteEdgeList(w, d.G)
	case FormatWeightedEdgeList:
		return writeWeightedEdgeList(w, d.WG)
	case FormatDIMACS:
		return writeDIMACS(w, d.G)
	case FormatMETIS:
		return writeMETIS(w, d)
	case FormatMatrixMarket:
		return writeMatrixMarket(w, d)
	default:
		return fmt.Errorf("graphio: cannot write format %q", f)
	}
}

// gzipMagic is the two-byte header of every gzip stream.
var gzipMagic = []byte{0x1f, 0x8b}

// NewReader wraps r with transparent gzip decompression: the first two
// bytes are sniffed and a gzip reader is interposed when they match the
// gzip magic. The returned reader is plain text either way.
func NewReader(r io.Reader) (io.Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(2)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	if len(head) == 2 && head[0] == gzipMagic[0] && head[1] == gzipMagic[1] {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("graphio: gzip: %w", err)
		}
		return zr, nil
	}
	return br, nil
}

// ReadFile reads a graph from path: gzip is detected from the stream's
// magic bytes and the format from the extension (see DetectFormat), with
// a content sniff (MatrixMarket banner, DIMACS problem line) as the
// fallback for unrecognized extensions.
func ReadFile(path string) (*Data, error) {
	return ReadFileFormat(path, FormatUnknown)
}

// ReadFileFormat is ReadFile with an explicit format override; pass
// FormatUnknown to auto-detect.
func ReadFileFormat(path string, f Format) (*Data, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	r, err := NewReader(file)
	if err != nil {
		return nil, err
	}
	// An uncompressed regular file's length is the text's; a gzip
	// file's is not, and a pipe or a device has none.
	var size int64
	if fi, err := file.Stat(); err == nil && fi.Mode().IsRegular() {
		if _, gz := r.(*gzip.Reader); !gz {
			size = fi.Size()
		}
	}
	if f == FormatUnknown {
		f = DetectFormat(path)
	}
	if f == FormatUnknown {
		return readSniffed(r, size)
	}
	return readSized(r, f, size)
}

// readSniffed peeks at the first non-empty line to distinguish a
// MatrixMarket banner or a DIMACS problem line, and otherwise falls back
// to the native edge-list dialect.
func readSniffed(r io.Reader, size int64) (*Data, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(1 << 12)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	text := string(head)
	switch {
	case strings.HasPrefix(text, "%%MatrixMarket"):
		return readSized(br, FormatMatrixMarket, size)
	case sniffDIMACS(text):
		return readSized(br, FormatDIMACS, size)
	default:
		return readSized(br, FormatEdgeList, size)
	}
}

// sniffDIMACS reports whether the head of the file contains a DIMACS
// problem line before any non-comment content.
func sniffDIMACS(text string) bool {
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		return strings.HasPrefix(line, "p ")
	}
	return false
}

// WriteFile writes d to path, deriving the format from the extension and
// gzip-compressing when the path ends in ".gz".
func WriteFile(path string, d *Data) error {
	f := DetectFormat(path)
	if f == FormatUnknown {
		return fmt.Errorf("graphio: cannot infer format from path %q (known extensions: el/txt/edges, wel, dimacs/col, metis/graph, mtx/mm, each optionally .gz)", path)
	}
	return WriteFileFormat(path, d, f)
}

// WriteFileFormat is WriteFile with an explicit format, still honoring a
// ".gz" suffix for compression.
func WriteFileFormat(path string, d *Data, f Format) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	var w io.Writer = file
	var zw *gzip.Writer
	if strings.EqualFold(filepath.Ext(path), ".gz") {
		zw = gzip.NewWriter(file)
		w = zw
	}
	if err := Write(w, d, f); err != nil {
		_ = file.Close() // the write error is the one worth reporting
		return err
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			_ = file.Close() // ditto: surface the compression error
			return err
		}
	}
	return file.Close()
}
