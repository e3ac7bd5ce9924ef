package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the consumer side of the exposition format: a parser
// for the subset of the Prometheus text format the daemon emits
// (counters, gauges, histograms), plus the invariant validator the
// service-smoke gate runs against a live /metrics scrape. Keeping the
// parser next to the writer means one package owns both directions of
// the wire format, and the round-trip is testable without a network.

// Sample is one parsed series: a metric name, its label pairs, and a
// value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Exposition is a parsed /metrics payload.
type Exposition struct {
	Samples []Sample
	// Help and Type index the # HELP / # TYPE comment lines by metric
	// family name.
	Help map[string]string
	Type map[string]string
}

// Value returns the value of the first sample matching name and every
// given label pair (an even-length key, value list). ok is false when
// no sample matches.
func (e *Exposition) Value(name string, kv ...string) (float64, bool) {
	if len(kv)%2 != 0 {
		panic("obs: Value wants key/value pairs")
	}
next:
	for _, s := range e.Samples {
		if s.Name != name {
			continue
		}
		for i := 0; i < len(kv); i += 2 {
			if s.Labels[kv[i]] != kv[i+1] {
				continue next
			}
		}
		return s.Value, true
	}
	return 0, false
}

// ParseExposition parses a Prometheus text-format payload. It accepts
// the grammar the daemon writes — HELP/TYPE comments, series lines
// with optional {label="value"} blocks, float values — and rejects
// anything it cannot account for, so a parse success is already a weak
// format check.
func ParseExposition(r io.Reader) (*Exposition, error) {
	e := &Exposition{Help: make(map[string]string), Type: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			rest := strings.TrimSpace(strings.TrimPrefix(line, "#"))
			switch {
			case strings.HasPrefix(rest, "HELP "):
				name, help, _ := strings.Cut(strings.TrimPrefix(rest, "HELP "), " ")
				e.Help[name] = help
			case strings.HasPrefix(rest, "TYPE "):
				name, typ, _ := strings.Cut(strings.TrimPrefix(rest, "TYPE "), " ")
				e.Type[name] = strings.TrimSpace(typ)
			}
			// Other comments are legal and ignored.
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: metrics line %d: %w", lineNo, err)
		}
		e.Samples = append(e.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading metrics: %w", err)
	}
	return e, nil
}

func parseSampleLine(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	nameEnd := strings.IndexAny(line, "{ \t")
	if nameEnd <= 0 {
		return s, fmt.Errorf("malformed series %q", line)
	}
	s.Name = line[:nameEnd]
	rest := line[nameEnd:]
	if rest[0] == '{' {
		end := -1
		// Find the closing brace outside any quoted value.
		inQuote := false
		for i := 1; i < len(rest); i++ {
			switch {
			case inQuote && rest[i] == '\\':
				i++ // skip the escaped byte
			case rest[i] == '"':
				inQuote = !inQuote
			case !inQuote && rest[i] == '}':
				end = i
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated label block in %q", line)
		}
		if err := parseLabels(rest[1:end], s.Labels); err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		rest = rest[end+1:]
	}
	valStr := strings.TrimSpace(rest)
	// A timestamp suffix would appear as a second field; the daemon
	// never writes one, so a remaining space is a malformed line.
	if valStr == "" || strings.ContainsAny(valStr, " \t") {
		return s, fmt.Errorf("malformed value %q", valStr)
	}
	v, err := strconv.ParseFloat(valStr, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", valStr, err)
	}
	s.Value = v
	return s, nil
}

func parseLabels(block string, into map[string]string) error {
	i := 0
	for i < len(block) {
		eq := strings.IndexByte(block[i:], '=')
		if eq < 0 {
			return fmt.Errorf("malformed label pair")
		}
		key := strings.TrimSpace(block[i : i+eq])
		i += eq + 1
		if i >= len(block) || block[i] != '"' {
			return fmt.Errorf("unquoted label value")
		}
		// Scan the quoted value, honouring backslash escapes, then
		// invert the writer's %q with strconv.Unquote.
		j := i + 1
		for j < len(block) {
			if block[j] == '\\' {
				j += 2
				continue
			}
			if block[j] == '"' {
				break
			}
			j++
		}
		if j >= len(block) {
			return fmt.Errorf("unterminated label value")
		}
		val, err := strconv.Unquote(block[i : j+1])
		if err != nil {
			return fmt.Errorf("bad label value %s: %v", block[i:j+1], err)
		}
		into[key] = val
		i = j + 1
		if i < len(block) && block[i] == ',' {
			i++
		}
	}
	return nil
}

// HistogramSeries is one histogram child reconstructed from parsed
// exposition: the label set (without le) and per-bucket counts over
// ascending bounds.
type HistogramSeries struct {
	Name   string
	Labels map[string]string // le excluded
	Bounds []float64         // finite bounds, ascending
	// Cumulative counts per finite bound, then the +Inf count last.
	Cumulative []uint64
	Sum        float64
	Count      uint64
}

// Deltas returns the per-bucket (non-cumulative) counts including the
// +Inf bucket, the form quantile estimation wants.
func (h HistogramSeries) Deltas() []uint64 {
	out := make([]uint64, len(h.Cumulative))
	prev := uint64(0)
	for i, c := range h.Cumulative {
		out[i] = c - prev
		prev = c
	}
	return out
}

// Snapshot converts the series to the same Snapshot form live
// histograms produce, so `top` can diff scrape-over-scrape with
// Snapshot.Sub and quantile the interval.
func (h HistogramSeries) Snapshot() Snapshot {
	return Snapshot{Bounds: h.Bounds, Counts: h.Deltas(), SumSeconds: h.Sum, Count: h.Count}
}

// Histograms reassembles every histogram family in the exposition from
// its _bucket/_sum/_count series, keyed by base name. Series order
// within a family follows first appearance.
func (e *Exposition) Histograms() map[string][]HistogramSeries {
	type key struct {
		name   string
		labels string
	}
	index := map[key]*HistogramSeries{}
	order := []key{}
	get := func(name string, labels map[string]string) *HistogramSeries {
		rest := make(map[string]string, len(labels))
		for k, v := range labels {
			if k != "le" {
				rest[k] = v
			}
		}
		k := key{name, canonicalLabels(rest)}
		h := index[k]
		if h == nil {
			h = &HistogramSeries{Name: name, Labels: rest}
			index[k] = h
			order = append(order, k)
		}
		return h
	}
	for _, s := range e.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			base := strings.TrimSuffix(s.Name, "_bucket")
			if e.Type[base] != "histogram" {
				continue
			}
			h := get(base, s.Labels)
			le := s.Labels["le"]
			if le == "+Inf" {
				h.Bounds = append(h.Bounds, math.Inf(1))
			} else {
				b, err := strconv.ParseFloat(le, 64)
				if err != nil {
					continue
				}
				h.Bounds = append(h.Bounds, b)
			}
			h.Cumulative = append(h.Cumulative, uint64(s.Value))
		case strings.HasSuffix(s.Name, "_sum"):
			base := strings.TrimSuffix(s.Name, "_sum")
			if e.Type[base] != "histogram" {
				continue
			}
			get(base, s.Labels).Sum = s.Value
		case strings.HasSuffix(s.Name, "_count"):
			base := strings.TrimSuffix(s.Name, "_count")
			if e.Type[base] != "histogram" {
				continue
			}
			get(base, s.Labels).Count = uint64(s.Value)
		}
	}
	out := map[string][]HistogramSeries{}
	for _, k := range order {
		h := index[k]
		// Sort buckets by bound and strip the +Inf bound so Bounds holds
		// finite bounds with the +Inf count last, matching Snapshot.
		sort.Sort(&bucketSorter{h.Bounds, h.Cumulative})
		if n := len(h.Bounds); n > 0 && math.IsInf(h.Bounds[n-1], 1) {
			h.Bounds = h.Bounds[:n-1]
		}
		out[h.Name] = append(out[h.Name], *h)
	}
	return out
}

type bucketSorter struct {
	bounds []float64
	counts []uint64
}

func (b *bucketSorter) Len() int           { return len(b.bounds) }
func (b *bucketSorter) Less(i, j int) bool { return b.bounds[i] < b.bounds[j] }
func (b *bucketSorter) Swap(i, j int) {
	b.bounds[i], b.bounds[j] = b.bounds[j], b.bounds[i]
	b.counts[i], b.counts[j] = b.counts[j], b.counts[i]
}

// MergedSnapshot sums every series of one histogram family into a
// single Snapshot — how `top` folds per-route or per-problem children
// into one overall latency distribution. The shared fixed bucket
// layout is what makes summation valid; series with mismatched bounds
// are skipped.
func MergedSnapshot(series []HistogramSeries) Snapshot {
	var out Snapshot
	for _, h := range series {
		s := h.Snapshot()
		if out.Bounds == nil {
			out.Bounds = s.Bounds
			out.Counts = make([]uint64, len(s.Counts))
		}
		if len(s.Counts) != len(out.Counts) {
			continue
		}
		for i, c := range s.Counts {
			out.Counts[i] += c
		}
		out.SumSeconds += s.SumSeconds
		out.Count += s.Count
	}
	return out
}

// canonicalLabels renders a label set as a sorted, unambiguous key.
func canonicalLabels(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	return b.String()
}

// ValidateExposition checks the invariants the service-smoke gate
// enforces on a /metrics scrape:
//
//   - every sample's family has # HELP and # TYPE comments
//     (histogram sub-series resolve to their base family);
//   - within each histogram series, _bucket counts are
//     cumulative-monotone in ascending bound order;
//   - every histogram series has an le="+Inf" bucket and its count
//     equals the series' _count.
//
// It returns every violation found, not just the first.
func ValidateExposition(e *Exposition) []error {
	var errs []error
	seen := map[string]bool{}
	for _, s := range e.Samples {
		fam := s.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(s.Name, suffix)
			if base != s.Name && e.Type[base] == "histogram" {
				fam = base
				break
			}
		}
		if seen[fam] {
			continue
		}
		seen[fam] = true
		if _, ok := e.Help[fam]; !ok {
			errs = append(errs, fmt.Errorf("series %s: family %s has no # HELP", s.Name, fam))
		}
		if _, ok := e.Type[fam]; !ok {
			errs = append(errs, fmt.Errorf("series %s: family %s has no # TYPE", s.Name, fam))
		}
	}
	for name, series := range e.Histograms() {
		for _, h := range series {
			label := fmt.Sprintf("%s{%s}", name, canonicalLabels(h.Labels))
			prev := uint64(0)
			for i, c := range h.Cumulative {
				if c < prev {
					errs = append(errs, fmt.Errorf("%s: bucket %d count %d below previous %d (not cumulative-monotone)", label, i, c, prev))
				}
				prev = c
			}
			if n := len(h.Cumulative); n == 0 || len(h.Bounds) != n-1 {
				// After sorting, Bounds holds the finite bounds and the
				// last Cumulative entry must be the +Inf bucket.
				errs = append(errs, fmt.Errorf("%s: missing le=\"+Inf\" bucket", label))
				continue
			}
			if inf := h.Cumulative[len(h.Cumulative)-1]; inf != h.Count {
				errs = append(errs, fmt.Errorf("%s: le=\"+Inf\" bucket %d != _count %d", label, inf, h.Count))
			}
		}
	}
	return errs
}
