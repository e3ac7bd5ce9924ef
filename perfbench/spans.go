package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"sync"
	"time"

	"mpcgraph"
)

// span is one timed call into a layer, as written to the span file.
// Times are microseconds from the start of the traced window.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for an op's root span
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"startUs"`
	End    float64 `json:"endUs"`
	Self   float64 `json:"selfUs"` // End-Start minus the time its children cover
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: us(start.Sub(t.t0)), End: us(end.Sub(t.t0))})
	return id
}

// reserve allocates an id for a span whose children finish before it
// does; fill completes it.
func (t *tracer) reserve(op, parent int, name string) int {
	now := time.Now()
	return t.add(op, parent, name, now, now)
}

// fill sets the interval of a reserved span.
func (t *tracer) fill(id int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.Start, sp.End = us(start.Sub(t.t0)), us(end.Sub(t.t0))
}

// withSelfTimes returns the spans with Self filled in.
func (t *tracer) withSelfTimes() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	selfTimes(out)
	return out
}

// selfTimes sets each span's Self to its duration minus the union of its
// children's intervals clipped to it. Spans must be indexed by ID-1.
func selfTimes(spans []span) {
	children := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, curLo, curHi, open := 0.0, 0.0, 0.0, false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a <= curHi:
			curHi = max(curHi, b)
		default:
			total += curHi - curLo
			curLo, curHi = a, b
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes the span file as one JSON array.
func (t *tracer) writeSpans(path string) error {
	raw, err := json.Marshal(t.withSelfTimes())
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// roundStamp is one Options.Trace event: the cumulative round index
// and when the benchmark's callback saw it, as an offset from the start of
// the Solve call.
type roundStamp struct {
	Round int
	At    time.Duration
}

// unmetered is the stage family of host time no metered round accounts
// for: the work after the last round, and stages that charge no rounds.
const unmetered = "unmetered"

var familySuffix = regexp.MustCompile(`(-[0-9]+|@[0-9]+)$`)

// stageFamily drops a stage name's "-N" or "@N" instance suffix, so
// "invocation-3" and "prefix@512" aggregate as "invocation" and "prefix".
func stageFamily(name string) string { return familySuffix.ReplaceAllString(name, "") }

// stageSlice is the host time one Report stage took, rebuilt from the
// trace stamps of the rounds it charged.
type stageSlice struct {
	Name, Family string
	Start, End   time.Duration // first step's start, last step's stamp
	Busy         time.Duration // sum of its steps' durations
}

// attributeRounds maps trace stamps onto the report's stages. Stages
// cover contiguous round ranges in order, and each stamp closes one
// metered step, so a step's host time is the gap since the previous
// stamp and belongs to the stage whose range holds the stamp's round.
// Zero-round stages own no stamp and report nothing; the time after the
// last stamp, or of any stamp past the last stage, is the unmetered
// remainder of wall.
func attributeRounds(stages []mpcgraph.StageCost, stamps []roundStamp, wall time.Duration) (slices []stageSlice, rest time.Duration) {
	var attributed time.Duration
	k, hi := -1, 0 // current stage and its cumulative upper round bound
	prev := time.Duration(0)
	for _, st := range stamps {
		step := st.At - prev
		stepStart := prev
		prev = st.At
		for st.Round > hi && k+1 < len(stages) {
			k++
			hi += stages[k].Rounds
			if stages[k].Rounds > 0 {
				slices = append(slices, stageSlice{Name: stages[k].Name, Family: stageFamily(stages[k].Name), Start: stepStart})
			}
		}
		if st.Round > hi || len(slices) == 0 {
			continue // past the last stage: left to the remainder
		}
		cur := &slices[len(slices)-1]
		cur.Busy += step
		cur.End = st.At
		attributed += step
	}
	return slices, wall - attributed
}

// familyTimes sums stage slices per family, with the remainder under
// unmetered.
func familyTimes(slices []stageSlice, rest time.Duration) map[string]time.Duration {
	out := map[string]time.Duration{unmetered: rest}
	for _, s := range slices {
		out[s.Family] += s.Busy
	}
	return out
}

// tracedSolve runs Solve with a Trace callback that stamps every round,
// and returns the report, its wall time and the stamps. The callback
// runs synchronously on the round loop, so the stamps need no lock.
func tracedSolve(in mpcgraph.Instance, p mpcgraph.Problem, opts mpcgraph.Options) (*mpcgraph.Report, time.Duration, []roundStamp, error) {
	var stamps []roundStamp
	var start time.Time
	opts.Trace = func(ev mpcgraph.TraceEvent) {
		stamps = append(stamps, roundStamp{Round: ev.Round, At: time.Since(start)})
	}
	start = time.Now()
	rep, err := mpcgraph.Solve(context.Background(), in, p, opts)
	wall := time.Since(start)
	return rep, wall, stamps, err
}
