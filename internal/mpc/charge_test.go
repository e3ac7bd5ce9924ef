package mpc

import (
	"errors"
	"reflect"
	"testing"

	"mpcgraph/internal/model"
	"mpcgraph/internal/rng"
)

// TestChargeLoadsMatchesExchange: charging a round from its per-machine
// loads must account exactly as exchanging the messages behind them —
// the same Metrics, the same trace events and, in strict mode, the same
// error — over sequences of random message sets in which machines go
// over capacity as senders, as receivers, both or neither.
func TestChargeLoadsMatchesExchange(t *testing.T) {
	const machines = 7
	const capacity = 60
	src := rng.New(19)
	var outOver, inOver int
	strictErrs := map[string]int{} // by the direction of the first violation
	for _, strict := range []bool{false, true} {
		for trial := 0; trial < 40; trial++ {
			var exEvents, ldEvents []model.TraceEvent
			cfg := Config{Machines: machines, CapacityWords: capacity, Strict: strict,
				Trace: func(ev model.TraceEvent) { exEvents = append(exEvents, ev) }}
			ex, _ := NewCluster(cfg)
			cfg.Trace = func(ev model.TraceEvent) { ldEvents = append(ldEvents, ev) }
			ld, _ := NewCluster(cfg)
			for round := 0; round < 4; round++ {
				out := make([][]Message, machines)
				sent, received := make([]int64, machines), make([]int64, machines)
				// A heavy sender or receiver takes more and larger
				// messages, which pushes it past the capacity.
				heavyOut, heavyIn := src.Intn(2*machines), src.Intn(2*machines)
				for i := range out {
					for k := src.Intn(5); k > 0; k-- {
						to := src.Intn(machines)
						if src.Intn(3) == 0 {
							to = heavyIn % machines
						}
						w := int64(src.Intn(20))
						if i == heavyOut {
							w *= 4
						}
						out[i] = append(out[i], Message{To: to, Words: w})
						sent[i] += w
						received[to] += w
					}
				}
				for i := 0; i < machines; i++ {
					if sent[i] > capacity {
						outOver++
					}
					if received[i] > capacity {
						inOver++
					}
				}
				ex.SetActive(round)
				ld.SetActive(round)
				_, exErr := ex.Exchange(out)
				loadOut, loadIn := ld.Loads()
				copy(loadOut, sent)
				copy(loadIn, received)
				ldErr := ld.ChargeLoads(loadOut, loadIn)
				if !reflect.DeepEqual(exErr, ldErr) {
					t.Fatalf("strict=%v trial %d round %d: errors diverge: Exchange %v, ChargeLoads %v", strict, trial, round, exErr, ldErr)
				}
				var ce *CapacityError
				if errors.As(exErr, &ce) {
					strictErrs[ce.Dir]++
				}
				if ex.Metrics() != ld.Metrics() {
					t.Fatalf("strict=%v trial %d round %d: metrics diverge:\nExchange    %+v\nChargeLoads %+v", strict, trial, round, ex.Metrics(), ld.Metrics())
				}
			}
			if !reflect.DeepEqual(exEvents, ldEvents) {
				t.Fatalf("strict=%v trial %d: trace events diverge:\nExchange    %+v\nChargeLoads %+v", strict, trial, exEvents, ldEvents)
			}
		}
	}
	if outOver < 10 || inOver < 10 || strictErrs["out"] < 3 || strictErrs["in"] < 3 {
		t.Fatalf("%d sender and %d receiver loads went over capacity, failing %d and %d strict rounds: too few to test the audits",
			outOver, inOver, strictErrs["out"], strictErrs["in"])
	}
}

func TestChargeLoadsRejectsMalformedLoads(t *testing.T) {
	c, _ := NewCluster(Config{Machines: 2})
	for _, tc := range []struct {
		name    string
		out, in []int64
	}{
		{"short", []int64{1}, []int64{0, 1}},
		{"negative", []int64{-1, 1}, []int64{0, 0}},
		{"unbalanced", []int64{2, 1}, []int64{0, 1}},
	} {
		if err := c.ChargeLoads(tc.out, tc.in); err == nil {
			t.Errorf("%s loads accepted", tc.name)
		}
	}
	if m := c.Metrics(); m != (Metrics{}) {
		t.Errorf("rejected loads were charged: %+v", m)
	}
}
