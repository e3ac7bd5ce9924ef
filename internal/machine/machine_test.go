package machine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mpcgraph/internal/model"
)

func testCore(nodes int, strict bool) *Core {
	c := NewCore(Config{Nodes: nodes, Strict: strict, Name: "test", Unit: "node"})
	return &c
}

func pairSpec(budget int64) RouteSpec {
	return RouteSpec{
		Rounds:     1,
		Verb:       "sent",
		ForbidSelf: true,
		PairBudget: budget,
		PairErr: func(round, from, to int, words, budget int64) error {
			return fmt.Errorf("round %d: pair (%d,%d) carries %d words, budget %d", round, from, to, words, budget)
		},
	}
}

// TestRoutePairTalliesSurviveAbortedRound: a round aborted mid-sender by
// a malformed message must not leak its partial pair tallies into later
// rounds.
func TestRoutePairTalliesSurviveAbortedRound(t *testing.T) {
	c := testCore(4, false)
	// Sender 0 tallies one word to node 3, then aborts the round on an
	// invalid destination.
	bad := make([][]Message, 4)
	bad[0] = []Message{{To: 3, Words: 1}, {To: 99, Words: 1}}
	if _, err := c.Route(bad, pairSpec(1)); err == nil {
		t.Fatal("invalid destination accepted")
	}
	// A budget-compliant round must now pass cleanly: one word on the
	// same ordered pair is within budget 1.
	good := make([][]Message, 4)
	good[0] = []Message{{To: 3, Words: 1}}
	if _, err := c.Route(good, pairSpec(1)); err != nil {
		t.Fatalf("clean round failed after aborted round: %v", err)
	}
	if v := c.Metrics().Violations; v != 0 {
		t.Errorf("spurious violations recorded: %d", v)
	}
}

// TestRoutePairBudgetStillEnforced: the per-sender zeroing must not
// relax the budget within one round.
func TestRoutePairBudgetStillEnforced(t *testing.T) {
	c := testCore(3, true)
	out := make([][]Message, 3)
	out[0] = []Message{{To: 1, Words: 1}, {To: 1, Words: 1}}
	if _, err := c.Route(out, pairSpec(1)); err == nil {
		t.Fatal("pair budget violation accepted")
	}
	if v := c.Metrics().Violations; v != 1 {
		t.Errorf("violations = %d, want 1", v)
	}
}

// TestRouteDeliveryOrderAndMetrics pins the routing contract: delivery
// ordered by sender then submission order, From stamped, loads audited.
func TestRouteDeliveryOrderAndMetrics(t *testing.T) {
	c := testCore(3, false)
	out := make([][]Message, 3)
	out[2] = []Message{{To: 1, Words: 2, Payload: "late"}}
	out[0] = []Message{{To: 1, Words: 1, Payload: "early"}, {To: 0, Words: 3}}
	in, err := c.Route(out, RouteSpec{Rounds: 1, Verb: "sent"})
	if err != nil {
		t.Fatal(err)
	}
	if len(in[1]) != 2 || in[1][0].Payload != "early" || in[1][1].Payload != "late" {
		t.Fatalf("delivery order wrong: %+v", in[1])
	}
	if in[1][0].From != 0 || in[1][1].From != 2 {
		t.Fatalf("From not stamped: %+v", in[1])
	}
	m := c.Metrics()
	if m.Rounds != 1 || m.TotalWords != 6 || m.MaxOutWords != 4 || m.MaxInWords != 3 {
		t.Errorf("metrics = %+v", m)
	}
}

// TestRouteAuditViolations: the per-node audit counts one violation per
// violating direction and returns the first error in strict mode while
// completing the metrics.
func TestRouteAuditViolations(t *testing.T) {
	audit := func(round, node int, words int64, in bool) error {
		if words > 2 {
			return fmt.Errorf("node %d over", node)
		}
		return nil
	}
	c := testCore(2, true)
	out := make([][]Message, 2)
	out[0] = []Message{{To: 1, Words: 5}}
	_, err := c.Route(out, RouteSpec{Rounds: 1, Verb: "sent", Audit: audit})
	if err == nil {
		t.Fatal("audit violation accepted in strict mode")
	}
	m := c.Metrics()
	if m.Violations != 2 { // outbox of 0 and inbox of 1
		t.Errorf("violations = %d, want 2", m.Violations)
	}
	if m.Rounds != 1 || m.TotalWords != 5 {
		t.Errorf("metrics not committed before strict failure: %+v", m)
	}
}

// TestRouteCancellation: a cancelled context aborts before charging.
func TestRouteCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewCore(Config{Nodes: 2, Ctx: ctx, Name: "test", Unit: "node"})
	if _, err := c.Route(make([][]Message, 2), RouteSpec{Rounds: 1, Verb: "sent"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c.Metrics().Rounds != 0 {
		t.Error("round charged despite cancellation")
	}
}

// tracedCore is testCore with every trace event appended to events.
func tracedCore(nodes int, strict bool, events *[]model.TraceEvent) *Core {
	c := NewCore(Config{Nodes: nodes, Strict: strict, Name: "test", Unit: "node",
		Trace: func(ev model.TraceEvent) { *events = append(*events, ev) }})
	return &c
}

// TestRouteMalformedAfterPairViolation: a malformed message aborts the
// step even when an earlier sender already went over its pair budget.
// The malformed-message error wins, the pair violation is not counted,
// no volume is committed and no trace event is emitted, but the round
// still counts.
func TestRouteMalformedAfterPairViolation(t *testing.T) {
	for _, strict := range []bool{false, true} {
		var events []model.TraceEvent
		c := tracedCore(4, strict, &events)
		out := make([][]Message, 4)
		out[0] = []Message{{To: 1, Words: 1}, {To: 1, Words: 1}}
		out[3] = []Message{{To: 7, Words: 1}}
		_, err := c.Route(out, pairSpec(1))
		if want := "test: node 3 sent to invalid node 7"; err == nil || err.Error() != want {
			t.Fatalf("strict=%v: err = %v, want %q", strict, err, want)
		}
		if m := c.Metrics(); m != (Metrics{Rounds: 1}) {
			t.Errorf("strict=%v: metrics = %+v, want only the round", strict, m)
		}
		if len(events) != 0 {
			t.Errorf("strict=%v: %d trace events, want none", strict, len(events))
		}
	}
}

// TestRoutePairViolationsTwoSenders: every message that lands over its
// pair's budget counts one violation, and the error names the lowest
// violating sender.
func TestRoutePairViolationsTwoSenders(t *testing.T) {
	c := testCore(4, true)
	out := make([][]Message, 4)
	out[2] = []Message{{To: 0, Words: 1}, {To: 0, Words: 1}, {To: 0, Words: 1}} // two over
	out[1] = []Message{{To: 3, Words: 1}, {To: 3, Words: 1}}                    // one over
	_, err := c.Route(out, pairSpec(1))
	if want := "round 1: pair (1,3) carries 2 words, budget 1"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if m := c.Metrics(); m.Violations != 3 || m.TotalWords != 5 || m.Rounds != 1 {
		t.Errorf("metrics = %+v, want 3 violations over 5 words in 1 round", m)
	}
}

// TestRoutePairAndAuditInOneStep: when a strict step breaks both a pair
// budget and a node audit, the pair error is returned and every
// violation is counted.
func TestRoutePairAndAuditInOneStep(t *testing.T) {
	spec := pairSpec(1)
	spec.Audit = func(round, node int, words int64, in bool) error {
		if words > 2 {
			return fmt.Errorf("node %d over", node)
		}
		return nil
	}
	c := testCore(2, true)
	out := make([][]Message, 2)
	out[0] = []Message{{To: 1, Words: 1}, {To: 1, Words: 1}, {To: 1, Words: 1}}
	_, err := c.Route(out, spec)
	if want := "round 1: pair (0,1) carries 2 words, budget 1"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	// Two messages over the pair budget, node 0's outbox, node 1's inbox.
	if v := c.Metrics().Violations; v != 4 {
		t.Errorf("violations = %d, want 4", v)
	}
}

// TestRouteTraceEventPerStep: every step emits exactly one trace event
// carrying its volume, a strict step that fails its audits included.
func TestRouteTraceEventPerStep(t *testing.T) {
	var events []model.TraceEvent
	c := tracedCore(3, true, &events)
	audit := func(round, node int, words int64, in bool) error {
		if words > 4 {
			return fmt.Errorf("node %d over", node)
		}
		return nil
	}
	spec := RouteSpec{Rounds: 2, Verb: "routes", Audit: audit}
	out := make([][]Message, 3)
	out[0] = []Message{{To: 1, Words: 3}}
	c.SetActive(9)
	if _, err := c.Route(out, spec); err != nil {
		t.Fatal(err)
	}
	out[2] = []Message{{To: 1, Words: 2}}
	if _, err := c.Route(out, spec); err == nil {
		t.Fatal("audit violation accepted in strict mode")
	}
	want := []model.TraceEvent{
		{Round: 2, LiveWords: 3, ActiveVertices: 9},
		{Round: 4, LiveWords: 5, ActiveVertices: 9},
	}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("events = %+v, want %+v", events, want)
	}
}

// TestRouteStampsFromAndLeavesEmptyInboxesNil: Route overwrites any From
// the caller set, and a node that receives nothing gets a nil inbox.
func TestRouteStampsFromAndLeavesEmptyInboxesNil(t *testing.T) {
	c := testCore(4, false)
	out := make([][]Message, 4)
	out[1] = []Message{{From: 7, To: 0, Words: 1}}
	out[3] = []Message{{From: 3, To: 0, Words: 1}, {From: -1, To: 2, Words: 1}}
	in, err := c.Route(out, RouteSpec{Rounds: 1, Verb: "sent"})
	if err != nil {
		t.Fatal(err)
	}
	if len(in[0]) != 2 || in[0][0].From != 1 || in[0][1].From != 3 || len(in[2]) != 1 || in[2][0].From != 3 {
		t.Errorf("From not stamped with the sender: %+v", in)
	}
	if in[1] != nil || in[3] != nil {
		t.Errorf("empty inboxes = %#v, %#v, want nil", in[1], in[3])
	}
}

// TestRouteMalformedErrorText pins the full text of the three
// malformed-message errors.
func TestRouteMalformedErrorText(t *testing.T) {
	for _, tc := range []struct {
		spec RouteSpec
		msg  Message
		from int
		want string
	}{
		{pairSpec(1), Message{To: 9, Words: 1}, 0, "test: node 0 sent to invalid node 9"},
		{RouteSpec{Rounds: 2, Verb: "routes"}, Message{To: -1, Words: 1}, 2, "test: node 2 routes to invalid node -1"},
		{pairSpec(1), Message{To: 1, Words: 1}, 1, "test: node 1 sent to itself"},
		{pairSpec(1), Message{To: 0, Words: -1}, 1, "test: node 1 sent negative-size message"},
		{RouteSpec{Rounds: 2, Verb: "routes"}, Message{To: 0, Words: -2}, 2, "test: node 2 routes negative-size message"},
	} {
		c := testCore(3, false)
		out := make([][]Message, 3)
		out[tc.from] = []Message{tc.msg}
		if _, err := c.Route(out, tc.spec); err == nil || err.Error() != tc.want {
			t.Errorf("err = %v, want %q", err, tc.want)
		}
	}
	c := testCore(3, false)
	if _, err := c.Route(make([][]Message, 2), pairSpec(1)); err == nil || err.Error() != "test: routing got 2 outboxes for 3 nodes" {
		t.Errorf("short outbox set: err = %v", err)
	}
}
