package mpc

import (
	"errors"
	"reflect"
	"testing"

	"mpcgraph/internal/model"
)

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(Config{Machines: 0}); err == nil {
		t.Error("zero machines accepted")
	}
	if _, err := NewCluster(Config{Machines: 2, CapacityWords: -1}); err == nil {
		t.Error("negative capacity accepted")
	}
	c, err := NewCluster(Config{Machines: 3, CapacityWords: 100})
	if err != nil || c.Machines() != 3 {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestExchangeDelivery(t *testing.T) {
	c, _ := NewCluster(Config{Machines: 3})
	out := make([][]Message, 3)
	out[0] = []Message{{To: 1, Words: 2, Payload: "a"}, {To: 2, Words: 3, Payload: "b"}}
	out[2] = []Message{{To: 1, Words: 5, Payload: "c"}}
	in, err := c.Exchange(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(in[0]) != 0 || len(in[1]) != 2 || len(in[2]) != 1 {
		t.Fatalf("delivery counts wrong: %d %d %d", len(in[0]), len(in[1]), len(in[2]))
	}
	if in[1][0].Payload != "a" || in[1][0].From != 0 {
		t.Errorf("first message to 1 = %+v", in[1][0])
	}
	if in[1][1].Payload != "c" || in[1][1].From != 2 {
		t.Errorf("second message to 1 = %+v", in[1][1])
	}
	m := c.Metrics()
	if m.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", m.Rounds)
	}
	if m.TotalWords != 10 {
		t.Errorf("total words = %d, want 10", m.TotalWords)
	}
	if m.MaxOutWords != 5 || m.MaxInWords != 7 {
		t.Errorf("max out/in = %d/%d, want 5/7", m.MaxOutWords, m.MaxInWords)
	}
}

func TestExchangeRejectsBadDestination(t *testing.T) {
	c, _ := NewCluster(Config{Machines: 2})
	if _, err := c.Exchange([][]Message{{{To: 5, Words: 1}}, nil}); err == nil {
		t.Error("invalid destination accepted")
	}
	if _, err := c.Exchange([][]Message{{{To: 0, Words: -1}}, nil}); err == nil {
		t.Error("negative words accepted")
	}
	if _, err := c.Exchange([][]Message{nil}); err == nil {
		t.Error("wrong outbox count accepted")
	}
}

func TestStrictCapacityInbox(t *testing.T) {
	c, _ := NewCluster(Config{Machines: 2, CapacityWords: 10, Strict: true})
	out := make([][]Message, 2)
	out[0] = []Message{{To: 1, Words: 7}}
	out[1] = []Message{{To: 1, Words: 7}}
	_, err := c.Exchange(out)
	var capErr *CapacityError
	if !errors.As(err, &capErr) {
		t.Fatalf("expected CapacityError, got %v", err)
	}
	if capErr.Machine != 1 || capErr.Dir != "in" || capErr.Words != 14 {
		t.Errorf("capacity error = %+v", capErr)
	}
}

func TestStrictCapacityOutbox(t *testing.T) {
	c, _ := NewCluster(Config{Machines: 2, CapacityWords: 10, Strict: true})
	out := make([][]Message, 2)
	out[0] = []Message{{To: 1, Words: 6}, {To: 0, Words: 6}}
	_, err := c.Exchange(out)
	var capErr *CapacityError
	if !errors.As(err, &capErr) {
		t.Fatalf("expected CapacityError, got %v", err)
	}
	if capErr.Dir != "out" || capErr.Machine != 0 {
		t.Errorf("capacity error = %+v", capErr)
	}
	if capErr.Error() == "" {
		t.Error("empty error string")
	}
}

func TestNonStrictRecordsViolations(t *testing.T) {
	c, _ := NewCluster(Config{Machines: 2, CapacityWords: 5})
	out := make([][]Message, 2)
	out[0] = []Message{{To: 1, Words: 9}}
	if _, err := c.Exchange(out); err != nil {
		t.Fatalf("non-strict mode errored: %v", err)
	}
	if v := c.Metrics().Violations; v != 2 { // outbox of 0 and inbox of 1
		t.Errorf("violations = %d, want 2", v)
	}
}

func TestUnlimitedCapacity(t *testing.T) {
	c, _ := NewCluster(Config{Machines: 2, CapacityWords: 0, Strict: true})
	out := make([][]Message, 2)
	out[0] = []Message{{To: 1, Words: 1 << 40}}
	if _, err := c.Exchange(out); err != nil {
		t.Errorf("unlimited capacity errored: %v", err)
	}
}

// TestChargeBroadcast pins what a broadcast charges: two rounds, words·M
// total words, words as every machine's inbox (the source's fan-out is
// not an outbox load) and one trace event of words·M.
func TestChargeBroadcast(t *testing.T) {
	var events []model.TraceEvent
	c, _ := NewCluster(Config{Machines: 5, CapacityWords: 100, Strict: true,
		Trace: func(ev model.TraceEvent) { events = append(events, ev) }})
	out, in := c.Loads()
	out[1], in[2] = 11, 11
	if err := c.ChargeLoads(out, in); err != nil {
		t.Fatal(err)
	}
	c.SetActive(4)
	if err := c.ChargeBroadcast(7); err != nil {
		t.Fatal(err)
	}
	want := Metrics{Rounds: 3, MaxInWords: 11, MaxOutWords: 11, TotalWords: 11 + 35}
	if m := c.Metrics(); m != want {
		t.Errorf("metrics = %+v, want %+v", m, want)
	}
	if err := c.ChargeBroadcast(13); err != nil {
		t.Fatal(err)
	}
	want = Metrics{Rounds: 5, MaxInWords: 13, MaxOutWords: 11, TotalWords: 11 + 35 + 65}
	if m := c.Metrics(); m != want {
		t.Errorf("metrics = %+v, want %+v", m, want)
	}
	wantEvents := []model.TraceEvent{
		{Round: 1, LiveWords: 11},
		{Round: 3, LiveWords: 35, ActiveVertices: 4},
		{Round: 5, LiveWords: 65, ActiveVertices: 4},
	}
	if !reflect.DeepEqual(events, wantEvents) {
		t.Errorf("events = %+v, want %+v", events, wantEvents)
	}
}

// TestBroadcastOverflow: a payload over the capacity fails a strict
// broadcast on machine 0's inbox and costs one violation per machine
// otherwise.
func TestBroadcastOverflow(t *testing.T) {
	c, _ := NewCluster(Config{Machines: 3, CapacityWords: 5, Strict: true})
	err := c.ChargeBroadcast(9)
	want := &CapacityError{Machine: 0, Round: 2, Words: 9, Capacity: 5, Dir: "in"}
	var ce *CapacityError
	if !errors.As(err, &ce) || *ce != *want {
		t.Errorf("err = %v, want %v", err, want)
	}
	if m := c.Metrics(); m != (Metrics{Rounds: 2, MaxInWords: 9, TotalWords: 27, Violations: 3}) {
		t.Errorf("metrics after a strict overflow = %+v", m)
	}
	lax, _ := NewCluster(Config{Machines: 3, CapacityWords: 5})
	if err := lax.ChargeBroadcast(9); err != nil {
		t.Fatalf("non-strict overflow errored: %v", err)
	}
	if v := lax.Metrics().Violations; v != 3 {
		t.Errorf("violations = %d, want 3", v)
	}
}

func TestMultiRoundAccounting(t *testing.T) {
	c, _ := NewCluster(Config{Machines: 2})
	for r := 0; r < 5; r++ {
		out := make([][]Message, 2)
		out[0] = []Message{{To: 1, Words: 1}}
		if _, err := c.Exchange(out); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Metrics().Rounds; got != 5 {
		t.Errorf("rounds = %d, want 5", got)
	}
	if got := c.Metrics().TotalWords; got != 5 {
		t.Errorf("total = %d, want 5", got)
	}
}
