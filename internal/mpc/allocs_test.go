package mpc

import (
	"testing"

	"mpcgraph/internal/raceflag"
	"mpcgraph/internal/rng"
)

// TestRoutingAllocsCeiling pins the machine core's steady-state routing
// cost: after the first round has sized the pooled scratch (per-machine
// word tallies, shard cursors, outbox buckets), subsequent rounds on the
// same shape must run in a constant, near-zero number of allocations.
// This is the property the PR 9 daemon work bought — per-Solve scratch
// comes from a pool and round bodies reuse it — and the ceiling keeps a
// per-round make() from regressing it. A load charge, which builds no
// messages, must allocate nothing at all. Skipped under race.
func TestRoutingAllocsCeiling(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race runtime")
	}
	const machines = 256
	const fanout = 64
	c, err := NewCluster(Config{Machines: machines})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := make([][]Message, machines)
	for i := range out {
		for k := 0; k < fanout; k++ {
			to := int(rng.Hash(uint64(i), uint64(k)) % machines)
			if to == i {
				to = (to + 1) % machines
			}
			out[i] = append(out[i], Message{To: to, Words: 3})
		}
	}
	// Warm the scratch: the first rounds grow the pooled buffers.
	for i := 0; i < 3; i++ {
		if _, err := c.Exchange(out); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := c.Exchange(out); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 16
	if allocs > ceiling {
		t.Errorf("Exchange: %.0f allocs/op steady state, ceiling %d", allocs, ceiling)
	}

	// A load charge builds no messages: once Loads has sized its pooled
	// tallies, a round allocates nothing.
	charge := func() {
		sent, received := c.Loads()
		for i := range out {
			for _, msg := range out[i] {
				sent[i] += msg.Words
				received[msg.To] += msg.Words
			}
		}
		if err := c.ChargeLoads(sent, received); err != nil {
			t.Fatal(err)
		}
	}
	charge()
	if allocs = testing.AllocsPerRun(10, charge); allocs > 0 {
		t.Errorf("ChargeLoads: %.0f allocs/op steady state, ceiling 0", allocs)
	}
}
