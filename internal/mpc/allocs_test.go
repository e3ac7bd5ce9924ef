package mpc

import (
	"testing"

	"mpcgraph/internal/raceflag"
	"mpcgraph/internal/rng"
)

// TestRoutingAllocsCeiling pins the steady-state cost of the charges
// every production round goes through: once Loads has sized the
// cluster's load tallies, a round charged from its loads and a broadcast
// allocate nothing, so a per-round make() cannot creep into them.
// Skipped under race.
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
	charge := func() {
		sent, received := c.Loads()
		for i := 0; i < machines; i++ {
			for k := 0; k < fanout; k++ {
				to := int(rng.Hash(uint64(i), uint64(k)) % machines)
				sent[i] += 3
				received[to] += 3
			}
		}
		if err := c.ChargeLoads(sent, received); err != nil {
			t.Fatal(err)
		}
	}
	charge()
	if allocs := testing.AllocsPerRun(10, charge); allocs > 0 {
		t.Errorf("ChargeLoads: %.0f allocs/op steady state, ceiling 0", allocs)
	}
	broadcast := func() {
		if err := c.ChargeBroadcast(fanout); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(10, broadcast); allocs > 0 {
		t.Errorf("ChargeBroadcast: %.0f allocs/op, ceiling 0", allocs)
	}
}
