package mpc

import (
	"fmt"

	"mpcgraph/internal/machine"
)

// Message is one unit of communication. Words is the size of Payload in
// machine words as accounted by the model; the simulator trusts but
// records it. Payload is opaque to the simulator.
type Message = machine.Message

// Exchange executes one synchronous round with real messages through the
// core's reference router; TestChargeLoadsMatchesExchange holds
// ChargeLoads to it. out[i] holds the messages machine i emits; From
// fields are overwritten with i. The returned slice in[j] holds the
// messages delivered to machine j, ordered by sender then submission
// order, so delivery is deterministic.
//
// Per-machine outbox and inbox word totals are audited against S. In
// strict mode the first violation aborts the round with a
// *CapacityError; the round still counts (the machines did communicate —
// that the model was violated is the finding).
func (c *Cluster) Exchange(out [][]Message) ([][]Message, error) {
	if len(out) != c.cfg.Machines {
		return nil, fmt.Errorf("mpc: Exchange got %d outboxes for %d machines", len(out), c.cfg.Machines)
	}
	return c.core.Route(out, machine.RouteSpec{
		Rounds: 1,
		Verb:   "sent",
		Audit:  c.audit,
	})
}
