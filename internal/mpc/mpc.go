// Package mpc simulates the Massively Parallel Computation model of
// Karloff, Suri and Vassilvitskii [KSV10] as used by the paper: m machines
// with S words of memory each proceed in synchronous rounds; within a
// round each machine computes locally, then machines exchange messages,
// and every machine's sent and received data must fit in its memory.
//
// The simulator does not execute machine code; algorithms drive it by
// charging, once per round, the words each machine sends and receives
// (ChargeLoads), or a broadcast of one payload to every machine
// (ChargeBroadcast). In return the simulator counts rounds, audits
// per-machine loads against the capacity S, and accumulates
// communication totals. Round and space claims from the paper therefore
// become checkable outputs instead of assumptions: an algorithm that
// overflows a machine fails loudly in strict mode.
//
// The accounting lives in internal/machine; this package is the MPC
// charge policy over that core: per-machine in/out loads audited against
// the memory capacity S.
package mpc

import (
	"context"
	"errors"
	"fmt"

	"mpcgraph/internal/machine"
	"mpcgraph/internal/model"
)

// Config describes a cluster.
type Config struct {
	// Machines is the number of machines m. Must be positive.
	Machines int
	// CapacityWords is the per-machine memory S in machine words.
	// Zero means unlimited (useful for tests of the algorithms alone).
	CapacityWords int64
	// Strict makes capacity violations fail the offending operation.
	// When false, violations are only recorded in Metrics.
	Strict bool
	// Ctx, when non-nil, is checked at the start of every round-charging
	// operation; a cancelled context aborts the operation with ctx.Err(),
	// making long simulated runs cancellable between rounds.
	Ctx context.Context
	// Trace, when non-nil, receives one TraceEvent per metered
	// communication step (ChargeLoads emits one event; ChargeBroadcast
	// emits one event covering its two rounds). Tracing never changes
	// results, metrics or errors.
	Trace model.TraceFunc
}

// Metrics aggregates everything the model cares about over the lifetime of
// a cluster.
type Metrics struct {
	// Rounds is the number of communication rounds executed.
	Rounds int
	// MaxInWords is the largest per-round inbox of any machine.
	MaxInWords int64
	// MaxOutWords is the largest per-round outbox of any machine.
	MaxOutWords int64
	// TotalWords is the total communication volume across all rounds.
	TotalWords int64
	// Violations counts capacity violations observed (non-strict mode).
	Violations int
}

// CapacityError reports a machine exceeding its memory in some round.
type CapacityError struct {
	Machine  int
	Round    int
	Words    int64
	Capacity int64
	Dir      string // "in" or "out"
}

// Error implements the error interface.
func (e *CapacityError) Error() string {
	return fmt.Sprintf("mpc: machine %d %sbox %d words exceeds capacity %d in round %d",
		e.Machine, e.Dir, e.Words, e.Capacity, e.Round)
}

// Cluster is a simulated MPC deployment. The model is bulk-synchronous,
// so drive rounds from one goroutine.
type Cluster struct {
	cfg  Config
	core machine.Core
}

// NewCluster validates cfg and returns a fresh cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Machines <= 0 {
		return nil, errors.New("mpc: need at least one machine")
	}
	if cfg.CapacityWords < 0 {
		return nil, errors.New("mpc: negative capacity")
	}
	core := machine.NewCore(machine.Config{
		Nodes:  cfg.Machines,
		Strict: cfg.Strict,
		Ctx:    cfg.Ctx,
		Trace:  cfg.Trace,
		Name:   "mpc",
		Unit:   "machine",
	})
	return &Cluster{cfg: cfg, core: core}, nil
}

// Metrics returns a snapshot of the accumulated metrics.
func (c *Cluster) Metrics() Metrics {
	m := c.core.Metrics()
	return Metrics{
		Rounds:      m.Rounds,
		MaxInWords:  m.MaxInWords,
		MaxOutWords: m.MaxOutWords,
		TotalWords:  m.TotalWords,
		Violations:  m.Violations,
	}
}

// Machines returns the machine count m.
func (c *Cluster) Machines() int { return c.cfg.Machines }

// SetActive records the algorithm's current count of undecided vertices.
// The value is observational only: it rides along on TraceEvents so
// observers can correlate round costs with algorithmic progress.
func (c *Cluster) SetActive(vertices int) { c.core.SetActive(vertices) }

// Loads returns per-machine word tallies, zeroed, for callers that
// charge a round with ChargeLoads: out[i] for what machine i sends, in[j]
// for what machine j receives. The cluster reuses them, so they stay
// valid only until the next Loads call on this cluster.
func (c *Cluster) Loads() (out, in []int64) { return c.core.Loads() }

// audit is the MPC capacity policy: a per-round per-machine load above S
// (when S is bounded) is a violation.
func (c *Cluster) audit(round, machineID int, words int64, in bool) error {
	if c.cfg.CapacityWords == 0 || words <= c.cfg.CapacityWords {
		return nil
	}
	dir := "out"
	if in {
		dir = "in"
	}
	return &CapacityError{
		Machine:  machineID,
		Round:    round,
		Words:    words,
		Capacity: c.cfg.CapacityWords,
		Dir:      dir,
	}
}

// ChargeBroadcast charges delivering one payload of words words from a
// machine to every machine. In a real deployment this is an O(1)-round
// broadcast tree ("standard techniques" in the paper); the simulator
// charges two rounds (up and down the tree), words per machine in total
// volume and one trace event, and audits every receiver's copy against
// S in machine order. The source's fan-out is not an outbox load: the
// tree splits it.
func (c *Cluster) ChargeBroadcast(words int64) error {
	if err := c.core.Interrupted(); err != nil {
		return err
	}
	c.core.AddRounds(2)
	c.core.Emit(words * int64(c.cfg.Machines))
	round := c.core.Rounds()
	var firstErr error
	for j := 0; j < c.cfg.Machines; j++ {
		c.core.AddTotal(words)
		c.core.ObserveIn(words)
		if err := c.audit(round, j, words, true); err != nil {
			c.core.Violation()
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if firstErr != nil && c.cfg.Strict {
		return firstErr
	}
	return nil
}

// ChargeLoads executes one round described by its per-machine loads:
// machine i sends out[i] words and machine j receives in[j]. It charges
// exactly what routing any message set with the same loads would: the
// round, the total volume, one trace event, then the outbox audits in
// machine order and the inbox audits, so metrics, trace events and
// strict-mode errors match (TestChargeLoadsMatchesExchange holds it to
// the reference router). The loads must be non-negative and balance (the
// same total sent as received).
func (c *Cluster) ChargeLoads(out, in []int64) error {
	m := c.cfg.Machines
	if len(out) != m || len(in) != m {
		return fmt.Errorf("mpc: ChargeLoads got %d out and %d in loads for %d machines", len(out), len(in), m)
	}
	var total, received int64
	for i := 0; i < m; i++ {
		if out[i] < 0 || in[i] < 0 {
			return fmt.Errorf("mpc: machine %d has a negative load", i)
		}
		total += out[i]
		received += in[i]
	}
	if total != received {
		return fmt.Errorf("mpc: ChargeLoads sends %d words but receives %d", total, received)
	}
	if err := c.core.Interrupted(); err != nil {
		return err
	}
	c.core.AddRounds(1)
	c.core.AddTotal(total)
	c.core.Emit(total)
	round := c.core.Rounds()
	var firstErr error
	charge := func(loads []int64, inbox bool) {
		for i, w := range loads {
			if inbox {
				c.core.ObserveIn(w)
			} else {
				c.core.ObserveOut(w)
			}
			if err := c.audit(round, i, w, inbox); err != nil {
				c.core.Violation()
				if firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	charge(out, false)
	charge(in, true)
	if firstErr != nil && c.cfg.Strict {
		return firstErr
	}
	return nil
}
