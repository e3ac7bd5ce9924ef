// Package machine is the metered execution core shared by every
// simulated computation model in this repository. One Core implements
// the machinery that is identical across models — round and volume
// accounting, per-node load observation, cumulative metrics, context
// cancellation, trace events and the SetActive progress gauge — while
// the model packages decide what a step costs: internal/mpc audits
// per-machine loads against a memory capacity, internal/congest audits
// per-pair budgets and Lenzen's routing limits.
//
// Every production charge is a load charge: the model package computes a
// step's per-node loads and folds them into the core with AddRounds,
// AddTotal, Emit, ObserveOut, ObserveIn and Violation, so no algorithm
// builds a message. Route is the one exception, a sequential message
// router that tests use as the reference those load charges are checked
// against; a per-step RouteSpec carries the semantics that differ
// between models.
//
// Algorithm packages never import machine directly — they drive the
// model packages, which all charge the same core. See docs/design.md for
// the architecture. A Core is driven from one goroutine, exactly like
// the bulk-synchronous models it meters.
package machine

import (
	"context"
	"fmt"

	"mpcgraph/internal/model"
)

// Message is one unit of simulated communication. Words is the size of
// Payload in machine words as accounted by the model; the core trusts
// but records it. Payload is opaque.
type Message struct {
	From    int
	To      int
	Words   int64
	Payload any
}

// Metrics aggregates the model costs a Core has accumulated. Model
// packages translate these into their own vocabulary (machines vs
// players).
type Metrics struct {
	// Rounds is the number of communication rounds executed, including
	// the constant-round charges of multi-round primitives.
	Rounds int
	// MaxInWords is the largest per-round receive volume of any node.
	MaxInWords int64
	// MaxOutWords is the largest per-round send volume of any node.
	MaxOutWords int64
	// TotalWords is the total communication volume across all rounds.
	TotalWords int64
	// Violations counts capacity/budget violations (in non-strict mode
	// they are recorded here instead of failing the operation).
	Violations int
}

// Config parameterizes a Core.
type Config struct {
	// Nodes is the number of machines or players. Must be positive
	// (validated by the owning model package).
	Nodes int
	// Strict makes violations fail the offending operation instead of
	// only being recorded in Metrics.
	Strict bool
	// Ctx, when non-nil, is checked at the start of every round-charging
	// operation; a cancelled context aborts with ctx.Err().
	Ctx context.Context
	// Trace, when non-nil, receives one TraceEvent per metered step.
	Trace model.TraceFunc
	// Name is the owning package's error prefix ("mpc", "congest").
	Name string
	// Unit is the model's noun for one node ("machine", "player").
	Unit string
}

// RouteSpec carries the per-step policy of one Route call — everything
// that distinguishes an MPC exchange from a clique round from a Lenzen
// routing invocation.
type RouteSpec struct {
	// Rounds is the model round cost of the step (1 for a plain
	// synchronous round, 2 for Lenzen's constant-round scheme).
	Rounds int
	// Verb is the malformed-message verb ("sent", "routes").
	Verb string
	// ForbidSelf rejects self-addressed messages (clique rounds).
	ForbidSelf bool
	// PairBudget, when positive, audits the volume each ordered
	// (sender, receiver) pair carries within one round; every message
	// that lands above the budget records one violation, and PairErr
	// builds the error for the first such message in sender order.
	PairBudget int64
	// PairErr builds the per-pair budget violation error. round is the
	// cumulative round count of the step.
	PairErr func(round, from, to int, words, budget int64) error
	// Audit, when non-nil, audits one node's per-round load (in=false
	// for the outbox, true for the inbox) after delivery. A non-nil
	// return records one violation; the first error in (all outboxes,
	// then all inboxes) order aborts the step when Strict.
	Audit func(round, node int, words int64, in bool) error
}

// Core is one metered network. Drive it from a single goroutine.
type Core struct {
	cfg    Config
	met    Metrics
	active int     // algorithm-reported undecided-vertex gauge
	loads  []int64 // out and in tallies of Loads, back to back, allocated on first use
}

// NewCore builds a core for cfg. The owning model package validates
// cfg.Nodes before calling.
func NewCore(cfg Config) Core {
	return Core{cfg: cfg}
}

// Metrics returns a snapshot of the accumulated metrics.
func (c *Core) Metrics() Metrics { return c.met }

// Rounds returns the cumulative round count.
func (c *Core) Rounds() int { return c.met.Rounds }

// SetActive records the algorithm's current count of undecided
// vertices. Observational only: it rides along on TraceEvents so
// observers can correlate round costs with algorithmic progress.
func (c *Core) SetActive(vertices int) { c.active = vertices }

// Interrupted returns the configured context's error, if any.
func (c *Core) Interrupted() error {
	if c.cfg.Ctx == nil {
		return nil
	}
	return c.cfg.Ctx.Err()
}

// AddRounds charges k model rounds.
func (c *Core) AddRounds(k int) { c.met.Rounds += k }

// AddTotal adds words to the cumulative communication volume.
func (c *Core) AddTotal(words int64) { c.met.TotalWords += words }

// ObserveOut folds one node's per-round send volume into the maximum.
func (c *Core) ObserveOut(words int64) {
	if words > c.met.MaxOutWords {
		c.met.MaxOutWords = words
	}
}

// ObserveIn folds one node's per-round receive volume into the maximum.
func (c *Core) ObserveIn(words int64) {
	if words > c.met.MaxInWords {
		c.met.MaxInWords = words
	}
}

// Violation records one capacity/budget violation.
func (c *Core) Violation() { c.met.Violations++ }

// Emit delivers one trace event for a step that moved words of volume,
// stamped with the current cumulative round count and active gauge.
func (c *Core) Emit(words int64) {
	if c.cfg.Trace != nil {
		c.cfg.Trace(model.TraceEvent{Round: c.met.Rounds, LiveWords: words, ActiveVertices: c.active})
	}
}

// Loads returns per-node word tallies, zeroed, for callers that charge a
// step from its loads instead of materializing its messages: out[i] for
// what node i sends, in[j] for what node j receives. The core reuses
// them, so they stay valid only until the next Loads call.
func (c *Core) Loads() (out, in []int64) {
	n := c.cfg.Nodes
	if c.loads == nil {
		c.loads = make([]int64, 2*n)
	} else {
		clear(c.loads)
	}
	return c.loads[:n:n], c.loads[n:]
}

// Route executes one metered communication step with real messages,
// sequentially. It is the reference the load charges are tested against;
// no production path calls it. It validates and tallies every
// outbox, commits the volume, emits one trace event, delivers the
// messages (ordered by sender, then submission order) and audits
// per-node loads per spec. out[i] holds the messages node i emits; From
// fields are overwritten with i. The returned in[j] holds the messages
// delivered to node j, nil if there are none.
//
// A malformed message aborts the step before anything but the round is
// charged; budget/capacity violations complete the step and, in strict
// mode, fail it afterwards — the nodes did communicate; that the model
// was violated is the finding.
func (c *Core) Route(out [][]Message, spec RouteSpec) ([][]Message, error) {
	n := c.cfg.Nodes
	if len(out) != n {
		return nil, fmt.Errorf("%s: routing got %d outboxes for %d %ss", c.cfg.Name, len(out), n, c.cfg.Unit)
	}
	if err := c.Interrupted(); err != nil {
		return nil, err
	}
	c.met.Rounds += spec.Rounds
	round := c.met.Rounds
	sent, received := make([]int64, n), make([]int64, n)
	pair := make([]int64, n) // the current sender's words per receiver
	var total int64
	var violations int
	var firstErr error
	for i, box := range out {
		for _, msg := range box {
			switch {
			case msg.To < 0 || msg.To >= n:
				return nil, fmt.Errorf("%s: %s %d %s to invalid %s %d", c.cfg.Name, c.cfg.Unit, i, spec.Verb, c.cfg.Unit, msg.To)
			case spec.ForbidSelf && msg.To == i:
				return nil, fmt.Errorf("%s: %s %d sent to itself", c.cfg.Name, c.cfg.Unit, i)
			case msg.Words < 0:
				return nil, fmt.Errorf("%s: %s %d %s negative-size message", c.cfg.Name, c.cfg.Unit, i, spec.Verb)
			}
			if spec.PairBudget > 0 {
				pair[msg.To] += msg.Words
				if pair[msg.To] > spec.PairBudget {
					violations++
					if firstErr == nil {
						firstErr = spec.PairErr(round, i, msg.To, pair[msg.To], spec.PairBudget)
					}
				}
			}
			sent[i] += msg.Words
			received[msg.To] += msg.Words
			total += msg.Words
		}
		for _, msg := range box {
			pair[msg.To] = 0
		}
	}
	c.met.TotalWords += total
	c.met.Violations += violations
	c.Emit(total)
	in := make([][]Message, n)
	for i, box := range out {
		for _, msg := range box {
			msg.From = i
			in[msg.To] = append(in[msg.To], msg)
		}
	}
	audit := func(loads []int64, inbox bool) {
		for i, w := range loads {
			if inbox {
				c.ObserveIn(w)
			} else {
				c.ObserveOut(w)
			}
			if spec.Audit == nil {
				continue
			}
			if err := spec.Audit(round, i, w, inbox); err != nil {
				c.met.Violations++
				if firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	audit(sent, false)
	audit(received, true)
	if firstErr != nil && c.cfg.Strict {
		return nil, firstErr
	}
	return in, nil
}
