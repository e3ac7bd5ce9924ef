// Package machine is the metered execution core shared by every
// simulated computation model in this repository. One Core implements
// the machinery that is identical across models — the synchronous round
// loop, deterministic outbox-to-inbox routing, per-node load
// observation, cumulative metrics, context cancellation, trace events,
// the SetActive progress gauge, and Workers-bounded sharding — while a
// small per-step RouteSpec carries the semantics that differ between
// models: what counts as a malformed message, whether per-ordered-pair
// bandwidth budgets apply (CONGESTED-CLIQUE), and how per-node loads
// are audited against capacity (MPC) or routing limits (Lenzen).
//
// internal/mpc and internal/congest are thin policy instantiations of
// this core: they own their Config/Metrics vocabulary and error types,
// and delegate every metered step here. Algorithm packages never import
// machine directly — they drive the model packages, which all charge
// the same core. See docs/design.md for the architecture.
//
// # Determinism contract
//
// Routing fans out across Workers goroutines in contiguous shards
// merged in shard order, so inboxes (ordered by sender, then submission
// order), metrics and errors are bit-identical for every Workers
// setting. A Core is driven from one goroutine, exactly like the
// bulk-synchronous models it meters; the internal scratch reuse relies
// on that.
//
// # Allocation discipline
//
// The routing hot path reuses all tally scratch (per-shard inbox words,
// message counts, delivery cursors, per-pair budget tallies) across
// rounds, and delivers each round's messages out of a single flat arena
// allocation sliced per receiver, instead of one allocation per inbox.
// Charge-style callers take pooled outboxes from Outboxes, or pooled
// per-node load tallies from Loads.
package machine

import (
	"context"
	"fmt"
	"sync"

	"mpcgraph/internal/model"
	"mpcgraph/internal/par"
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
	// Workers bounds the goroutines used to process a round's outboxes
	// (0 = all cores, 1 = sequential).
	Workers int
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

// Core is one metered network. Drive it from a single goroutine; within
// a round it fans the per-node accounting out across Workers goroutines
// itself (nodes are independent inside a round, which is exactly the
// parallelism the models grant).
type Core struct {
	cfg    Config
	met    Metrics
	active int // algorithm-reported undecided-vertex gauge

	// Pooled routing scratch, reused across rounds. Sized once in
	// NewCore: the shard count is a pure function of (Workers, Nodes),
	// both fixed for the Core's lifetime.
	shards     int
	outWords   []int64
	inWords    []int64
	recvCnt    []int32
	shardIn    [][]int64
	shardCnt   [][]int32
	shardTotal []int64
	shardErr   []error
	shardAux   []error
	shardViol  []int
	pairWords  [][]int64 // lazily allocated per-shard pair tallies
	pairTouch  [][]int   // per-shard scratch listing the dirtied tallies
	outbox     [][]Message
	loads      []int64 // lazily allocated out and in tallies of Loads, back to back
	released   bool
}

// corePool recycles routing scratch across Cores. Solve-style callers
// build one network per job; without the pool, every job re-allocates
// the full O(shards × nodes) tally scratch just to drop it at job end.
// Release feeds a finished Core back; NewCore re-sizes whatever it
// gets, so pooled scratch survives changes in node or worker counts.
var corePool = sync.Pool{}

// grow returns s with length n, reusing its backing array when the
// capacity suffices. Contents are unspecified; every consumer either
// zeroes or fully overwrites its scratch per round.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// NewCore builds a core for cfg, reusing pooled routing scratch from a
// Released core when available. The owning model package validates
// cfg.Nodes before calling.
func NewCore(cfg Config) *Core {
	shards := par.ShardCount(cfg.Workers, cfg.Nodes)
	c, _ := corePool.Get().(*Core)
	if c == nil {
		c = &Core{}
	}
	n := cfg.Nodes
	*c = Core{
		cfg:        cfg,
		shards:     shards,
		outWords:   grow(c.outWords, n),
		inWords:    grow(c.inWords, n),
		recvCnt:    grow(c.recvCnt, n),
		shardIn:    grow(c.shardIn, shards),
		shardCnt:   grow(c.shardCnt, shards),
		shardTotal: grow(c.shardTotal, shards),
		shardErr:   grow(c.shardErr, shards),
		shardAux:   grow(c.shardAux, shards),
		shardViol:  grow(c.shardViol, shards),
		outbox:     c.outbox,
		loads:      c.loads,
		// pairWords/pairTouch stay lazily allocated: their shape depends
		// on the spec of the first budgeted Route, and only clique-style
		// callers ever need them.
	}
	if c.outbox != nil {
		// Keep pooled outboxes too; Outboxes() re-trims them per call and
		// Release cleared their contents.
		c.outbox = grow(c.outbox, n)
	}
	for w := 0; w < shards; w++ {
		c.shardIn[w] = grow(c.shardIn[w], n)
		c.shardCnt[w] = grow(c.shardCnt[w], n)
	}
	return c
}

// Release returns the Core's routing scratch to the pool. Callers that
// are done metering (job finished, cluster torn down) call it to let
// the next NewCore skip the scratch allocations; the Core must not be
// used afterwards. Release is idempotent and keeps no caller-visible
// state: pooled outboxes are cleared so no message Payload stays
// reachable through the pool.
func (c *Core) Release() {
	if c == nil || c.released {
		return
	}
	c.released = true
	for i := range c.outbox {
		b := c.outbox[i][:cap(c.outbox[i])]
		for k := range b {
			b[k] = Message{}
		}
		c.outbox[i] = c.outbox[i][:0]
	}
	c.cfg = Config{} // drop context and trace references
	corePool.Put(c)
}

// Nodes returns the node count.
func (c *Core) Nodes() int { return c.cfg.Nodes }

// Workers returns the configured worker bound.
func (c *Core) Workers() int { return c.cfg.Workers }

// Strict reports whether violations fail operations.
func (c *Core) Strict() bool { return c.cfg.Strict }

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

// Outboxes returns a pooled outbox set (one empty slice per node,
// capacity retained across calls) for charge-style callers that
// materialize synthetic messages every round. The contents are consumed
// by the next Route call on this core; callers must not retain them.
func (c *Core) Outboxes() [][]Message {
	if c.outbox == nil {
		c.outbox = make([][]Message, c.cfg.Nodes)
	}
	for i := range c.outbox {
		c.outbox[i] = c.outbox[i][:0]
	}
	return c.outbox
}

// Loads returns pooled per-node word tallies, zeroed, for charge-style
// callers that compute a step's loads instead of materializing its
// messages: out[i] for what node i sends, in[j] for what node j
// receives. They stay valid until the next Loads call on this core.
func (c *Core) Loads() (out, in []int64) {
	n := c.cfg.Nodes
	c.loads = grow(c.loads, 2*n)
	clear(c.loads)
	return c.loads[:n:n], c.loads[n:]
}

// Route executes one metered communication step: it validates and
// tallies every outbox, commits volume metrics, emits one trace event,
// delivers the messages (ordered by sender, then submission order), and
// audits per-node loads per spec. out[i] holds the messages node i
// emits; From fields are overwritten with i. The returned slice in[j]
// holds the messages delivered to node j.
//
// The per-node accounting fans out across Workers goroutines: each
// worker validates and tallies a contiguous shard of senders, the
// shard-order prefix sums fix every delivery slot, and a second
// parallel pass writes the inboxes in exactly the order the sequential
// loop would. Malformed messages abort the step (the round still
// counts); budget/capacity violations complete the step and, in strict
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
	shards := c.shards
	for w := 0; w < shards; w++ {
		c.shardTotal[w] = 0
		c.shardErr[w] = nil
		c.shardAux[w] = nil
		c.shardViol[w] = 0
	}
	if spec.PairBudget > 0 && c.pairWords == nil {
		c.pairWords = make([][]int64, shards)
		c.pairTouch = make([][]int, shards)
		for w := 0; w < shards; w++ {
			c.pairWords[w] = make([]int64, n)
			c.pairTouch[w] = make([]int, 0, 16)
		}
	}
	round := c.met.Rounds
	par.For(c.cfg.Workers, n, func(lo, hi, w int) {
		iw, cw := c.shardIn[w], c.shardCnt[w]
		for j := range iw {
			iw[j] = 0
			cw[j] = 0
		}
		// The pair budget only aggregates within one sender's box, so a
		// worker-local tally with per-sender reset suffices. A malformed
		// message aborts the worker mid-sender, so the pooled tally is
		// re-zeroed on entry — the per-sender resets keep it clean only
		// on complete rounds.
		var pw []int64
		var touched []int
		if spec.PairBudget > 0 {
			pw = c.pairWords[w]
			for j := range pw {
				pw[j] = 0
			}
			touched = c.pairTouch[w][:0]
		}
		for i := lo; i < hi; i++ {
			var ow int64
			for k := range out[i] {
				msg := &out[i][k]
				if msg.To < 0 || msg.To >= n {
					c.shardErr[w] = fmt.Errorf("%s: %s %d %s to invalid %s %d",
						c.cfg.Name, c.cfg.Unit, i, spec.Verb, c.cfg.Unit, msg.To)
					return
				}
				if spec.ForbidSelf && msg.To == i {
					c.shardErr[w] = fmt.Errorf("%s: %s %d sent to itself", c.cfg.Name, c.cfg.Unit, i)
					return
				}
				if msg.Words < 0 {
					c.shardErr[w] = fmt.Errorf("%s: %s %d %s negative-size message",
						c.cfg.Name, c.cfg.Unit, i, spec.Verb)
					return
				}
				if pw != nil {
					if pw[msg.To] == 0 {
						touched = append(touched, msg.To)
					}
					pw[msg.To] += msg.Words
					if pw[msg.To] > spec.PairBudget {
						c.shardViol[w]++
						if c.shardAux[w] == nil {
							c.shardAux[w] = spec.PairErr(round, i, msg.To, pw[msg.To], spec.PairBudget)
						}
					}
				}
				ow += msg.Words
				iw[msg.To] += msg.Words
				cw[msg.To]++
				c.shardTotal[w] += msg.Words
			}
			c.outWords[i] = ow
			if pw != nil {
				for _, t := range touched {
					pw[t] = 0
				}
				touched = touched[:0]
			}
		}
		if pw != nil {
			c.pairTouch[w] = touched // keep any growth for the next round
		}
	})
	for _, err := range c.shardErr {
		if err != nil {
			return nil, err
		}
	}
	// Commit volume metrics and deferred violations in shard order.
	var firstErr error
	var roundWords int64
	for w := 0; w < shards; w++ {
		c.met.TotalWords += c.shardTotal[w]
		roundWords += c.shardTotal[w]
		c.met.Violations += c.shardViol[w]
		if firstErr == nil {
			firstErr = c.shardAux[w]
		}
	}
	c.Emit(roundWords)
	// Turn the per-shard counts into delivery cursors: shardCnt[w][j]
	// becomes the first slot of in[j] that shard w writes, so the
	// parallel fill reproduces sender order exactly.
	par.For(c.cfg.Workers, n, func(lo, hi, _ int) {
		for j := lo; j < hi; j++ {
			var words int64
			var cnt int32
			for w := 0; w < shards; w++ {
				words += c.shardIn[w][j]
				base := cnt
				cnt += c.shardCnt[w][j]
				c.shardCnt[w][j] = base
			}
			c.inWords[j] = words
			c.recvCnt[j] = cnt
		}
	})
	// One flat arena holds every delivered message; inboxes are
	// per-receiver windows into it (one allocation per round instead of
	// one per non-empty inbox).
	var totalCnt int64
	for j := 0; j < n; j++ {
		totalCnt += int64(c.recvCnt[j])
	}
	in := make([][]Message, n)
	arena := make([]Message, totalCnt)
	var off int64
	for j := 0; j < n; j++ {
		if cnt := int64(c.recvCnt[j]); cnt > 0 {
			in[j] = arena[off : off+cnt : off+cnt]
			off += cnt
		}
	}
	par.For(c.cfg.Workers, n, func(lo, hi, w int) {
		cur := c.shardCnt[w]
		for i := lo; i < hi; i++ {
			for k := range out[i] {
				msg := out[i][k]
				msg.From = i
				in[msg.To][cur[msg.To]] = msg
				cur[msg.To]++
			}
		}
	})
	for i := 0; i < n; i++ {
		ow := c.outWords[i]
		c.ObserveOut(ow)
		if spec.Audit != nil {
			if err := spec.Audit(round, i, ow, false); err != nil {
				c.met.Violations++
				if firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	for j := 0; j < n; j++ {
		iw := c.inWords[j]
		c.ObserveIn(iw)
		if spec.Audit != nil {
			if err := spec.Audit(round, j, iw, true); err != nil {
				c.met.Violations++
				if firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	if firstErr != nil && c.cfg.Strict {
		return nil, firstErr
	}
	return in, nil
}
