// Package meter is the model-agnostic charging layer of the machine
// substrate: one algorithm trajectory charges its communication against
// a Meter, and the Meter's backend — an MPC cluster or a
// CONGESTED-CLIQUE — translates each charge into that model's rounds,
// loads and budgets on the shared internal/machine core.
//
// The algorithm state never reads anything back from the meter, so one
// algorithm run produces bit-identical outputs under every backend —
// only the audited costs differ, which is exactly the paper's claim
// that the same technique runs in the Õ(n)-memory MPC model and (via
// Lenzen routing) in the CONGESTED-CLIQUE. The matching family charges
// through this package; adding a further model (e.g. the
// strongly-sublinear regime of Behnezhad–Hajiaghayi–Harris 2019) means
// adding one backend here, not a new simulator.
package meter

import (
	"context"
	"math"

	"mpcgraph/internal/congest"
	"mpcgraph/internal/model"
	"mpcgraph/internal/mpc"
)

// Costs is a snapshot of a meter's audited totals.
type Costs struct {
	// Rounds is the number of model rounds charged so far.
	Rounds int
	// MaxMachineWords is the largest per-round load on any machine or
	// player observed so far.
	MaxMachineWords int64
	// TotalWords is the cumulative communication volume.
	TotalWords int64
	// Violations counts capacity/budget violations (non-strict mode).
	Violations int
}

// Meter abstracts the simulator backend an algorithm charges its
// communication against. The primitives are the communication shapes of
// the paper's Section 4 simulation; each backend charges them in its
// own currency.
type Meter interface {
	// Shuffle charges the phase-start repartitioning: machine class j of
	// the m classes receives its induced subgraph of inducedWords[j]
	// words (the Lemma 4.7 audit).
	Shuffle(m int, inducedWords []int64) error
	// ResultSync charges the end-of-phase freeze synchronization: a
	// gather of frozenWords words followed by a broadcast of the same.
	ResultSync(m int, frozenWords int64) error
	// DirectRound charges one direct Central-Rand iteration: one word
	// each way per active edge.
	DirectRound(activeEdges int64) error
	// Gather charges one coordinator gather of words words (the
	// filtering completion's per-round sample shipment).
	Gather(words int64) error
	// SetActive reports the current undecided-vertex count for tracing.
	SetActive(vertices int)
	// Costs returns the audited totals so far.
	Costs() Costs
}

// Config carries everything needed to stand up either backend.
type Config struct {
	// N is the vertex count of the input graph.
	N int
	// Machines is the MPC machine count (also the phase-m cap); 0 means
	// SimMachines(N).
	Machines int
	// MemoryFactor sets per-machine memory to MemoryFactor·N words.
	MemoryFactor float64
	// Strict makes capacity/budget violations fail the charge.
	Strict bool
	// Ctx, when non-nil, cancels charges between rounds.
	Ctx context.Context
	// Trace, when non-nil, observes every metered round.
	Trace model.TraceFunc
}

// ResolveMemoryFactor applies the repository-wide per-machine memory
// default of 16·n words (the constant behind the paper's Õ(n)).
func ResolveMemoryFactor(f float64) float64 {
	if f == 0 {
		return 16
	}
	return f
}

// SimMachines returns the MPC machine count used by the matching
// simulation and as the per-phase partition cap: ⌈√n⌉+1. The cap is
// shared by every backend so the algorithm trajectory is identical
// across models.
func SimMachines(n int) int {
	return int(math.Ceil(math.Sqrt(float64(n)))) + 1
}

// FoldCosts builds a Costs snapshot from the shared metric fields of
// either backend: the reported per-round maximum is the larger of the
// in/out maxima.
func FoldCosts(rounds int, maxIn, maxOut, total int64, violations int) Costs {
	return Costs{
		Rounds:          rounds,
		MaxMachineWords: max(maxIn, maxOut),
		TotalWords:      total,
		Violations:      violations,
	}
}

// New builds the backend for the selected model.
func New(m model.Model, cfg Config) (Meter, error) {
	if cfg.Machines == 0 {
		cfg.Machines = SimMachines(cfg.N)
	}
	if m == model.CongestedClique {
		return newCliqueMeter(cfg)
	}
	return newMPCMeter(cfg)
}

// mpcMeter charges an MPC cluster with ⌈√n⌉+1 machines of
// MemoryFactor·n words each — the deployment of Section 4.3.
type mpcMeter struct {
	cluster *mpc.Cluster
}

func newMPCMeter(cfg Config) (*mpcMeter, error) {
	cluster, err := mpc.NewCluster(mpc.Config{
		Machines:      cfg.Machines,
		CapacityWords: int64(cfg.MemoryFactor * float64(cfg.N)),
		Strict:        cfg.Strict,
		Ctx:           cfg.Ctx,
		Trace:         cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	return &mpcMeter{cluster: cluster}, nil
}

// spread adds words to loads in equal shares, the first
// words mod len(loads) of them one word more.
func spread(loads []int64, words int64) {
	share, rem := words/int64(len(loads)), words%int64(len(loads))
	for i := range loads {
		loads[i] += share
		if int64(i) < rem {
			loads[i]++
		}
	}
}

// Shuffle meters the phase-start repartitioning: machine j's inbox is
// its induced subgraph, delivered from the edges' previous homes. The
// senders are modeled as the m previous holders contributing equal
// shares; the audited quantity is the receiving machine's load.
func (mm *mpcMeter) Shuffle(m int, inducedWords []int64) error {
	out, in := mm.cluster.Loads()
	for j, w := range inducedWords[:m] {
		in[j] = w
		spread(out[:m], w)
	}
	return mm.cluster.ChargeLoads(out, in)
}

// ResultSync meters the end-of-phase freeze synchronization: a gather
// of the frozen list from the m phase machines, followed by a
// broadcast.
func (mm *mpcMeter) ResultSync(m int, frozenWords int64) error {
	if err := mm.gather(m, frozenWords); err != nil {
		return err
	}
	return mm.cluster.ChargeBroadcast(frozenWords)
}

// DirectRound meters one direct Central-Rand iteration: every active
// edge carries one word each way between the machines hosting its
// endpoints, as 2·activeEdges words spread evenly over the machines,
// each sending its share to the next machine of a ring.
func (mm *mpcMeter) DirectRound(activeEdges int64) error {
	m := mm.cluster.Machines()
	out, in := mm.cluster.Loads()
	spread(out, 2*activeEdges)
	for i, w := range out {
		in[(i+1)%m] = w
	}
	return mm.cluster.ChargeLoads(out, in)
}

func (mm *mpcMeter) Gather(words int64) error {
	return mm.gather(mm.cluster.Machines(), words)
}

// gather charges one round in which the first m machines send words
// words to machine 0 in equal shares.
func (mm *mpcMeter) gather(m int, words int64) error {
	out, in := mm.cluster.Loads()
	spread(out[:m], words)
	in[0] = words
	return mm.cluster.ChargeLoads(out, in)
}

func (mm *mpcMeter) SetActive(vertices int) { mm.cluster.SetActive(vertices) }

func (mm *mpcMeter) Costs() Costs {
	met := mm.cluster.Metrics()
	return FoldCosts(met.Rounds, met.MaxInWords, met.MaxOutWords, met.TotalWords, met.Violations)
}

// cliqueMeter charges a CONGESTED-CLIQUE of n players with the standard
// one-word pair budget. Bulk deliveries ride Lenzen's routing scheme in
// n-word chunks; broadcasts ride the relay tree at n-1 words per player
// per round — the standard simulation of Õ(n)-memory MPC algorithms in
// the clique (Section 2 of the paper).
type cliqueMeter struct {
	q *congest.Clique
}

func newCliqueMeter(cfg Config) (*cliqueMeter, error) {
	players := cfg.N
	if players < 2 {
		players = 2
	}
	q, err := congest.New(congest.Config{
		Players:         players,
		PairBudgetWords: 1,
		Strict:          cfg.Strict,
		Ctx:             cfg.Ctx,
		Trace:           cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	return &cliqueMeter{q: q}, nil
}

// lenzenDeliver charges the delivery of total words with per-receiver
// maximum maxIn, chunked into Lenzen invocations of at most n words per
// receiver: the heaviest receiver's load is split evenly across the
// chunks, so each invocation carries its actual share rather than the
// whole per-receiver maximum.
func (cm *cliqueMeter) lenzenDeliver(total, maxIn int64) error {
	n := int64(cm.q.Players())
	if maxIn <= 0 {
		// The synchronization still happens even when nothing moved.
		return cm.q.ChargeRound(1, 0, 0, 0)
	}
	k := (maxIn + n - 1) / n
	inShare := (maxIn + k - 1) / k
	share, rem := total/k, total%k
	for i := int64(0); i < k; i++ {
		t := share
		if i < rem {
			t++
		}
		if err := cm.q.ChargeLenzen(min(t, n), min(inShare, t), t); err != nil {
			return err
		}
	}
	return nil
}

// broadcast charges delivering words words to every player, n-1 words
// per player per relay round.
func (cm *cliqueMeter) broadcast(words int64) error {
	n := int64(cm.q.Players())
	for remaining := words; ; {
		chunk := min(remaining, n-1)
		if chunk < 0 {
			chunk = 0
		}
		if err := cm.q.ChargeRound(1, chunk, chunk, chunk*n); err != nil {
			return err
		}
		remaining -= chunk
		if remaining <= 0 {
			return nil
		}
	}
}

func (cm *cliqueMeter) Shuffle(m int, inducedWords []int64) error {
	var total, maxIn int64
	for _, w := range inducedWords {
		total += w
		if w > maxIn {
			maxIn = w
		}
	}
	return cm.lenzenDeliver(total, maxIn)
}

func (cm *cliqueMeter) ResultSync(m int, frozenWords int64) error {
	if err := cm.lenzenDeliver(frozenWords, frozenWords); err != nil {
		return err
	}
	return cm.broadcast(frozenWords)
}

func (cm *cliqueMeter) DirectRound(activeEdges int64) error {
	n := int64(cm.q.Players())
	words := 2 * activeEdges
	per := words/n + 1
	return cm.q.ChargeRound(1, per, per, words)
}

func (cm *cliqueMeter) Gather(words int64) error {
	return cm.lenzenDeliver(words, words)
}

func (cm *cliqueMeter) SetActive(vertices int) { cm.q.SetActive(vertices) }

func (cm *cliqueMeter) Costs() Costs {
	met := cm.q.Metrics()
	return FoldCosts(met.Rounds, met.MaxPlayerIn, met.MaxPlayerOut, met.TotalWords, met.Violations)
}
