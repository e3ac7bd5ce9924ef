// Package congest simulates the CONGESTED-CLIQUE model of distributed
// computing [LPPSP03] as used by the paper: n players communicate in
// synchronous rounds, and in each round every player may send O(log n)
// bits — one machine word in this simulator — to every other player.
//
// The simulator meters rounds and per-pair bandwidth, and implements
// Lenzen's routing scheme [Len13] as a constant-round primitive with its
// precondition (no player sends or receives more than n words) validated,
// exactly as the paper invokes it in Section 2.
//
// Algorithms charge the clique from volume profiles (ChargeRound,
// ChargeLenzen). Round, LenzenRoute and AllBroadcast carry real messages
// and stay for the real-message MIS test, which checks the charged MIS
// simulation against them.
//
// The accounting lives in internal/machine; this package is the clique
// charge policy over that core: self-sends are illegal, plain rounds
// audit every ordered pair against the per-round word budget, and Lenzen
// routings audit per-player volumes against the scheme's n-word limit.
package congest

import (
	"context"
	"errors"
	"fmt"

	"mpcgraph/internal/machine"
	"mpcgraph/internal/model"
)

// Config describes a clique deployment.
type Config struct {
	// Players is n, the number of players (one per vertex).
	Players int
	// PairBudgetWords is how many words each ordered pair may carry per
	// round; 1 corresponds to the standard O(log n)-bit model.
	PairBudgetWords int
	// Strict makes budget violations fail the round.
	Strict bool
	// Ctx, when non-nil, is checked at the start of every round-charging
	// operation; a cancelled context aborts the operation with ctx.Err(),
	// making long simulated runs cancellable between rounds.
	Ctx context.Context
	// Trace, when non-nil, receives one TraceEvent per metered
	// communication step (Round and ChargeRound emit one each; the
	// Lenzen primitives emit one event covering their constant rounds).
	// Tracing never changes results, metrics or errors.
	Trace model.TraceFunc
}

// Metrics aggregates the model costs incurred so far.
type Metrics struct {
	// Rounds counts communication rounds, including the constant-round
	// charges of the routing primitives.
	Rounds int
	// MaxPlayerIn is the largest per-round receive volume of any player.
	MaxPlayerIn int64
	// MaxPlayerOut is the largest per-round send volume of any player.
	MaxPlayerOut int64
	// TotalWords is the total communication volume.
	TotalWords int64
	// Violations counts budget/precondition violations (non-strict mode).
	Violations int
}

// Message is one unit of communication between players.
type Message = machine.Message

// BudgetError reports a violated bandwidth constraint.
type BudgetError struct {
	Round  int
	Detail string
}

// Error implements the error interface.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("congest: round %d: %s", e.Round, e.Detail)
}

// Clique is a simulated CONGESTED-CLIQUE network.
type Clique struct {
	cfg  Config
	core machine.Core
}

// New validates cfg and returns a fresh clique.
func New(cfg Config) (*Clique, error) {
	if cfg.Players <= 0 {
		return nil, errors.New("congest: need at least one player")
	}
	if cfg.PairBudgetWords <= 0 {
		return nil, errors.New("congest: pair budget must be positive")
	}
	core := machine.NewCore(machine.Config{
		Nodes:  cfg.Players,
		Strict: cfg.Strict,
		Ctx:    cfg.Ctx,
		Trace:  cfg.Trace,
		Name:   "congest",
		Unit:   "player",
	})
	return &Clique{cfg: cfg, core: core}, nil
}

// Players returns n.
func (q *Clique) Players() int { return q.cfg.Players }

// Metrics returns a snapshot of the accumulated metrics.
func (q *Clique) Metrics() Metrics {
	m := q.core.Metrics()
	return Metrics{
		Rounds:       m.Rounds,
		MaxPlayerIn:  m.MaxInWords,
		MaxPlayerOut: m.MaxOutWords,
		TotalWords:   m.TotalWords,
		Violations:   m.Violations,
	}
}

// SetActive records the algorithm's current count of undecided vertices,
// reported on subsequent TraceEvents. Observational only.
func (q *Clique) SetActive(vertices int) { q.core.SetActive(vertices) }

// pairErr builds the per-pair budget violation for Round.
func (q *Clique) pairErr(round, from, to int, words, budget int64) error {
	return &BudgetError{
		Round:  round,
		Detail: fmt.Sprintf("pair (%d,%d) carries %d words, budget %d", from, to, words, budget),
	}
}

// lenzenLimit is the per-player volume Lenzen's scheme can route.
func (q *Clique) lenzenLimit() int64 {
	return int64(q.cfg.Players) * int64(q.cfg.PairBudgetWords)
}

// lenzenAudit validates the routing precondition per player.
func (q *Clique) lenzenAudit(round, player int, words int64, in bool) error {
	limit := q.lenzenLimit()
	if words <= limit {
		return nil
	}
	verb := "sends"
	if in {
		verb = "receives"
	}
	return &BudgetError{
		Round:  round,
		Detail: fmt.Sprintf("player %d %s %d words, Lenzen limit %d", player, verb, words, limit),
	}
}

// Round executes one synchronous round. out[i] holds player i's messages;
// the per-ordered-pair budget is enforced. Delivery order is by sender.
// Algorithms charge rounds with ChargeRound; Round stays for the
// real-message MIS of internal/mis/realmessage_test.go, against which
// TestRealMessageMatchesChargedSimulation checks the charged MIS.
func (q *Clique) Round(out [][]Message) ([][]Message, error) {
	if len(out) != q.cfg.Players {
		return nil, fmt.Errorf("congest: Round got %d outboxes for %d players", len(out), q.cfg.Players)
	}
	return q.core.Route(out, machine.RouteSpec{
		Rounds:     1,
		Verb:       "sent",
		ForbidSelf: true,
		PairBudget: int64(q.cfg.PairBudgetWords),
		PairErr:    q.pairErr,
	})
}

// LenzenRoute routes an arbitrary multiset of messages in O(1) rounds
// (charged as two) provided no player sends more than n words and no
// player is the destination of more than n words — the guarantee of
// Lenzen's deterministic routing scheme [Len13]. The precondition is
// validated; violations are findings about the calling algorithm.
// Algorithms charge invocations with ChargeLenzen; LenzenRoute stays for
// the real-message MIS of internal/mis/realmessage_test.go, against which
// TestRealMessageMatchesChargedSimulation checks the charged MIS.
func (q *Clique) LenzenRoute(out [][]Message) ([][]Message, error) {
	if len(out) != q.cfg.Players {
		return nil, fmt.Errorf("congest: LenzenRoute got %d outboxes for %d players", len(out), q.cfg.Players)
	}
	return q.core.Route(out, machine.RouteSpec{
		Rounds: 2,
		Verb:   "routes",
		Audit:  q.lenzenAudit,
	})
}

// ChargeRound records one synchronous round with the given volume profile
// without materializing per-message payloads. Algorithms that only need
// cost accounting (round counts, loads) at large n use this instead of
// Round, which is O(#messages). maxPairWords is the largest volume any
// ordered pair carries; maxOut/maxIn are the largest per-player send and
// receive volumes; total is the overall volume.
func (q *Clique) ChargeRound(maxPairWords int, maxOut, maxIn, total int64) error {
	if err := q.core.Interrupted(); err != nil {
		return err
	}
	q.core.AddRounds(1)
	q.core.AddTotal(total)
	q.core.Emit(total)
	q.core.ObserveOut(maxOut)
	q.core.ObserveIn(maxIn)
	if maxPairWords > q.cfg.PairBudgetWords {
		q.core.Violation()
		if q.cfg.Strict {
			return &BudgetError{
				Round:  q.core.Rounds(),
				Detail: fmt.Sprintf("some pair carries %d words, budget %d", maxPairWords, q.cfg.PairBudgetWords),
			}
		}
	}
	return nil
}

// ChargeLenzen records one invocation of Lenzen's routing scheme (two
// rounds) with the given volume profile, validating the scheme's
// precondition that no player sends or receives more than n·budget words.
func (q *Clique) ChargeLenzen(maxOut, maxIn, total int64) error {
	if err := q.core.Interrupted(); err != nil {
		return err
	}
	q.core.AddRounds(2)
	q.core.AddTotal(total)
	q.core.Emit(total)
	q.core.ObserveOut(maxOut)
	q.core.ObserveIn(maxIn)
	limit := q.lenzenLimit()
	if maxOut > limit || maxIn > limit {
		q.core.Violation()
		if q.cfg.Strict {
			return &BudgetError{
				Round:  q.core.Rounds(),
				Detail: fmt.Sprintf("Lenzen volume out=%d in=%d exceeds limit %d", maxOut, maxIn, limit),
			}
		}
	}
	return nil
}

// AllBroadcast has every player send the same wordsEach-sized payload to
// all other players in one round (legal whenever wordsEach fits the pair
// budget). payloads[i] is player i's value; the result received[j][i] is
// payloads[i] for every j != i, nil at i == j. It stays for the
// real-message MIS of internal/mis/realmessage_test.go, against which
// TestRealMessageMatchesChargedSimulation checks the charged MIS.
func (q *Clique) AllBroadcast(wordsEach int, payloads []any) ([][]any, error) {
	n := q.cfg.Players
	if len(payloads) != n {
		return nil, fmt.Errorf("congest: AllBroadcast got %d payloads for %d players", len(payloads), n)
	}
	if err := q.core.Interrupted(); err != nil {
		return nil, err
	}
	if wordsEach > q.cfg.PairBudgetWords {
		q.core.Violation()
		if q.cfg.Strict {
			return nil, &BudgetError{
				Round:  q.core.Rounds() + 1,
				Detail: fmt.Sprintf("broadcast of %d words exceeds pair budget %d", wordsEach, q.cfg.PairBudgetWords),
			}
		}
	}
	q.core.AddRounds(1)
	per := int64(wordsEach) * int64(n-1)
	q.core.AddTotal(per * int64(n))
	q.core.Emit(per * int64(n))
	q.core.ObserveOut(per)
	q.core.ObserveIn(per)
	received := make([][]any, n)
	for j := range received {
		row := make([]any, n)
		for i := 0; i < n; i++ {
			if i != j {
				row[i] = payloads[i]
			}
		}
		received[j] = row
	}
	return received, nil
}
