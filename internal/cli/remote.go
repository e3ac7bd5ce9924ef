package cli

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"time"

	"mpcgraph/internal/graphio"
	"mpcgraph/internal/model"
	reg "mpcgraph/internal/registry"
	"mpcgraph/internal/service"
)

// remoteSolver adapts a running mpcgraphd into a registry.SolveFunc:
// the instance is uploaded as a (weighted) edge list, the job is
// submitted and polled to completion under the documented retry
// convention, and the Report is reconstructed from the job view plus
// the solution endpoint. Because Solve is deterministic and the wire
// round-trips every Report field the bench tables read (costs,
// violations, solution payloads — floats via shortest-round-trip JSON),
// a remote solve is bit-identical to the in-process call it replaces;
// `mpcgraph bench -remote` leans on exactly that. Wall is left zero:
// wall time is the one field the wire cannot promise to reproduce, and
// no table reads it.
func remoteSolver(server string, retries int, retryBudget time.Duration) reg.SolveFunc {
	return func(ctx context.Context, in reg.Input, p reg.Problem, m model.Model, opts reg.Options) (*reg.Report, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		req, err := uploadRequest(in, p, m, opts)
		if err != nil {
			return nil, err
		}
		// The jitter stream is seeded by the job seed, so one scripted
		// sweep plans one reproducible delay sequence per cell.
		bo := newBackoff(opts.Seed, "remote-solve", 100*time.Millisecond, 5*time.Second, retries, retryBudget)
		var view *service.JobView
		for {
			view, err = postJob(server, req)
			if err == nil {
				break
			}
			var he *httpError
			if !errors.As(err, &he) || !he.retryable() {
				return nil, err
			}
			delay, ok := bo.next(he.retryAfter)
			if !ok {
				return nil, fmt.Errorf("remote solve: %v: %w after %d attempts", err, ErrRetriesExhausted, bo.attempts+1)
			}
			time.Sleep(delay)
		}
		view, err = waitJob(server, view.ID, opts.Seed)
		if err != nil {
			return nil, err
		}
		if view.State != service.StateDone {
			return nil, fmt.Errorf("remote solve: job %s %s: %s", view.ID, view.State, view.Error)
		}
		if view.Report == nil {
			return nil, fmt.Errorf("remote solve: job %s done without a report", view.ID)
		}
		solution, err := getJSON(server, "/v1/jobs/"+view.ID+"/solution")
		if err != nil {
			return nil, err
		}
		return remoteReport(in, p, m, view.Report, string(solution))
	}
}

// uploadRequest serializes the in-process instance as a graph upload.
// Edge lists carry the exact edge set (and, for wel, weights in
// shortest-round-trip float form), so the daemon reconstructs the
// bit-identical instance — and therefore the identical cache key — that
// an in-process run would use.
func uploadRequest(in reg.Input, p reg.Problem, m model.Model, opts reg.Options) (*service.JobRequest, error) {
	var (
		buf    bytes.Buffer
		format graphio.Format
		data   *graphio.Data
	)
	if in.WG != nil {
		format, data = graphio.FormatWeightedEdgeList, graphio.FromWeighted(in.WG)
	} else {
		format, data = graphio.FormatEdgeList, graphio.Unweighted(in.G)
	}
	if err := graphio.Write(&buf, data, format); err != nil {
		return nil, err
	}
	return &service.JobRequest{
		Problem: p.String(),
		Model:   m.String(),
		Graph: &service.GraphRequest{
			Format:  format.String(),
			Content: base64.StdEncoding.EncodeToString(buf.Bytes()),
			Base64:  true,
		},
		Options: service.OptionsRequest{
			Seed:         opts.Seed,
			Eps:          opts.Eps,
			MemoryFactor: opts.MemoryFactor,
			Strict:       opts.Strict,
			Workers:      opts.Workers,
		},
	}, nil
}

// remoteReport reassembles a registry Report from the wire view and the
// rendered solution payload.
func remoteReport(in reg.Input, p reg.Problem, m model.Model, rv *reg.ReportView, solution string) (*reg.Report, error) {
	rep := &reg.Report{
		Problem:         p,
		Model:           m,
		Rounds:          rv.Rounds,
		Phases:          rv.Phases,
		MaxMachineWords: rv.MaxMachineWords,
		TotalWords:      rv.TotalWords,
		Violations:      rv.Violations,
	}
	for _, st := range rv.Stages {
		rep.Stages = append(rep.Stages, model.StageCost{Name: st.Name, Rounds: st.Rounds, Words: st.Words})
	}
	if rv.FractionalWeight != nil {
		rep.FractionalWeight = *rv.FractionalWeight
	}
	if rv.Value != nil {
		rep.Value = *rv.Value
	}
	if err := reg.ParseSolution(rep, solution, in.G.NumVertices()); err != nil {
		return nil, fmt.Errorf("remote solve: bad solution payload: %w", err)
	}
	return rep, nil
}
