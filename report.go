package mpcgraph

import (
	"mpcgraph/internal/model"
	"mpcgraph/internal/registry"
)

// Report is the uniform result of Solve: the problem-specific payload
// (InMIS, M, InCover/FractionalWeight, Value) plus the complete audited
// model costs — Rounds, Phases, MaxMachineWords, TotalWords, Violations,
// host wall time, and the per-stage breakdown in Stages — for every
// algorithm, under both models. No Report drops a cost field: a metered
// run always carries its max per-machine load and total communication
// volume.
type Report = registry.Report

// StageCost is one entry of Report.Stages: the audited rounds and
// communication volume of a named algorithm stage. Stage Rounds and
// Words sum to the Report totals.
type StageCost = model.StageCost

// TraceEvent is the per-round observation delivered to Options.Trace:
// the cumulative round index, the words moved by the step, and the
// algorithm's most recently reported count of still-undecided vertices.
type TraceEvent = model.TraceEvent

// TraceFunc observes TraceEvents; see Options.Trace.
type TraceFunc = model.TraceFunc
