package unimem

import (
	"context"

	"unimem/internal/core"
	"unimem/internal/hetero"
	"unimem/internal/sim"
	"unimem/internal/workload"
)

// simTime stamps a raw picosecond count (the functional layer's logical
// clock) as a sim.Time.
func simTime(ps int64) sim.Time { return sim.Time(ps) }

// Scheme selects a simulated protection scheme (paper Table 5 plus the
// ablations of Fig. 6 / Fig. 20).
type Scheme = core.Scheme

// The simulated schemes.
const (
	Unsecure              = core.Unsecure
	Conventional          = core.Conventional
	StaticDeviceBest      = core.StaticDeviceBest
	MultiCTROnly          = core.MultiCTROnly
	Ours                  = core.Ours
	Adaptive              = core.Adaptive
	CommonCTR             = core.CommonCTR
	BMFUnused             = core.BMFUnused
	BMFUnusedOurs         = core.BMFUnusedOurs
	OursDual              = core.OursDual
	OursNoSwitch          = core.OursNoSwitch
	BMFUnusedOursNoSwitch = core.BMFUnusedOursNoSwitch
	PerPartitionOracle    = core.PerPartitionOracle
	MACOnly               = core.MACOnly
	MGXVersioned          = core.MGXVersioned
)

// Schemes lists every registered scheme, paper reproductions and
// extensions alike (Scheme.IsExtension distinguishes them).
var Schemes = core.Schemes

// Scenario is one heterogeneous mix: a CPU, a GPU and two NPU workloads.
type Scenario = hetero.Scenario

// SimConfig controls a simulation run.
type SimConfig = hetero.Config

// RunResult is a raw simulation outcome.
type RunResult = hetero.RunResult

// Normalized is a scheme outcome relative to the unsecured baseline.
type Normalized = hetero.Normalized

// AllScenarios enumerates the paper's 250-scenario space.
func AllScenarios() []Scenario { return hetero.AllScenarios() }

// SelectedScenarios returns the 11 named scenarios of section 5.4.
func SelectedScenarios() []Scenario { return hetero.SelectedScenarios() }

// SampleScenarios returns a deterministic n-scenario spread of the space.
func SampleScenarios(n int) []Scenario { return hetero.SampleScenarios(n) }

// RunScenario simulates one scenario under one scheme.
func RunScenario(sc Scenario, s Scheme, cfg SimConfig) RunResult {
	return hetero.Run(sc, s, cfg)
}

// RunNormalized simulates a scheme and its unsecured baseline and returns
// the paper's normalized-execution-time metric.
func RunNormalized(sc Scenario, s Scheme, cfg SimConfig) Normalized {
	base := hetero.Run(sc, Unsecure, cfg)
	return hetero.Normalize(hetero.Run(sc, s, cfg), base)
}

// SweepOptions configures SweepParallel (worker count, progress callback).
type SweepOptions = hetero.SweepOptions

// SweepProgress is one progress update of a parallel sweep.
type SweepProgress = hetero.SweepProgress

// SweepParallel runs scenarios across schemes with a shared unsecured
// baseline per scenario (the engine behind Figures 15-19) on a worker pool,
// with deterministic, sequential-identical results, context cancellation
// and optional progress reporting. A failed run is returned as the error.
func SweepParallel(ctx context.Context, scs []Scenario, schemes []Scheme, cfg SimConfig, opts SweepOptions) ([]hetero.SweepResult, error) {
	return hetero.SweepParallel(ctx, scs, schemes, cfg, opts)
}

// Pipeline is a Table 6 real-world application.
type Pipeline = hetero.Pipeline

// Finance returns the Table 6 Finance pipeline (pr -> mcf -> dlrm).
func Finance() Pipeline { return hetero.Finance() }

// AutoDrive returns the Table 6 AutoDrive pipeline (sten -> yt -> sc).
func AutoDrive() Pipeline { return hetero.AutoDrive() }

// RunPipeline simulates a pipeline under a scheme.
func RunPipeline(p Pipeline, s Scheme, cfg SimConfig) hetero.PipelineResult {
	return hetero.RunPipeline(p, s, cfg)
}

// Workloads lists all registered workload names (Table 4 plus the Table 6
// extras).
func Workloads() []string { return workload.Names() }

// HWCost re-derives the paper's section 4.5 hardware-cost arithmetic.
func HWCost() core.HWCost { return core.ComputeHWCost(12) }
