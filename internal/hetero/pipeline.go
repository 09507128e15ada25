package hetero

import (
	"unimem/internal/core"
	"unimem/internal/sim"
	"unimem/internal/workload"
)

// Stage is one step of a real-world pipeline (Table 6): a workload on a
// device class, consuming the previous stage's output region.
type Stage struct {
	Class    workload.Class
	Workload string
	// Role documents what the stage computes (for reports).
	Role string
}

// Pipeline is a Table 6 real-world application: stages run back to back
// with data handed over through the shared protected memory.
type Pipeline struct {
	Name   string
	Stages []Stage
}

// Finance is the Table 6 Finance pipeline:
// GPU PageRank -> CPU route planning -> NPU recommendation.
func Finance() Pipeline {
	return Pipeline{Name: "Finance", Stages: []Stage{
		{Class: workload.GPU, Workload: "pr", Role: "financial risk / commodity network"},
		{Class: workload.CPU, Workload: "mcf", Role: "optimal asset allocation"},
		{Class: workload.NPU, Workload: "dlrm", Role: "investment recommendation"},
	}}
}

// AutoDrive is the Table 6 AutoDrive pipeline:
// GPU stencil filtering -> NPU Yolo-Tiny -> CPU stream clustering.
func AutoDrive() Pipeline {
	return Pipeline{Name: "AutoDrive", Stages: []Stage{
		{Class: workload.GPU, Workload: "sten", Role: "camera data filtering"},
		{Class: workload.NPU, Workload: "yt", Role: "obstacle detection"},
		{Class: workload.CPU, Workload: "sc", Role: "obstacle clustering"},
	}}
}

// PipelineResult is one pipeline simulation outcome.
type PipelineResult struct {
	Pipeline Pipeline
	Scheme   core.Scheme
	// StageEndPs is each stage's completion time (cumulative).
	StageEndPs []sim.Time
	// TotalPs is the end-to-end execution time.
	TotalPs sim.Time
	// TotalBytes is total memory traffic.
	TotalBytes uint64
}

// RunPipeline simulates the application steady state: the pipeline
// processes a stream of inputs (frames, market ticks), so all stages are
// active concurrently on successive inputs, contending for the shared
// memory system behind one protection engine. Each stage works in its
// device class's slot and region (handoff buffers are a small part of a
// stage's working set; modelling full address sharing would make every
// chunk a cross-device granularity conflict, which the paper's scenarios
// do not exhibit). Stage i replays its trace under Seed + i*104729. It
// panics on an unknown workload name.
func RunPipeline(p Pipeline, scheme core.Scheme, cfg Config) PipelineResult {
	ps := make([]placement, len(p.Stages))
	for i, st := range p.Stages {
		ps[i] = placement{index: deviceIndexFor(st.Class), class: st.Class, workload: st.Workload, seed: cfg.Seed + uint64(i)*104729}
	}
	r, end := run(Scenario{ID: p.Name}, ps, scheme, cfg)
	if r.Err != nil {
		panic(r.Err)
	}
	res := PipelineResult{Pipeline: p, Scheme: scheme, TotalPs: end, TotalBytes: r.TotalBytes}
	for _, d := range r.Devices {
		res.StageEndPs = append(res.StageEndPs, d.FinishPs)
	}
	return res
}

// deviceIndexFor is a device class's slot in the scenario layout.
func deviceIndexFor(c workload.Class) int {
	switch c {
	case workload.CPU:
		return 0
	case workload.GPU:
		return 1
	default:
		return 2
	}
}
