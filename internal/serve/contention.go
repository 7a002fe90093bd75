package serve

import (
	"sync"
	"time"

	"lowcontend/internal/profile"
)

// This file implements continuous contention profiling: the daemon
// periodically executes a configurable fraction of run jobs with the
// engine's profiler enabled (the same per-step tracing and hot-cell
// attribution behind POST /v1/runs {"profile": true}) and folds the
// harvested profiles into a rolling hot-cell/kappa-histogram view at
// GET /v1/contention — the paper's contention accounting as a live
// service signal instead of a per-run artifact.
//
// Sampling is deterministic (every Nth simulated run job, counted from
// the first), never touches charged stats, and strips the harvested
// profiles from the sampled job's served result. Profiling does
// perturb host-side exec telemetry — hot-cell attribution expands bulk
// descriptors to element granularity, which shows in a sampled job's
// exec counters and timeline settlement routes — so sampled outcomes
// are not entered into the artifact cache: the canonical cached bytes
// for a key always come from an unprofiled execution, and
// deterministic-core comparisons should run with sampling off.

// contentionSample is one sampled job's folded profile.
type contentionSample struct {
	at     time.Time
	jobID  string
	exp    string
	prof   *profile.Profile
	forced bool // sampler-forced profiling vs an explicitly profiled run
}

// contentionWindow bounds the contention view's retained samples.
const contentionWindow = 64

// contentionView is the rolling window of sampled profiles.
type contentionView struct {
	everyN int // sample every Nth simulated run job (<= 0: disabled)
	window int // retained samples

	mu      sync.Mutex
	seen    int64 // simulated run jobs considered
	sampled int64 // jobs folded into the view (explicit profiles included)
	samples []contentionSample
}

func newContentionView(everyN int) *contentionView {
	return &contentionView{everyN: everyN, window: contentionWindow}
}

// shouldSample counts one simulated run job and reports whether the
// sampler wants it profiled. Deterministic: the first job and every
// everyN-th after it sample. Nil-safe (never samples).
func (v *contentionView) shouldSample() bool {
	if v == nil || v.everyN <= 0 {
		return false
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.seen++
	return (v.seen-1)%int64(v.everyN) == 0
}

// add folds one job's profiles (one per session its cells acquired)
// into the view. Nil-safe; empty profile sets are ignored.
func (v *contentionView) add(jobID, exp string, profs []*profile.Profile, forced bool) {
	if v == nil || len(profs) == 0 {
		return
	}
	merged := profile.Merge(profs, 0)
	v.mu.Lock()
	defer v.mu.Unlock()
	v.sampled++
	v.samples = append(v.samples, contentionSample{
		at:     time.Now().UTC(),
		jobID:  jobID,
		exp:    exp,
		prof:   merged,
		forced: forced,
	})
	if len(v.samples) > v.window {
		v.samples = v.samples[len(v.samples)-v.window:]
	}
}

// ContentionSampleInfo is one retained sample's metadata in the
// /v1/contention document (the full per-sample profile stays internal;
// the aggregate is what operators read).
type ContentionSampleInfo struct {
	Job        string    `json:"job"`
	Experiment string    `json:"experiment"`
	Model      string    `json:"model"`
	Sampled    time.Time `json:"sampled"`
	// Forced distinguishes sampler-forced profiling from runs the
	// client profiled explicitly (both fold into the view).
	Forced   bool  `json:"forced"`
	Steps    int64 `json:"steps"`
	Time     int64 `json:"time"`
	MaxKappa int64 `json:"max_kappa"`
}

// ContentionReport is the wire form of GET /v1/contention.
type ContentionReport struct {
	Enabled     bool                   `json:"enabled"`
	SampleEvery int                    `json:"sample_every,omitempty"`
	Window      int                    `json:"window"`
	JobsSeen    int64                  `json:"jobs_seen"`
	JobsSampled int64                  `json:"jobs_sampled"`
	Samples     []ContentionSampleInfo `json:"samples"`
	// Aggregate merges every retained sample: phase attribution, the
	// kappa histogram, and the hot-cell ranking across the window.
	Aggregate *profile.Profile `json:"aggregate,omitempty"`
}

// report builds the /v1/contention document. Nil-safe (disabled view).
func (v *contentionView) report() ContentionReport {
	rep := ContentionReport{Samples: []ContentionSampleInfo{}}
	if v == nil {
		return rep
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	rep.Enabled = v.everyN > 0
	rep.SampleEvery = max(v.everyN, 0)
	rep.Window = v.window
	rep.JobsSeen = v.seen
	rep.JobsSampled = v.sampled
	profs := make([]*profile.Profile, 0, len(v.samples))
	for _, s := range v.samples {
		profs = append(profs, s.prof)
		rep.Samples = append(rep.Samples, ContentionSampleInfo{
			Job:        s.jobID,
			Experiment: s.exp,
			Model:      s.prof.Model,
			Sampled:    s.at,
			Forced:     s.forced,
			Steps:      s.prof.Steps,
			Time:       s.prof.Time,
			MaxKappa:   s.prof.MaxKappa,
		})
	}
	if len(profs) > 0 {
		rep.Aggregate = profile.Merge(profs, 0)
	}
	return rep
}

// sampledTotal reports how many jobs have been folded into the view.
func (v *contentionView) sampledTotal() int64 {
	if v == nil {
		return 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.sampled
}
