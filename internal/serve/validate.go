package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"lowcontend/internal/exp"
	"lowcontend/internal/exp/spec"
	"lowcontend/internal/machine"
	"lowcontend/internal/sweep"
)

// Limits bound what one request may ask of the daemon. Every submitted
// size expands into simulated shared-memory arrays, so an unchecked
// sizes value is a remote allocation primitive; the defaults
// comfortably cover the paper's sizes (max 1<<16) while keeping a
// hostile request from OOMing the process.
type Limits struct {
	// MaxSizes caps the number of entries in a request's sizes sweep
	// (and, for sweep plans, in its seeds list).
	MaxSizes int
	// MaxSize caps each individual size (problem size or L value).
	MaxSize int
	// MaxParallel caps the per-job cell parallelism a run or sweep
	// request may ask for.
	MaxParallel int
	// MaxBody caps the request body in bytes.
	MaxBody int64
}

// DefaultLimits returns the daemon's stock request bounds.
func DefaultLimits() Limits {
	return Limits{MaxSizes: 16, MaxSize: 1 << 20, MaxParallel: 32, MaxBody: 1 << 16}
}

// withDefaults fills zero fields with the stock bounds, so a partially
// populated Limits still bounds every dimension.
func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.MaxSizes <= 0 {
		l.MaxSizes = d.MaxSizes
	}
	if l.MaxSize <= 0 {
		l.MaxSize = d.MaxSize
	}
	if l.MaxParallel <= 0 {
		l.MaxParallel = d.MaxParallel
	}
	if l.MaxBody <= 0 {
		l.MaxBody = d.MaxBody
	}
	return l
}

// RunRequest is the body of POST /v1/runs. Sizes nil (or empty) means
// the experiment's default sizes; Seed nil means seed 1 (the CLI
// default); Model, when non-empty, charges every cell under that
// contention model instead of the models the experiment pins (the
// CLI's -model flag; names match case-insensitively); Parallel 0 means
// the daemon's per-job default. Profile additionally records per-step
// traces and attaches contention profiles — per-phase cost
// attribution, a kappa histogram, hot cells — to each cell's result,
// served by GET /v1/runs/{id}/profile; the hot-cell top-K is fixed
// server-side (profile.DefaultHotCells), so a profiled run's bytes
// match the CLI's `lowcontend profile`.
type RunRequest struct {
	Experiment string  `json:"experiment"`
	Sizes      []int   `json:"sizes,omitempty"`
	Seed       *uint64 `json:"seed,omitempty"`
	Model      string  `json:"model,omitempty"`
	Parallel   int     `json:"parallel,omitempty"`
	Profile    bool    `json:"profile,omitempty"`
}

// SweepRequest is the body of POST /v1/sweeps: the declarative sweep
// plan. Models empty means the default comparison (qrqw, crcw, erew;
// the first model is the ratio baseline), Sizes empty the experiment's
// defaults, Seeds empty the single seed 1 (or Seed when set). The grid
// is the full cross-product models × sizes × seeds; Parallel bounds
// concurrently executing cells across the whole grid (0 = the daemon's
// per-job default) and never affects the artifact.
type SweepRequest struct {
	Experiment string   `json:"experiment"`
	Models     []string `json:"models,omitempty"`
	Sizes      []int    `json:"sizes,omitempty"`
	Seeds      []uint64 `json:"seeds,omitempty"`
	Seed       *uint64  `json:"seed,omitempty"`
	Parallel   int      `json:"parallel,omitempty"`
}

// httpError is a handler-layer error: an HTTP status, a
// machine-readable code, a human-readable message, and — when one
// request field is to blame — the JSON path of that field. writeError
// renders it as the structured envelope every /v1 endpoint shares:
//
//	{"error": {"code": "...", "message": "...", "path": "..."}}
type httpError struct {
	status int
	code   string
	msg    string
	path   string
}

func (e *httpError) Error() string { return e.msg }

// errf builds an error carrying the status's default code; chain
// withCode or withPath to refine it.
func errf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, code: defaultErrCode(status), msg: fmt.Sprintf(format, args...)}
}

func (e *httpError) withCode(code string) *httpError {
	e.code = code
	return e
}

func (e *httpError) withPath(path string) *httpError {
	e.path = path
	return e
}

// defaultErrCode maps an HTTP status to the envelope code it almost
// always means in this API; handlers override the exceptional cases
// (e.g. body-decode failures report invalid_body).
func defaultErrCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "invalid_field"
	case http.StatusForbidden:
		return "forbidden"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusServiceUnavailable:
		return "backpressure"
	default:
		return "internal"
	}
}

// jobKind separates the two submission shapes one manager can execute.
type jobKind uint8

const (
	runJob jobKind = iota
	sweepJob
)

// jobParams is a validated, normalized submission: a single experiment
// run (runJob) or a cross-model sweep (sweepJob), plus the artifact
// cache key both kinds are cached and coalesced by.
type jobParams struct {
	kind jobKind
	exp  spec.Experiment
	// expKey is the experiment's stable identity for cache keys: the
	// registry name for builtins, the content id for dynamic
	// definitions. Keying by id rather than name keeps a deleted name,
	// re-POSTed with different content, from ever serving the old
	// content's cached artifact.
	expKey   string
	sizes    []int
	seed     uint64
	model    string // canonical model-override name, or ""
	parallel int    // 0 = daemon default
	profile  bool
	plan     sweep.Plan // normalized plan (sweepJob only)
	key      string
	// requestID is the tracing ID of the submitting HTTP request. It is
	// never part of the cache key: identical submissions coalesce and
	// cache-share whatever requests carried them.
	requestID string
}

// validate checks a run request against the resolver (builtins layered
// over the dynamic store) and the limits and normalizes it. Unknown
// experiments are 404; everything else invalid is 400.
func validate(req RunRequest, lim Limits, r exp.Resolver) (jobParams, *httpError) {
	p := jobParams{kind: runJob}
	e, info, ok := r.Resolve(req.Experiment)
	if !ok {
		return p, errf(http.StatusNotFound,
			"unknown experiment %q (see GET /v1/experiments)", req.Experiment).withPath("experiment")
	}
	p.exp = e
	p.expKey = info.ID
	if len(req.Sizes) > 0 && e.DefaultSizes == nil {
		// Size-free experiments (fig1) ignore sizes entirely; accepting
		// them would echo parameters that had no effect and fragment
		// the cache key across identical runs — refuse honestly.
		return p, errf(http.StatusBadRequest, "experiment %q is not size-parameterized; omit sizes", e.Name).withPath("sizes")
	}
	var herr *httpError
	if p.sizes, herr = normalizeSizes(e, req.Sizes, lim); herr != nil {
		return p, herr
	}
	if len(p.sizes) > 0 && len(e.Cells(p.sizes)) == 0 {
		// A dynamic definition's cells intersect the requested sizes
		// with its declared grid; a disjoint filter would complete
		// "done" with a header-only artifact and poison the cache.
		return p, errf(http.StatusBadRequest,
			"no cells at sizes %v: the size grid of %q is %v", p.sizes, e.Name, e.DefaultSizes).withPath("sizes")
	}
	p.seed = 1
	if req.Seed != nil {
		p.seed = *req.Seed
	}
	if req.Model != "" {
		m, ok := machine.ParseModel(req.Model)
		if !ok {
			return p, errf(http.StatusBadRequest, "unknown model %q", req.Model).withPath("model")
		}
		// Canonicalize so that "crcw" and "CRCW" share one cache key
		// and the status echo matches machine.Model.String.
		p.model = m.String()
	}
	if req.Parallel < 0 || req.Parallel > lim.MaxParallel {
		return p, errf(http.StatusBadRequest,
			"parallel %d out of range [0, %d]", req.Parallel, lim.MaxParallel).withPath("parallel")
	}
	p.parallel = req.Parallel
	p.profile = req.Profile
	p.key = cacheKey(p)
	return p, nil
}

// validateSweep checks a sweep request and normalizes it into a
// sweepJob. Plan-shape validation (model names, size axis, defaults)
// is shared with the CLI via sweep.Normalize, so daemon and CLI refuse
// exactly the same plans; the daemon adds its resource limits on top.
func validateSweep(req SweepRequest, lim Limits, r exp.Resolver) (jobParams, *httpError) {
	p := jobParams{kind: sweepJob}
	e, info, ok := r.Resolve(req.Experiment)
	if !ok {
		return p, errf(http.StatusNotFound,
			"unknown experiment %q (see GET /v1/experiments)", req.Experiment).withPath("experiment")
	}
	p.exp = e
	p.expKey = info.ID
	if req.Parallel < 0 || req.Parallel > lim.MaxParallel {
		return p, errf(http.StatusBadRequest,
			"parallel %d out of range [0, %d]", req.Parallel, lim.MaxParallel).withPath("parallel")
	}
	seeds := req.Seeds
	if len(seeds) == 0 && req.Seed != nil {
		seeds = []uint64{*req.Seed}
	} else if len(seeds) > 0 && req.Seed != nil {
		return p, errf(http.StatusBadRequest, "pass seed or seeds, not both").withPath("seed")
	}
	if len(seeds) > lim.MaxSizes {
		return p, errf(http.StatusBadRequest, "too many seeds: %d (limit %d)", len(seeds), lim.MaxSizes).withPath("seeds")
	}
	sizes, herr := normalizeSizes(e, req.Sizes, lim)
	if herr != nil {
		return p, herr
	}
	if len(sizes) > 0 && len(e.Cells(sizes)) == 0 {
		return p, errf(http.StatusBadRequest,
			"no cells at sizes %v: the size grid of %q is %v", sizes, e.Name, e.DefaultSizes).withPath("sizes")
	}
	plan, err := sweep.Normalize(e, sweep.Plan{
		Experiment: e.Name,
		Models:     req.Models,
		Sizes:      sizes,
		Seeds:      seeds,
	})
	if err != nil {
		return p, errf(http.StatusBadRequest, "%v", err)
	}
	p.plan = plan
	p.sizes = plan.Sizes
	p.parallel = req.Parallel
	p.key = sweepCacheKey(p.expKey, plan)
	return p, nil
}

// normalizeSizes applies the shared sizes rules: empty means the
// experiment's defaults filtered to the operator's size cap (oversized
// defaults are dropped rather than bounced back as a 400 naming sizes
// the client never sent — erroring only when nothing remains runnable),
// explicit lists are bounded in count and per-entry range. A zero-cell
// run would otherwise complete "done" with a header-only artifact and
// poison the cache for its key.
func normalizeSizes(e spec.Experiment, sizes []int, lim Limits) ([]int, *httpError) {
	if len(sizes) == 0 {
		var out []int
		for _, n := range e.DefaultSizes {
			if n <= lim.MaxSize {
				out = append(out, n)
			}
		}
		if len(out) == 0 && len(e.DefaultSizes) > 0 {
			return nil, errf(http.StatusBadRequest,
				"every default size of %q exceeds this server's size limit %d; pass explicit sizes", e.Name, lim.MaxSize).withPath("sizes")
		}
		return out, nil
	}
	if len(sizes) > lim.MaxSizes {
		return nil, errf(http.StatusBadRequest, "too many sizes: %d (limit %d)", len(sizes), lim.MaxSizes).withPath("sizes")
	}
	for _, n := range sizes {
		if n < 1 || n > lim.MaxSize {
			return nil, errf(http.StatusBadRequest, "size %d out of range [1, %d]", n, lim.MaxSize).withPath("sizes")
		}
	}
	return sizes, nil
}

// cacheKey canonicalizes the determinism-relevant run parameters:
// charged stats and rendered artifacts are a pure function of
// (experiment, sizes, seed, model) — parallelism never changes them —
// so jobs sharing a key produce byte-identical artifacts and the cache
// may serve any of them from the first completed run. The experiment
// is identified by its expKey (content id for dynamic definitions), so
// a dynamic experiment's cache entries follow its content: deleting a
// name and re-POSTing different content under it can never serve the
// old content's artifact. Profiled runs are keyed separately: their
// artifact bytes are identical to the unprofiled run's, but only they
// carry profiles, so serving one for the other would either drop a
// requested profile or hand out one that was never asked for.
func cacheKey(p jobParams) string {
	var b strings.Builder
	b.WriteString(p.expKey)
	b.WriteByte('|')
	for i, n := range p.sizes {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(n))
	}
	b.WriteByte('|')
	b.WriteString(strconv.FormatUint(p.seed, 10))
	b.WriteByte('|')
	b.WriteString(p.model)
	if p.profile {
		b.WriteString("|profile")
	}
	return b.String()
}

// sweepCacheKey canonicalizes a normalized plan's determinism-relevant
// parameters (everything but Parallel), identifying the experiment by
// its expKey like cacheKey does. The "sweep|" prefix keeps the
// namespace disjoint from run keys, which start with an experiment
// name or content id.
func sweepCacheKey(expKey string, p sweep.Plan) string {
	var b strings.Builder
	b.WriteString("sweep|")
	b.WriteString(expKey)
	b.WriteByte('|')
	b.WriteString(strings.Join(p.Models, ","))
	b.WriteByte('|')
	for i, n := range p.Sizes {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(n))
	}
	b.WriteByte('|')
	for i, s := range p.Seeds {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(s, 10))
	}
	return b.String()
}
