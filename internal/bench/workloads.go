package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"

	"incbubbles/internal/bubble"
	"incbubbles/internal/core"
	"incbubbles/internal/dataset"
	"incbubbles/internal/experiments"
	"incbubbles/internal/extract"
	"incbubbles/internal/optics"
	"incbubbles/internal/server"
	"incbubbles/internal/stats"
	"incbubbles/internal/synth"
	"incbubbles/internal/trace"
	"incbubbles/internal/wal"
)

// workloads returns the suite in report order. Every workload pins
// Workers=1 so the deterministic metrics cannot vary with the machine's
// core count (results are worker-invariant by design, but span timings
// and scheduling are not worth exposing to the diff).
func workloads() []workload {
	return []workload{
		// assign: insert/delete churn with stable clusters — the
		// assignment pipeline (search + apply) dominates.
		{name: "assign", setup: summarizerSetup(synth.Random, false, summarizerScale)},
		// assign_traced: the same workload timed against an enabled
		// default-capacity tracer — the tracing overhead probe. Its
		// deterministic metrics are identical to assign's by construction.
		{name: "assign_traced", traceTimed: true, setup: summarizerSetup(synth.Random, false, summarizerScale)},
		// maintain: the §4 complex dynamics — appearing and disappearing
		// clusters drive classify/merge/split maintenance rounds.
		{name: "maintain", setup: summarizerSetup(synth.Complex, false, summarizerScale)},
		// mergesplit: extreme-appear dynamics at a high update fraction —
		// a merge/split storm.
		{name: "mergesplit", setup: summarizerSetup(synth.ExtremeAppear, true, summarizerScale)},
		// mergesplit_bigk: the same storm at large k, where every reseed
		// refreshes an O(k) row of the seed distance matrix — the large-k
		// probe.
		{name: "mergesplit_bigk", setup: summarizerSetup(synth.ExtremeAppear, true, bigkScale)},
		// wal_append: the durable batch path — WAL framing, append,
		// fsync, cadence checkpoints, clean close.
		{name: "wal_append", setup: walAppendSetup},
		// recovery: resume from an initial checkpoint plus a full WAL
		// suffix — the replay ladder end to end.
		{name: "recovery", setup: recoverySetup},
		// optics: bubble-space construction plus OPTICS extraction over a
		// static summary — the clustering consumer.
		{name: "optics", setup: opticsSetup},
		// serve_ingest: the full bubbled request path — mux routing, the
		// instrumentation middleware, admission queue, serial worker, WAL —
		// driven in-process through httptest with tracing disabled: the
		// production-default server cost per ingested update.
		{name: "serve_ingest", setup: serveIngestSetup},
		// serve_ingest_traced: the same requests with every tenant span
		// ring enabled and a server.ingest root span per request — the
		// request-tracing overhead probe, gated <5% over its untraced twin
		// by benchdiff (full preset). Deterministic metrics are identical
		// to serve_ingest's by construction.
		{name: "serve_ingest_traced", traceTimed: true, setup: serveIngestSetup},
	}
}

// scale sizes one workload family under a preset.
type scale struct {
	points, bubbles, batches int
	frac                     float64
}

func summarizerScale(p Preset) scale {
	if p == PresetFull {
		return scale{points: 5000, bubbles: 50, batches: 8, frac: 0.10}
	}
	return scale{points: 1500, bubbles: 25, batches: 4, frac: 0.10}
}

func walScale(p Preset) scale {
	if p == PresetFull {
		return scale{points: 2500, bubbles: 24, batches: 8, frac: 0.10}
	}
	return scale{points: 800, bubbles: 12, batches: 4, frac: 0.10}
}

// bigkScale sizes the k-scaling probes: few points per bubble, so seed
// maintenance (not assignment) dominates the distance budget.
func bigkScale(p Preset) scale {
	if p == PresetFull {
		return scale{points: 12288, bubbles: 4096, batches: 2, frac: 0.10}
	}
	return scale{points: 3072, bubbles: 256, batches: 2, frac: 0.10}
}

func opticsScale(p Preset) scale {
	if p == PresetFull {
		return scale{points: 5000, bubbles: 100}
	}
	return scale{points: 1500, bubbles: 48}
}

// workloadBatches regenerates a scenario's initial database and applied
// batches from the pinned seed; the returned DB is a private clone the
// caller replays the batches against.
func workloadBatches(kind synth.Kind, sz scale, seed int64) (*dataset.DB, []dataset.Batch, error) {
	sc, err := synth.NewScenario(synth.Config{
		Kind:           kind,
		InitialPoints:  sz.points,
		Batches:        sz.batches,
		UpdateFraction: sz.frac,
		Seed:           seed,
	})
	if err != nil {
		return nil, nil, err
	}
	initial := sc.DB().Clone()
	batches := make([]dataset.Batch, sz.batches)
	for i := range batches {
		if batches[i], err = sc.NextBatch(); err != nil {
			return nil, nil, err
		}
	}
	return initial, batches, nil
}

func coreOptions(sz scale, cfg Config, tracer *trace.Tracer) core.Options {
	return core.Options{
		NumBubbles:            sz.bubbles,
		UseTriangleInequality: true,
		Seed:                  cfg.Seed + 1,
		Tracer:                tracer,
		Config:                core.Config{Workers: 1},
	}
}

// summarizerSetup builds an in-memory summarizer workload over the given
// dynamics at the scale scaleOf picks for the preset; storm raises the
// update fraction to force rebuild storms.
func summarizerSetup(kind synth.Kind, storm bool, scaleOf func(Preset) scale) func(Config, string, *trace.Tracer) (func() error, int, error) {
	return func(cfg Config, _ string, tracer *trace.Tracer) (func() error, int, error) {
		sz := scaleOf(cfg.Preset)
		if storm {
			sz.frac = 0.25
		}
		db, batches, err := workloadBatches(kind, sz, cfg.Seed)
		if err != nil {
			return nil, 0, err
		}
		s, err := core.New(db, coreOptions(sz, cfg, tracer))
		if err != nil {
			return nil, 0, err
		}
		ops := 0
		for _, b := range batches {
			ops += len(b)
		}
		exec := func() error {
			for _, b := range batches {
				applied, err := experiments.Reapply(db, b)
				if err != nil {
					return err
				}
				if _, err := s.ApplyBatch(applied); err != nil {
					return err
				}
			}
			return nil
		}
		return exec, ops, nil
	}
}

func walAppendSetup(cfg Config, scratch string, tracer *trace.Tracer) (func() error, int, error) {
	sz := walScale(cfg.Preset)
	db, batches, err := workloadBatches(synth.Complex, sz, cfg.Seed)
	if err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(scratch, "wal-append-")
	if err != nil {
		return nil, 0, err
	}
	// The initial checkpoint is written here, untimed; the measured
	// section covers appends, fsyncs, cadence checkpoints and the close.
	s, l, err := wal.New(db, coreOptions(sz, cfg, tracer),
		wal.Options{Dir: dir, CheckpointEvery: 2, Tracer: tracer})
	if err != nil {
		return nil, 0, err
	}
	exec := func() error {
		for _, b := range batches {
			applied, err := experiments.Reapply(db, b)
			if err != nil {
				return err
			}
			if _, err := s.ApplyBatch(applied); err != nil {
				return err
			}
		}
		return l.Close()
	}
	return exec, len(batches), nil
}

func recoverySetup(cfg Config, scratch string, tracer *trace.Tracer) (func() error, int, error) {
	sz := walScale(cfg.Preset)
	db, batches, err := workloadBatches(synth.Complex, sz, cfg.Seed)
	if err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(scratch, "recovery-")
	if err != nil {
		return nil, 0, err
	}
	// Crashed run (untimed, untraced): the cadence outlasts the workload,
	// so recovery must replay every batch from the initial checkpoint.
	// The log is abandoned open, exactly as a crash leaves it.
	walOpts := wal.Options{Dir: dir, CheckpointEvery: len(batches) + 1}
	s, _, err := wal.New(db, coreOptions(sz, cfg, nil), walOpts)
	if err != nil {
		return nil, 0, err
	}
	for _, b := range batches {
		applied, err := experiments.Reapply(db, b)
		if err != nil {
			return nil, 0, err
		}
		if _, err := s.ApplyBatch(applied); err != nil {
			return nil, 0, err
		}
	}
	exec := func() error {
		resumeOpts := walOpts
		resumeOpts.Tracer = tracer
		st, err := wal.Resume(coreOptions(sz, cfg, tracer), resumeOpts)
		if err != nil {
			return err
		}
		return st.Log.Close()
	}
	return exec, len(batches), nil
}

// serveScale sizes the serving-path probe: enough updates that the
// per-request fixed costs (mux, middleware, queue handoff) are measured
// against real summarization work, small enough to keep the suite quick.
func serveScale(p Preset) scale {
	if p == PresetFull {
		return scale{points: 1500, bubbles: 32, batches: 8, frac: 0.10}
	}
	return scale{points: 500, bubbles: 16, batches: 4, frac: 0.10}
}

// serveIngestSetup builds a one-tenant bubbled server over a scratch root
// and returns an exec that POSTs pre-marshalled insert batches through the
// real handler stack, then drains. Insert-only traffic keeps the wire
// bodies independent of server-assigned IDs, so the same bodies replay
// bit-identically every rep. The tenant runs the serial path with the
// checkpoint cadence pushed past the workload, so the measured section is
// requests plus the drain-time final checkpoint — both deterministic.
func serveIngestSetup(cfg Config, scratch string, tracer *trace.Tracer) (func() error, int, error) {
	sz := serveScale(cfg.Preset)
	const dim = 8
	rng := stats.NewRNG(cfg.Seed + 11)
	randPoint := func() []float64 {
		p := make([]float64, dim)
		for i := range p {
			p[i] = rng.Normal(0, 1)
		}
		return p
	}
	bootstrap := make([][]float64, sz.points)
	for i := range bootstrap {
		bootstrap[i] = randPoint()
	}
	perBatch := int(float64(sz.points) * sz.frac)
	bodies := make([][]byte, sz.batches)
	ops := 0
	for b := range bodies {
		ups := make([]map[string]any, perBatch)
		for i := range ups {
			ups[i] = map[string]any{"op": "insert", "p": randPoint()}
		}
		body, err := json.Marshal(map[string]any{"updates": ups})
		if err != nil {
			return nil, 0, err
		}
		bodies[b] = body
		ops += perBatch
	}
	root, err := os.MkdirTemp(scratch, "serve-")
	if err != nil {
		return nil, 0, err
	}
	sopts := server.Options{Root: root, Seed: cfg.Seed, Tracer: tracer}
	if tracer == nil {
		sopts.TraceCapacity = -1 // the untraced baseline the probe compares against
	}
	srv, err := server.New(sopts)
	if err != nil {
		return nil, 0, err
	}
	// Tenant creation (bootstrap build, initial checkpoint) is setup, not
	// measured: the instrumented rep snapshots spans from exec onward.
	_, err = srv.CreateTenant("bench", server.TenantConfig{
		Dim:             dim,
		Bubbles:         sz.bubbles,
		CheckpointEvery: sz.batches + 1,
		Bootstrap:       bootstrap,
	})
	if err != nil {
		return nil, 0, err
	}
	handler := srv.Handler()
	exec := func() error {
		for _, body := range bodies {
			req := httptest.NewRequest(http.MethodPost, "/tenants/bench/batches", bytes.NewReader(body))
			rr := httptest.NewRecorder()
			handler.ServeHTTP(rr, req)
			if rr.Code != http.StatusOK {
				return fmt.Errorf("serve_ingest: status %d: %s", rr.Code, rr.Body.String())
			}
		}
		return srv.Drain(context.Background())
	}
	return exec, ops, nil
}

func opticsSetup(cfg Config, _ string, tracer *trace.Tracer) (func() error, int, error) {
	sz := opticsScale(cfg.Preset)
	sc, err := synth.NewScenario(synth.Config{
		Kind:          synth.Complex,
		InitialPoints: sz.points,
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, 0, err
	}
	set, err := bubble.Build(sc.DB(), sz.bubbles, bubble.Options{
		UseTriangleInequality: true,
		TrackMembers:          true,
		RNG:                   stats.NewRNG(cfg.Seed + 1),
		Workers:               1,
	})
	if err != nil {
		return nil, 0, err
	}
	exec := func() error {
		space, err := optics.NewBubbleSpaceTelemetry(set, 1, nil, tracer)
		if err != nil {
			return err
		}
		res, err := optics.Run(space, optics.Params{MinPts: 10, Tracer: tracer})
		if err != nil {
			return err
		}
		extract.ExtractTree(res.Order, extract.Params{})
		return nil
	}
	return exec, 1, nil
}
