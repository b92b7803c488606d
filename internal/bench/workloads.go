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

// workloads returns the suite in report order. No count depends on the
// machine's core count: the summarizer, WAL and OPTICS workloads pin one
// worker, and serve_ingest's tenant, which sizes its pool from
// GOMAXPROCS, relies on the pipeline's counts being worker-invariant
// (DESIGN.md §7).
func workloads() []workload {
	return []workload{
		// assign: insert/delete churn with stable clusters — the
		// assignment pipeline (search + apply) dominates.
		{name: "assign", setup: summarizerSetup(synth.Random, summarizerScale)},
		// maintain: the §4 complex dynamics — appearing and disappearing
		// clusters drive classify/merge/split maintenance rounds.
		{name: "maintain", setup: summarizerSetup(synth.Complex, summarizerScale)},
		// mergesplit: extreme-appear dynamics at a high update fraction —
		// a merge/split storm.
		{name: "mergesplit", setup: summarizerSetup(synth.ExtremeAppear, stormScale)},
		// mergesplit_bigk: the same storm at large k, where every reseed
		// refreshes an O(k) row of the seed distance matrix — the large-k
		// probe.
		{name: "mergesplit_bigk", setup: summarizerSetup(synth.ExtremeAppear, bigkScale)},
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
		// driven in-process through httptest.
		{name: "serve_ingest", setup: serveIngestSetup},
	}
}

// scale sizes one workload family.
type scale struct {
	points, bubbles, batches int
	frac                     float64
}

var (
	summarizerScale = scale{points: 5000, bubbles: 50, batches: 8, frac: 0.10}
	// stormScale raises the update fraction to force rebuild storms.
	stormScale = scale{points: 5000, bubbles: 50, batches: 8, frac: 0.25}
	// bigkScale sizes the k-scaling storm: few points per bubble, so seed
	// maintenance (not assignment) dominates the distance budget.
	bigkScale   = scale{points: 12288, bubbles: 4096, batches: 2, frac: 0.25}
	walScale    = scale{points: 2500, bubbles: 24, batches: 8, frac: 0.10}
	opticsScale = scale{points: 5000, bubbles: 100}
	// serveScale sizes the serving-path probe: enough updates that the
	// per-request fixed costs (mux, middleware, queue handoff) are
	// measured against real summarization work, small enough to keep the
	// suite quick.
	serveScale = scale{points: 1500, bubbles: 32, batches: 8, frac: 0.10}
)

// workloadBatches regenerates a scenario's initial database and applied
// batches from the pinned seed; the returned DB is a private clone the
// caller replays the batches against.
func workloadBatches(kind synth.Kind, sz scale) (*dataset.DB, []dataset.Batch, error) {
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

func coreOptions(sz scale, tracer *trace.Tracer) core.Options {
	return core.Options{
		NumBubbles:            sz.bubbles,
		UseTriangleInequality: true,
		Seed:                  seed + 1,
		Tracer:                tracer,
		Config:                core.Config{Workers: 1},
	}
}

// summarizerSetup builds an in-memory summarizer workload over the given
// dynamics at scale sz.
func summarizerSetup(kind synth.Kind, sz scale) func(string, *trace.Tracer) (func() error, int, error) {
	return func(_ string, tracer *trace.Tracer) (func() error, int, error) {
		db, batches, err := workloadBatches(kind, sz)
		if err != nil {
			return nil, 0, err
		}
		s, err := core.New(db, coreOptions(sz, tracer))
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

func walAppendSetup(scratch string, tracer *trace.Tracer) (func() error, int, error) {
	db, batches, err := workloadBatches(synth.Complex, walScale)
	if err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(scratch, "wal-append-")
	if err != nil {
		return nil, 0, err
	}
	// The initial checkpoint is written here, untimed; the measured
	// section covers appends, fsyncs, cadence checkpoints and the close.
	s, l, err := wal.New(db, coreOptions(walScale, tracer),
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

func recoverySetup(scratch string, tracer *trace.Tracer) (func() error, int, error) {
	db, batches, err := workloadBatches(synth.Complex, walScale)
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
	s, _, err := wal.New(db, coreOptions(walScale, nil), walOpts)
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
		st, err := wal.Resume(coreOptions(walScale, tracer), resumeOpts)
		if err != nil {
			return err
		}
		return st.Log.Close()
	}
	return exec, len(batches), nil
}

// serveIngestSetup builds a one-tenant bubbled server over a scratch root
// and returns an exec that POSTs pre-marshalled insert batches through the
// real handler stack, then drains. Insert-only traffic keeps the wire
// bodies independent of server-assigned IDs, so the same bodies replay
// bit-identically every run. The tenant runs the serial path with the
// checkpoint cadence pushed past the workload, so the measured section is
// requests plus the drain-time final checkpoint — both deterministic.
func serveIngestSetup(scratch string, tracer *trace.Tracer) (func() error, int, error) {
	const dim = 8
	rng := stats.NewRNG(seed + 11)
	randPoint := func() []float64 {
		p := make([]float64, dim)
		for i := range p {
			p[i] = rng.Normal(0, 1)
		}
		return p
	}
	bootstrap := make([][]float64, serveScale.points)
	for i := range bootstrap {
		bootstrap[i] = randPoint()
	}
	perBatch := int(float64(serveScale.points) * serveScale.frac)
	bodies := make([][]byte, serveScale.batches)
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
	sopts := server.Options{Root: root, Seed: seed, Tracer: tracer}
	if tracer == nil {
		sopts.TraceCapacity = -1 // no per-tenant rings either: tracing off
	}
	srv, err := server.New(sopts)
	if err != nil {
		return nil, 0, err
	}
	// Tenant creation (bootstrap build, initial checkpoint) is setup, not
	// measured: the run snapshots spans from exec onward.
	_, err = srv.CreateTenant("bench", server.TenantConfig{
		Dim:             dim,
		Bubbles:         serveScale.bubbles,
		CheckpointEvery: serveScale.batches + 1,
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

func opticsSetup(_ string, tracer *trace.Tracer) (func() error, int, error) {
	sc, err := synth.NewScenario(synth.Config{
		Kind:          synth.Complex,
		InitialPoints: opticsScale.points,
		Seed:          seed,
	})
	if err != nil {
		return nil, 0, err
	}
	set, err := bubble.Build(sc.DB(), opticsScale.bubbles, bubble.Options{
		UseTriangleInequality: true,
		TrackMembers:          true,
		RNG:                   stats.NewRNG(seed + 1),
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
