package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"time"

	"incbubbles/internal/bubble"
	"incbubbles/internal/dataset"
	"incbubbles/internal/extract"
	"incbubbles/internal/optics"
	"incbubbles/internal/telemetry"
	"incbubbles/internal/trace"
	"incbubbles/internal/wal"
)

// scrape reads bubbled's /metrics page and returns the tenant's counters
// by family name.
func scrape(c *conn) (map[string]float64, error) {
	rp, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if !rp.ok() {
		return nil, fmt.Errorf("/metrics: HTTP %d", rp.status)
	}
	return parseCounters(rp.body, tenant)
}

// parseCounters extracts one tenant's counter samples from a Prometheus
// text exposition, keyed by family name.
func parseCounters(text []byte, tenantName string) (map[string]float64, error) {
	fams, err := telemetry.ParseProm(bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for name, f := range fams {
		if f.Type != "counter" {
			continue
		}
		for _, p := range f.Points {
			if p.Suffix == "" && p.Labels["tenant"] == tenantName {
				out[name] = p.Value
			}
		}
	}
	return out, nil
}

// counterDelta is the change of a telemetry counter between two scrapes.
func counterDelta(a, b map[string]float64, metricName string) float64 {
	n := telemetry.PromName(metricName)
	return b[n] - a[n]
}

// replay is the fingerprint oracle: it rebuilds the tenant from its
// bootstrap through wal.New and applies every acknowledged batch with
// ApplyBatch in ordinal order, under the tenant's explicit seed. It
// returns the fingerprint and the summed time of the batch applications
// (each Replay onto the database plus ApplyBatch with its WAL append).
func (s *serveSession) replay(dir string) ([]byte, time.Duration, error) {
	boot, err := decodeBootstrap(s.plan.create)
	if err != nil {
		return nil, 0, err
	}
	db, err := dataset.New(s.plan.dim)
	if err != nil {
		return nil, 0, err
	}
	for i, p := range boot {
		if _, err := db.Insert(p, 0); err != nil {
			return nil, 0, fmt.Errorf("bootstrap point %d: %w", i, err)
		}
	}
	sum, log, err := wal.New(db, s.coreOptions(), walOptions(dir))
	if err != nil {
		return nil, 0, err
	}
	jo := s.jByOrdinal()
	var total time.Duration
	for o, j := range jo {
		batch, err := decodeBatch(s.plan.bodies[j], s.plan.firstID(o))
		if err != nil {
			_ = log.Close()
			return nil, 0, err
		}
		t0 := time.Now()
		sp := s.tr.Start("bench.replay_batch")
		applied, err := batch.Replay(db)
		if err == nil {
			_, err = sum.ApplyBatch(applied)
		}
		sp.End()
		total += time.Since(t0)
		if err != nil {
			_ = log.Close()
			return nil, 0, fmt.Errorf("replaying ordinal %d: %w", o, err)
		}
	}
	fp, err := wal.Fingerprint(sum)
	if err != nil {
		_ = log.Close()
		return nil, 0, err
	}
	return fp, total, log.Close()
}

// probeSet times what a read of the published summary costs: the
// Save+Load round trip bubbled's publish runs after every batch, and the
// bubble space, OPTICS and extraction /plot runs per request.
type probeSet struct {
	publishMs, spaceMs, runMs, treeMs []float64
	publishBytes                      int
}

func probe(set *bubble.Set, tr *trace.Tracer, reps, minPts int) (*probeSet, error) {
	p := &probeSet{}
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		sp := tr.Start("bench.publish")
		var buf bytes.Buffer
		if err := set.Save(&buf); err != nil {
			return nil, err
		}
		p.publishBytes = buf.Len()
		if _, err := bubble.Load(&buf, bubble.Options{}); err != nil {
			return nil, err
		}
		sp.End()
		t1 := time.Now()
		sp = tr.Start("bench.new_bubble_space")
		space, err := optics.NewBubbleSpace(set)
		sp.End()
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		sp = tr.Start("bench.optics_run")
		res, err := optics.Run(space, optics.Params{MinPts: minPts})
		sp.End()
		if err != nil {
			return nil, err
		}
		t3 := time.Now()
		sp = tr.Start("bench.extract_tree")
		extract.ExtractTree(res.Order, extract.Params{})
		sp.End()
		t4 := time.Now()
		p.publishMs = append(p.publishMs, ms(t1.Sub(t0)))
		p.spaceMs = append(p.spaceMs, ms(t2.Sub(t1)))
		p.runMs = append(p.runMs, ms(t3.Sub(t2)))
		p.treeMs = append(p.treeMs, ms(t4.Sub(t3)))
	}
	return p, nil
}

// plotMinPts is the MinPts GET /plot uses when the request names none.
const plotMinPts = 5

func tracedServe(cfgFor func(int) serveConfig) func(env *runEnv) (*report, error) {
	return func(env *runEnv) (*report, error) {
		cfg := cfgFor(env.seconds)
		plan, err := cfg.makePlan(env.seed)
		if err != nil {
			return nil, err
		}
		rep := newReport()

		// Untraced reference pass on the same inputs, for
		// trace.overhead_frac; its operations and checks are not counted
		// twice.
		ref := newServeSession(env, cfg, plan, nil, newReport())
		if err := ref.setup(1); err != nil {
			return nil, err
		}
		if err := ref.ingestAndDrain(true); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(ref.root); err != nil {
			return nil, err
		}

		tr := newTracer()
		s := newServeSession(env, cfg, plan, tr, rep)
		if err := s.setup(1); err != nil {
			return nil, err
		}
		m0, err := scrape(s.ctl)
		if err != nil {
			return nil, err
		}
		s.ingest(true)
		m1, err := scrape(s.ctl)
		if err != nil {
			return nil, err
		}
		if cfg.ReaderHz == 0 {
			s.probePlots(cfg.PlotProbes)
		}
		if err := s.drain(); err != nil {
			return nil, err
		}
		if err := s.restart(1); err != nil {
			return nil, err
		}

		rs, _, err := s.resume()
		if err != nil {
			return nil, err
		}
		f, err := s.fscore(rs)
		if err != nil {
			return nil, err
		}
		rep.check(f >= cfg.FScoreFloor, "F-score %.4f below the floor %.2f", f, cfg.FScoreFloor)
		want, err := wal.Fingerprint(rs.Summarizer)
		if err != nil {
			return nil, err
		}
		probes, err := probe(rs.Summarizer.Set(), tr, 5, plotMinPts)
		if err != nil {
			return nil, err
		}
		var recovers []float64
		for r := 0; r < cfg.RecoverReps; r++ {
			_, d, err := s.resume()
			if err != nil {
				return nil, err
			}
			recovers = append(recovers, ms(d))
		}
		dir, err := env.freshDir("oracle")
		if err != nil {
			return nil, err
		}
		got, replayTime, err := s.replay(dir)
		if err != nil {
			return nil, err
		}
		rep.check(bytes.Equal(got, want), "fingerprint oracle: replaying the %d acknowledged batches gives another state than wal.Resume over the drained tenant", len(s.ingests))
		env.logf("fingerprint oracle: %d batches replayed, fingerprints equal: %v", len(s.ingests), bytes.Equal(got, want))

		recs := tr.Snapshot()
		rep.check(tr.Dropped() == 0, "the tracer dropped %d spans", tr.Dropped())
		path, err := writeTrace(env, recs)
		if err != nil {
			return nil, err
		}
		env.logf("trace: %d spans written to %s", len(recs), path)
		refRate, _ := ref.throughput()
		s.perLayer(newSpanSet(recs), m0, m1, probes, recovers, replayTime, refRate)
		return rep, nil
	}
}

// perLayer sets the per-layer metrics of a traced serving pass.
func (s *serveSession) perLayer(all *spanSet, m0, m1 map[string]float64, probes *probeSet, recovers []float64, replayTime time.Duration, refRate float64) {
	rep := s.rep
	spans := all.within(s.window[0], s.window[1])
	ls := spans.layers()
	b := len(s.ingests)

	// Match each acknowledged request to bubbled's server.ingest span.
	serverIngest := map[int64]trace.Record{}
	for _, r := range spans.named("server.ingest") {
		if id, ok := r.Attr(trace.AttrRequestID); ok {
			serverIngest[id] = r
		}
	}
	var clientNs, bareNs, waitNs int64
	matched := 0
	for _, c := range spans.named("bench.ingest") {
		id, _ := c.Attr(trace.AttrRequestID)
		srv, ok := serverIngest[id]
		if !ok {
			continue
		}
		matched++
		clientNs += c.Dur
		bareNs += c.Dur - covered([][2]int64{{srv.Start, srv.Start + srv.Dur}}, c.Start, c.Start+c.Dur)
		if w, ok := srv.Attr(trace.AttrQueueWait); ok {
			waitNs += w
		}
	}
	rep.check(matched == b, "only %d of %d ingest requests matched a server.ingest span", matched, b)
	rep.set("server.http_ms", ratio(float64(bareNs)/1e6, float64(matched)), "ms", matched)
	rep.set("server.queue_wait_ms", ratio(float64(waitNs)/1e6, float64(matched)), "ms", matched)
	rep.set("server.publish_ms", median(probes.publishMs), "ms", len(probes.publishMs))
	rep.set("server.publish_bytes", float64(probes.publishBytes), "bytes", 1)
	rep.set("server.tax_ratio", ratio(float64(clientNs), float64(replayTime)), "ratio", b)

	hits, specced := 0, 0
	for _, r := range spans.named("core.batch") {
		if v, ok := r.Attr(trace.AttrSpecHit); ok {
			specced++
			if v == 1 {
				hits++
			}
		}
	}
	rep.set("pipeline.spec_ms", ls.selfMsPer("core.search.spec", b), "ms", ls.count["core.search.spec"])
	rep.set("pipeline.stall_ms", ls.selfMsPer("core.pipeline.stall", b), "ms", ls.count["core.pipeline.stall"])
	rep.set("pipeline.spec_hit_ratio", ratio(float64(hits), float64(specced)), "ratio", specced)

	rep.set("wal.fsyncs_per_batch", counterDelta(m0, m1, telemetry.MetricWALSyncs)/float64(b), "count", b)
	rep.set("wal.fsync_ms", ls.meanMs("wal.fsync"), "ms", ls.count["wal.fsync"])
	rep.set("wal.checkpoint_ms", ls.meanMs("wal.checkpoint"), "ms", ls.count["wal.checkpoint"])
	rep.set("wal.checkpoint_bytes", ratio(counterDelta(m0, m1, telemetry.MetricWALCheckpointBytes), counterDelta(m0, m1, telemetry.MetricWALCheckpoints)), "bytes", int(counterDelta(m0, m1, telemetry.MetricWALCheckpoints)))
	rep.set("wal.recover_ms", median(recovers), "ms", len(recovers))

	rep.set("core.search_ms", ls.selfMsPer("core.search", b), "ms", b)
	rep.set("core.apply_ms", ls.selfMsPer("core.apply", b), "ms", b)
	rep.set("core.maintain_ms", ls.selfMsPer("core.maintain", b), "ms", b)
	computed := counterDelta(m0, m1, telemetry.MetricDistanceComputed)
	pruned := counterDelta(m0, m1, telemetry.MetricDistancePruned)
	rep.set("core.dist_per_update", computed/float64(s.updates), "count", s.updates)
	rep.set("core.prune_ratio", ratio(pruned, pruned+computed), "ratio", s.updates)
	rep.set("core.rebuilt_per_batch", counterDelta(m0, m1, telemetry.MetricCoreRebuilt)/float64(b), "count", b)

	rep.set("optics.space_ms", median(probes.spaceMs), "ms", len(probes.spaceMs))
	rep.set("optics.run_ms", median(probes.runMs), "ms", len(probes.runMs))
	rep.set("extract.tree_ms", median(probes.treeMs), "ms", len(probes.treeMs))

	rep.set("runtime.alloc_bytes_per_update", (s.rt1.allocBytes-s.rt0.allocBytes)/float64(s.updates), "bytes", s.updates)
	rep.set("runtime.gc_cpu_frac", gcFrac(s.rt0, s.rt1), "ratio", 1)
	if s.cfg.ReaderHz > 0 {
		rep.set("client.late_ms", quantile(s.late, 0.95), "ms", len(s.late))
	} else {
		notOnPath(rep, []string{"client.late_ms"})
	}
	rep.set("trace.unattributed_frac", ratio(float64(bareNs), float64(clientNs)), "ratio", matched)
	rate, _ := s.throughput()
	rep.set("trace.overhead_frac", refRate/rate-1, "ratio", 2)
}
