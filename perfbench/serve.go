package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"incbubbles/internal/core"
	"incbubbles/internal/dataset"
	"incbubbles/internal/eval"
	"incbubbles/internal/extract"
	"incbubbles/internal/optics"
	"incbubbles/internal/trace"
	"incbubbles/internal/wal"
)

// serveConfig sizes one serving workload.
type serveConfig struct {
	makePlan    func(seed int64) (*servePlan, error)
	Writers     int     // closed-loop writer connections
	ReaderHz    float64 // open-loop GET /plot rate on its own connection; 0 = no reader
	PlotProbes  int     // closed-loop GET /plot after the writers stop, when there is no reader
	SetupReps   int     // bubbled starts timed for setup_s, each in a fresh directory
	RestartReps int     // drained restarts timed for restart_s, each over a fresh copy
	RecoverReps int     // wal.Resume calls timed for wal.recover_ms (traced run)
	MinPts      int     // OPTICS MinPts of the F-score clustering
	FScoreFloor float64
	MinTail     int // samples required beyond ingest_p95_ms
}

// Batches per second of run length. On a quiet 2-vCPU host about 21
// trickle and 13 window batches complete per second; 25 trickle batches
// per second of run length leave ten samples beyond ingest_p95_ms in
// the quieter half of the batches.
const (
	trickleBatchesPerSecond = 25
	windowBatchesPerSecond  = 14
)

// trickleConfig: one tenant bootstrapped with 50,000 2-d Complex points
// under 500 bubbles; one closed-loop writer of 50-update churn batches
// and one open-loop reader of GET /plot at 4/s.
func trickleConfig(seconds int) serveConfig {
	sh := serveShape{Dim: 2, Points: 50000, Bubbles: 500, BatchUpdates: 50, Batches: seconds * trickleBatchesPerSecond}
	return serveConfig{
		makePlan: func(seed int64) (*servePlan, error) { return makeTricklePlan(seed, sh) },
		Writers:  1, ReaderHz: 4,
		SetupReps: 3, RestartReps: 21, RecoverReps: 3,
		MinPts: 10, FScoreFloor: fscoreFloor, MinTail: 10,
	}
}

// windowConfig: one tenant holding a 60,000-point 8-d sliding window
// under 600 bubbles; two closed-loop writers of 2,000-update batches.
func windowConfig(seconds int) serveConfig {
	sh := serveShape{Dim: 8, Points: 60000, Bubbles: 600, BatchUpdates: 2000, Batches: seconds * windowBatchesPerSecond}
	return serveConfig{
		makePlan: func(seed int64) (*servePlan, error) { return makeWindowPlan(seed, sh) },
		Writers:  2, PlotProbes: 30,
		SetupReps: 3, RestartReps: 21, RecoverReps: 3,
		MinPts: 10, FScoreFloor: fscoreFloor, MinTail: 10,
	}
}

// ingestRec is one acknowledged batch.
type ingestRec struct {
	j       int // index in send order
	ordinal int
	lat     sample // round trip, ms
}

// serveSession runs one serving workload pass against one bubbled.
type serveSession struct {
	env  *runEnv
	cfg  serveConfig
	plan *servePlan
	tr   *trace.Tracer
	rep  *report

	root string
	proc *bubbledProc
	ctl  *conn // the first writer's connection, also used between phases

	setups   []float64 // s, undisturbed repetitions
	ingests  []ingestRec
	plots    []sample  // ms
	late     []float64 // ms
	restarts []float64 // s, undisturbed repetitions
	timed    time.Duration
	updates  int
	heapMB   float64
	window   [2]int64 // tracer clock bounds of the timed section
	rt0, rt1 rtSample
	before   tenantStatus // status just before the drain
}

func newServeSession(env *runEnv, cfg serveConfig, plan *servePlan, tr *trace.Tracer, rep *report) *serveSession {
	return &serveSession{env: env, cfg: cfg, plan: plan, tr: tr, rep: rep}
}

// setup times bubbled's start through the reply to the tenant's PUT —
// bootstrap decode, the static build and the initial checkpoint — each
// time in a fresh directory, until reps starts were undisturbed by the
// host, and keeps the last server running.
func (s *serveSession) setup(reps int) error {
	var err error
	s.setups, err = s.env.repeatClean(reps, 2*reps, func() (sample, error) {
		if err := s.discard(); err != nil {
			return sample{}, err
		}
		root, err := s.env.freshDir("setup")
		if err != nil {
			return sample{}, err
		}
		settle()
		m0 := time.Now()
		sp := s.tr.Start("bench.setup")
		proc, err := startBubbled(root, s.tr)
		if err != nil {
			return sample{}, err
		}
		c := newConn(proc.base)
		rp, err := c.do(http.MethodPut, "/tenants/"+tenant, s.plan.create)
		sp.End()
		m1 := time.Now()
		s.root, s.proc, s.ctl = root, proc, c
		if err != nil || rp.status != http.StatusCreated {
			return sample{}, fmt.Errorf("creating the tenant: HTTP %d %s: %v", rp.status, rp.body, err)
		}
		var st tenantStatus
		if err := json.Unmarshal(rp.body, &st); err != nil {
			return sample{}, err
		}
		s.rep.check(st.Points == s.plan.boot && st.Applied == 0,
			"created tenant has %d points and %d batches, want %d and 0", st.Points, st.Applied, s.plan.boot)
		return s.env.sample(m1.Sub(m0).Seconds(), m0, m1), nil
	})
	return err
}

// discard stops the session's bubbled, if one runs, and removes its
// directory.
func (s *serveSession) discard() error {
	if s.proc == nil {
		return nil
	}
	s.ctl.close()
	err := s.proc.stop()
	s.proc, s.ctl = nil, nil
	return errors.Join(err, os.RemoveAll(s.root))
}

// ingest is the timed section: the writers post every batch, closed
// loop, while the reader (if any) sends GET /plot open loop. Unless
// keepBodies is set, each request body is released once acknowledged and
// the bootstrap before the section starts, so heap_mb measures bubbled
// and not the benchmark's inputs.
func (s *serveSession) ingest(keepBodies bool) {
	bodies := s.plan.bodies
	if !keepBodies {
		s.plan.create = nil
	}
	conns := []*conn{s.ctl}
	for w := 1; w < s.cfg.Writers; w++ {
		conns = append(conns, newConn(s.proc.base))
	}
	var (
		mu      sync.Mutex
		next    int
		halted  bool
		ordSeen = make(map[int]bool)
		wg      sync.WaitGroup
	)
	post := "/tenants/" + tenant + "/batches"
	settle()
	s.rt0 = readRuntime()
	s.window[0] = s.tr.Now()
	s.env.diag.beginTimed()
	start := time.Now()
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	if s.cfg.ReaderHz > 0 {
		readerWG.Add(1)
		rc := newConn(s.proc.base)
		go func() {
			defer readerWG.Done()
			defer rc.close()
			s.reader(rc, start, stop, &mu)
		}()
	}
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for {
				mu.Lock()
				if halted || next >= len(bodies) {
					mu.Unlock()
					return
				}
				j := next
				next++
				body := bodies[j]
				mu.Unlock()

				sp := s.tr.Start("bench.ingest")
				m0 := time.Now()
				rp, err := c.do(http.MethodPost, post, body)
				m1 := time.Now()
				sp.SetInt(trace.AttrRequestID, rp.reqID)
				sp.End()

				mu.Lock()
				if !keepBodies {
					bodies[j] = nil
				}
				s.rep.attempted++
				if err != nil || rp.status != http.StatusOK {
					s.rep.failed++
					// Later batches may delete IDs this one inserts, so
					// the writers stop; the checks cover what was acknowledged.
					s.env.logf("batch %d failed, the writers stop: HTTP %d %s: %v", j, rp.status, rp.body, err)
					halted = true
					mu.Unlock()
					return
				}
				s.checkAck(j, rp, ordSeen, s.env.sample(ms(m1.Sub(m0)), m0, m1))
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	s.timed = time.Since(start)
	close(stop)
	readerWG.Wait()
	s.env.diag.endTimed(s.timed)
	s.window[1] = s.tr.Now()
	s.rt1 = readRuntime()
	for _, c := range conns[1:] {
		c.close()
	}
	s.heapMB = heapMB()
}

// checkAck verifies one ingest reply against the plan and records it.
// The caller holds the ingest lock.
func (s *serveSession) checkAck(j int, rp reply, ordSeen map[int]bool, lat sample) {
	var ir ingestReply
	if err := json.Unmarshal(rp.body, &ir); err != nil {
		s.rep.check(false, "batch %d: undecodable reply %q", j, rp.body)
		return
	}
	o := ir.Ordinal
	s.rep.check(o >= 0 && o < len(s.plan.bodies) && !ordSeen[o], "batch %d: ordinal %d out of range or repeated", j, o)
	ordSeen[o] = true
	if s.cfg.Writers == 1 {
		s.rep.check(o == j, "batch %d: ordinal %d, want %d", j, o, j)
	}
	want := s.plan.firstID(o)
	s.rep.check(ir.FirstID != nil && *ir.FirstID == want, "batch %d (ordinal %d): first_id %v, want %d", j, o, ptrVal(ir.FirstID), want)
	s.rep.check(ir.Applied == o+1, "batch %d: applied %d with ordinal %d", j, ir.Applied, o)
	s.rep.check(ir.Inserted == s.plan.inserts[j] && ir.Deleted == s.plan.deletes[j],
		"batch %d: %d inserted and %d deleted, want %d and %d", j, ir.Inserted, ir.Deleted, s.plan.inserts[j], s.plan.deletes[j])
	s.ingests = append(s.ingests, ingestRec{j: j, ordinal: o, lat: lat})
	s.updates += s.plan.inserts[j] + s.plan.deletes[j]
}

func ptrVal(p *uint64) any {
	if p == nil {
		return "none"
	}
	return *p
}

// reader sends GET /plot at ReaderHz from start until stop, each timed
// from when it was due, so a stall also counts against the requests
// queued behind it.
func (s *serveSession) reader(c *conn, start time.Time, stop <-chan struct{}, mu *sync.Mutex) {
	period := time.Duration(float64(time.Second) / s.cfg.ReaderHz)
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-stop:
				t.Stop()
				return
			case <-t.C:
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		m0 := time.Now()
		sp := s.tr.Start("bench.plot")
		rp, err := c.do(http.MethodGet, "/tenants/"+tenant+"/plot", nil)
		sp.End()
		m1 := time.Now()
		mu.Lock()
		s.rep.attempted++
		if err != nil || !rp.ok() {
			s.rep.failed++
			s.env.logf("plot %d failed: HTTP %d %s: %v", k, rp.status, rp.body, err)
		} else {
			s.checkPlot(rp.body, -1)
			s.plots = append(s.plots, s.env.sample(ms(m1.Sub(due)), m0, m1))
			s.late = append(s.late, ms(m0.Sub(due)))
		}
		mu.Unlock()
	}
}

// checkPlot verifies a /plot reply: its total weight must equal the
// point count at its applied ordinal, and with wantApplied ≥ 0 the
// ordinal must be that.
func (s *serveSession) checkPlot(body []byte, wantApplied int) {
	var pr plotReply
	if err := json.Unmarshal(body, &pr); err != nil {
		s.rep.check(false, "undecodable plot reply: %v", err)
		return
	}
	s.rep.check(wantApplied < 0 || pr.Applied == wantApplied, "plot at applied %d, want %d", pr.Applied, wantApplied)
	want := s.plan.pointsAfter(pr.Applied)
	s.rep.check(pr.TotalWeight == want, "plot at applied %d has total weight %d, want %d", pr.Applied, pr.TotalWeight, want)
}

// probePlots times closed-loop GET /plot on the final summary, for the
// workload without a concurrent reader, once the writers' garbage is
// collected and their checkpoint writes are on disk.
func (s *serveSession) probePlots(n int) {
	settle()
	for i := 0; i < n; i++ {
		m0 := time.Now()
		sp := s.tr.Start("bench.plot")
		rp, err := s.ctl.do(http.MethodGet, "/tenants/"+tenant+"/plot", nil)
		sp.End()
		m1 := time.Now()
		s.rep.attempted++
		if err != nil || !rp.ok() {
			s.rep.failed++
			s.env.logf("plot probe %d failed: HTTP %d %s: %v", i, rp.status, rp.body, err)
			continue
		}
		s.checkPlot(rp.body, len(s.ingests))
		s.plots = append(s.plots, s.env.sample(ms(m1.Sub(m0)), m0, m1))
	}
}

// drain checks the final /status, keeps it as the state every restart
// must reproduce, and drains bubbled.
func (s *serveSession) drain() error {
	st, err := s.ctl.status()
	if err != nil {
		return err
	}
	s.checkFinal(st)
	s.before = st
	s.ctl.close()
	err = s.proc.stop()
	s.proc, s.ctl = nil, nil
	return err
}

// checkFinal verifies the final /status: every acknowledged batch
// applied, the expected point count, and a healthy tenant.
func (s *serveSession) checkFinal(st tenantStatus) {
	acked := len(s.ingests)
	s.rep.check(st.Applied == acked, "final status has %d batches, want %d", st.Applied, acked)
	s.rep.check(st.Points == s.plan.pointsAfter(acked), "final status has %d points, want %d", st.Points, s.plan.pointsAfter(acked))
	s.rep.check(!st.ReadOnly, "tenant is read-only: %s", st.Reason)
}

// restart times bubbled over a fresh copy of the drained root until it
// serves and /status equals the status before the drain, until reps
// restarts were undisturbed by the host.
func (s *serveSession) restart(reps int) error {
	r := 0
	var err error
	s.restarts, err = s.env.repeatClean(reps, 3*reps, func() (sample, error) {
		r++
		dir, err := s.env.freshDir("restart")
		if err != nil {
			return sample{}, err
		}
		if err := copyTree(s.root, dir); err != nil {
			return sample{}, err
		}
		settle()
		m0 := time.Now()
		sp := s.tr.Start("bench.restart")
		proc, err := startBubbled(dir, s.tr)
		if err != nil {
			return sample{}, err
		}
		c := newConn(proc.base)
		for {
			st, err := c.status()
			if err == nil && st == s.before {
				break
			}
			if time.Since(m0) > 30*time.Second {
				s.rep.check(false, "restart %d: status %+v (%v), want %+v", r, st, err, s.before)
				break
			}
			time.Sleep(time.Millisecond)
		}
		sp.End()
		m1 := time.Now()
		c.close()
		if err := proc.stop(); err != nil {
			return sample{}, err
		}
		return s.env.sample(m1.Sub(m0).Seconds(), m0, m1), os.RemoveAll(dir)
	})
	return err
}

// coreOptions are the tenant's summarizer options as bubbled builds them.
func (s *serveSession) coreOptions() core.Options {
	return core.Options{NumBubbles: s.plan.bubbles, UseTriangleInequality: true, Seed: s.plan.tenantSeed}
}

// walOptions are the tenant's serial-path WAL options at dir.
func walOptions(dir string) wal.Options {
	d := bubbledDefaults()
	return wal.Options{Dir: dir, CheckpointEvery: d.CheckpointEvery, KeepCheckpoints: d.KeepCheckpoints}
}

// resume recovers the drained tenant with wal.Resume over a fresh copy
// of its WAL directory and reports how long the call took.
func (s *serveSession) resume() (*wal.RecoveredState, time.Duration, error) {
	dir, err := s.env.freshDir("resume")
	if err != nil {
		return nil, 0, err
	}
	if err := copyTree(filepath.Join(s.root, tenant, "wal"), dir); err != nil {
		return nil, 0, err
	}
	settle()
	t0 := time.Now()
	sp := s.tr.Start("bench.wal_resume")
	rs, err := wal.Resume(s.coreOptions(), walOptions(dir))
	sp.End()
	d := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	return rs, d, rs.Log.Close()
}

// labelOf returns the ground-truth label of a server-assigned point ID.
func (s *serveSession) labelOf(id dataset.PointID, jByOrdinal []int) (int, bool) {
	p := s.plan
	if int(id) < p.boot {
		return p.bootLabels[id], true
	}
	off := int(id) - p.boot
	o, k := off/p.insPer, off%p.insPer
	if o >= len(jByOrdinal) {
		return 0, false
	}
	return p.insLabels[jByOrdinal[o]][k], true
}

// jByOrdinal maps each acknowledged ordinal to its batch index.
func (s *serveSession) jByOrdinal() []int {
	out := make([]int, len(s.ingests))
	for _, r := range s.ingests {
		if r.ordinal < len(out) {
			out[r.ordinal] = r.j
		}
	}
	return out
}

// fscore scores the recovered summary's clustering against the
// generator's ground truth, checking that the recovered database holds
// exactly the expected number of points, all of them known IDs.
func (s *serveSession) fscore(rs *wal.RecoveredState) (float64, error) {
	acked := len(s.ingests)
	s.rep.check(rs.Batches == acked, "recovered tenant is at batch %d, want %d", rs.Batches, acked)
	s.rep.check(rs.DB.Len() == s.plan.pointsAfter(acked), "recovered tenant has %d points, want %d", rs.DB.Len(), s.plan.pointsAfter(acked))
	set := rs.Summarizer.Set()
	space, err := optics.NewBubbleSpace(set)
	if err != nil {
		return 0, err
	}
	res, err := optics.Run(space, optics.Params{MinPts: s.cfg.MinPts})
	if err != nil {
		return 0, err
	}
	found, err := eval.PointLabels(set, res, extract.ExtractTree(res.Order, extract.Params{}))
	if err != nil {
		return 0, err
	}
	jo := s.jByOrdinal()
	truth := make([]int, 0, rs.DB.Len())
	flat := make([]int, 0, rs.DB.Len())
	unknown := 0
	rs.DB.ForEach(func(r dataset.Record) {
		l, ok := s.labelOf(r.ID, jo)
		if !ok {
			unknown++
			return
		}
		truth = append(truth, l)
		if f, ok := found[r.ID]; ok {
			flat = append(flat, f)
		} else {
			flat = append(flat, eval.Noise)
		}
	})
	s.rep.check(unknown == 0, "recovered tenant holds %d points the generator never sent", unknown)
	return eval.FScore(truth, flat)
}

// endToEnd sets the end-to-end metrics of a full pass.
func (s *serveSession) endToEnd(f float64) {
	lat := s.latencies()
	clean, plots := quietHalf(lat), quietHalf(s.plots)
	tail := cleanValues(lat, max(p95Need(s.cfg.MinTail), len(clean)))
	s.rep.check(tailOK(len(tail), s.cfg.MinTail), "only %d batches: ingest_p95_ms needs %d samples beyond it", len(tail), s.cfg.MinTail)
	s.rep.set("setup_s", median(s.setups), "s", len(s.setups))
	rate, updates := s.throughput()
	s.rep.set("updates_per_s", rate, "1/s", updates)
	s.rep.set("ingest_p50_ms", median(clean), "ms", len(clean))
	s.rep.set("ingest_p95_ms", quantile(tail, 0.95), "ms", len(tail))
	s.rep.set("plot_p50_ms", median(plots), "ms", len(plots))
	s.rep.set("restart_s", median(s.restarts), "s", len(s.restarts))
	s.rep.set("heap_mb", s.heapMB, "MB", 1)
	s.rep.check(f >= s.cfg.FScoreFloor, "F-score %.4f below the floor %.2f", f, s.cfg.FScoreFloor)
	s.rep.set("fscore", f, "ratio", 1)
	if s.cfg.ReaderHz > 0 {
		s.env.logf("reader: plot lateness p95 %.3f ms over %d plots", quantile(s.late, 0.95), len(s.late))
	}
}

// throughput is acknowledged updates per second. The writers form a
// closed loop without think time, so by Little's law the rate is the
// number of writers times updates over summed round-trip time; summing
// only the batches the host disturbed least (quietHalf) keeps a steal
// episode from setting the figure. Every batch of a workload carries the
// same number of updates.
func (s *serveSession) throughput() (updatesPerS float64, batches int) {
	sel := quietHalf(s.latencies())
	return float64(s.cfg.Writers) * rate(sel, s.updates, len(s.ingests)), len(sel)
}

// latencies are the acknowledged batches' round trips.
func (s *serveSession) latencies() []sample {
	lat := make([]sample, len(s.ingests))
	for i, r := range s.ingests {
		lat[i] = r.lat
	}
	return lat
}

// fullPass runs the whole measurement: set-up repetitions, the timed
// section, the post-run checks, the drain and the restart repetitions.
// The returned session's bubbled is stopped; its drained root remains.
func fullPass(env *runEnv, cfg serveConfig, plan *servePlan, tr *trace.Tracer, rep *report) (*serveSession, error) {
	s := newServeSession(env, cfg, plan, tr, rep)
	if err := s.setup(cfg.SetupReps); err != nil {
		return nil, err
	}
	if err := s.ingestAndDrain(tr != nil); err != nil {
		return nil, err
	}
	if err := s.restart(cfg.RestartReps); err != nil {
		return nil, err
	}
	return s, nil
}

// ingestAndDrain is the timed section, the plot probes and the drain.
func (s *serveSession) ingestAndDrain(keepBodies bool) error {
	s.ingest(keepBodies)
	if s.cfg.ReaderHz == 0 {
		s.probePlots(s.cfg.PlotProbes)
	}
	return s.drain()
}

func timedServe(cfgFor func(int) serveConfig) func(env *runEnv) (*report, error) {
	return func(env *runEnv) (*report, error) {
		cfg := cfgFor(env.seconds)
		plan, err := cfg.makePlan(env.seed)
		if err != nil {
			return nil, err
		}
		rep := newReport()
		s, err := fullPass(env, cfg, plan, nil, rep)
		if err != nil {
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
		s.endToEnd(f)
		return rep, nil
	}
}
