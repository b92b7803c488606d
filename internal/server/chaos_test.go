package server

// Service-level chaos harness (DESIGN.md §15): the acceptance proof that
// bubbled is fault-tolerant end to end. Each cell runs the same
// three-tenant workload against a fresh server with one WAL/checkpoint
// failpoint armed, lets the fault land mid-ingest, kills the server
// exactly as a crash would (no drain, no close — only its write-behind
// checkpoints are waited out), restarts over the same root, re-drives
// each tenant's unacked suffix from its reported applied count, drains,
// and finally proves every tenant's recovered state bit-identical to an
// unkilled oracle via wal.Fingerprint. Absorbed cells (retryable
// checkpoint faults) must instead complete with no degradation at all.
//
// A smoke subset runs by default; the full matrix over every failpoint
// runs with INCBUBBLES_CRASH=1.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"
	"testing"

	"incbubbles/internal/dataset"
	"incbubbles/internal/failpoint"
	"incbubbles/internal/telemetry"
	"incbubbles/internal/wal"
)

const chaosEnv = "INCBUBBLES_CRASH"

const (
	chaosDim      = 2
	chaosBubbles  = 6
	chaosBootN    = 12
	chaosBatches  = 6
	chaosPerBatch = 20
)

type chaosTenant struct {
	name      string
	seed      int64 // summarizer seed
	ckptEvery int   // checkpoint cadence in batches
	bseed     int64 // bootstrap generator seed
	wseed     int64 // workload generator seed
}

// Append failpoints land on whichever tenant reaches the armed hit,
// t0 first. The third tenant checkpoints after every batch, so its first
// write-behind checkpoint comes due a batch before anyone else's — the
// checkpoint failpoints armed at hit 1 land on it — and each of its
// checkpoints comes due while the previous one may still be written.
var chaosTenants = []chaosTenant{
	{name: "t0", seed: 101, ckptEvery: 2, bseed: 31, wseed: 51},
	{name: "t1", seed: 102, ckptEvery: 2, bseed: 33, wseed: 53},
	{name: "t2", seed: 103, ckptEvery: 1, bseed: 37, wseed: 57},
}

func chaosWorkload(tn chaosTenant) []dataset.Batch {
	return mkBatches(chaosDim, chaosBatches, chaosPerBatch, tn.wseed, chaosBootN)
}

func chaosConfig(tn chaosTenant) TenantConfig {
	return TenantConfig{
		Dim:             chaosDim,
		Bubbles:         chaosBubbles,
		Seed:            tn.seed,
		QueueDepth:      8,
		CheckpointEvery: tn.ckptEvery,
		KeepCheckpoints: 2,
		RetryAttempts:   3,
		Bootstrap:       mkBootstrap(chaosDim, chaosBootN, tn.bseed),
	}
}

// The oracle fingerprints are a pure function of the workload, so they
// are computed once and shared by every cell. sync.Once instead of
// t.TempDir keeps the scratch dirs out of any one test's cleanup.
var (
	chaosOracleOnce sync.Once
	chaosOracleFPs  map[string][]byte
	chaosOracleErr  error
)

func chaosOracle(t *testing.T) map[string][]byte {
	t.Helper()
	chaosOracleOnce.Do(func() {
		fps := make(map[string][]byte, len(chaosTenants))
		for _, tn := range chaosTenants {
			dir, err := os.MkdirTemp("", "chaos-oracle-*")
			if err != nil {
				chaosOracleErr = err
				return
			}
			fp, err := oracleFingerprint(tn, dir)
			_ = os.RemoveAll(dir)
			if err != nil {
				chaosOracleErr = fmt.Errorf("oracle %s: %w", tn.name, err)
				return
			}
			fps[tn.name] = fp
		}
		chaosOracleFPs = fps
	})
	if chaosOracleErr != nil {
		t.Fatalf("oracle: %v", chaosOracleErr)
	}
	return chaosOracleFPs
}

// oracleFingerprint runs one tenant's whole workload through the durable
// library path, uninterrupted — the target every chaos cell must
// converge back to.
func oracleFingerprint(tn chaosTenant, dir string) ([]byte, error) {
	db := dataset.MustNew(chaosDim)
	for _, p := range mkBootstrap(chaosDim, chaosBootN, tn.bseed) {
		if _, err := db.Insert(p, 0); err != nil {
			return nil, err
		}
	}
	s, l, err := wal.New(db, oracleCoreOpts(chaosBubbles, tn.seed), wal.Options{
		Dir: dir, CheckpointEvery: 2, KeepCheckpoints: 2,
	})
	if err != nil {
		return nil, err
	}
	defer l.Close()
	for i, b := range chaosWorkload(tn) {
		applied, err := b.Replay(db)
		if err != nil {
			return nil, fmt.Errorf("batch %d replay: %w", i, err)
		}
		if _, err := s.ApplyBatchContext(context.Background(), applied); err != nil {
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
	}
	return wal.Fingerprint(s)
}

type chaosCell struct {
	name  string
	point string
	mode  string // "crash" | "torn" | "error" | "tornerror" | "nospace"
	hit   int
	// absorb cells must complete the whole workload with no tenant
	// degraded — the fault is absorbed by a documented retry path.
	absorb bool
	// wantMetric, when set, names a per-tenant counter that must have
	// advanced somewhere — the proof the fault actually fired and was
	// absorbed by the intended machinery rather than never landing.
	wantMetric string
	smoke      bool
}

func (c chaosCell) arm(reg *failpoint.Registry) {
	switch c.mode {
	case "crash":
		reg.ArmCrash(c.point, c.hit)
	case "torn":
		reg.ArmTorn(c.point, c.hit)
	case "tornerror":
		reg.ArmTornError(c.point, c.hit, nil)
	case "nospace":
		reg.ArmError(c.point, c.hit, failpoint.ErrNoSpace)
	default:
		reg.ArmError(c.point, c.hit, nil)
	}
}

func chaosCells() []chaosCell {
	return []chaosCell{
		// Serial append faults: the victim tenant poisons (torn frame,
		// ENOSPC) or crash-degrades; the other two tenants never notice.
		{name: "append-torn-serial", point: wal.FailAppendWrite, mode: "torn", hit: 5, smoke: true},
		{name: "append-crash-serial", point: wal.FailAppendWrite, mode: "crash", hit: 3},
		{name: "append-sync-crash", point: wal.FailAppendSync, mode: "crash", hit: 4},
		{name: "append-enospc", point: wal.FailAppendNoSpace, mode: "nospace", hit: 4, smoke: true},
		{name: "append-enospc-torn", point: wal.FailAppendNoSpace, mode: "tornerror", hit: 2},

		// Write-behind checkpoint faults, on the third tenant at hit 1
		// and on t0 at hit 2. Retryable errors are absorbed in place by
		// the WAL's bounded seeded-backoff retry on the writer goroutine —
		// no tenant ever degrades. A crash in the background write, or in
		// the rotation and GC that follow the install, surfaces at the
		// tenant's next batch and degrades it.
		{name: "ckpt-rename-absorbed", point: wal.FailCkptRename, mode: "error", hit: 1, absorb: true,
			wantMetric: telemetry.MetricWALCheckpointRetries, smoke: true},
		{name: "ckpt-enospc-absorbed", point: wal.FailCheckpointNoSpace, mode: "tornerror", hit: 1, absorb: true,
			wantMetric: telemetry.MetricWALCheckpointRetries},
		{name: "ckpt-write-crash", point: wal.FailCkptWrite, mode: "crash", hit: 1},
		{name: "writebehind-write-torn", point: wal.FailCkptWrite, mode: "torn", hit: 2, smoke: true},
		{name: "writebehind-sync-crash", point: wal.FailCkptSync, mode: "crash", hit: 2, smoke: true},
		{name: "writebehind-gc-crash", point: wal.FailCkptGC, mode: "crash", hit: 1},
		{name: "writebehind-rotate-crash", point: wal.FailCkptRotate, mode: "crash", hit: 1},
		{name: "async-ckpt-rename-crash", point: wal.FailCkptRename, mode: "crash", hit: 1, smoke: true},
	}
}

func TestServiceChaosMatrix(t *testing.T) {
	full := os.Getenv(chaosEnv) == "1"
	for _, cell := range chaosCells() {
		cell := cell
		if !full && !cell.smoke {
			continue
		}
		t.Run(cell.name, func(t *testing.T) {
			runChaosCell(t, cell)
		})
	}
}

// ingestChaos posts one batch, retrying transient failures (a one-shot
// injected error on a healthy log surfaces as a 500 and the client
// simply tries again). It returns the degradation reason when the
// tenant went read-only, "" on success.
func ingestChaos(t *testing.T, e *testEnv, name string, batch dataset.Batch) string {
	t.Helper()
	for attempt := 0; attempt < 4; attempt++ {
		resp, body := e.ingest(t, name, batch)
		switch resp.StatusCode {
		case http.StatusOK:
			return ""
		case http.StatusServiceUnavailable:
			return fmt.Sprint(body["reason"])
		case http.StatusTooManyRequests, http.StatusInternalServerError:
			continue
		default:
			t.Fatalf("tenant %s: unexpected ingest status %d: %v", name, resp.StatusCode, body)
		}
	}
	t.Fatalf("tenant %s: batch never ingested after retries", name)
	return ""
}

func runChaosCell(t *testing.T, cell chaosCell) {
	oracle := chaosOracle(t)
	root := t.TempDir()
	reg := failpoint.New(7)
	e := newTestEnv(t, Options{Root: root, Seed: 9, Failpoints: reg})
	workloads := make(map[string][]dataset.Batch, len(chaosTenants))
	for _, tn := range chaosTenants {
		e.createTenant(t, tn.name, chaosConfig(tn))
		workloads[tn.name] = chaosWorkload(tn)
	}

	// Arm only after every tenant is up: creation must never be the
	// victim, the mid-ingest kill is the contract under test.
	cell.arm(reg)

	faulted := make(map[string]string)
	for b := 0; b < chaosBatches; b++ {
		for _, tn := range chaosTenants {
			if _, dead := faulted[tn.name]; dead {
				continue
			}
			if reason := ingestChaos(t, e, tn.name, workloads[tn.name][b]); reason != "" {
				faulted[tn.name] = reason
			}
		}
	}

	if cell.absorb {
		if len(faulted) != 0 {
			t.Fatalf("absorbed cell degraded tenants: %v", faulted)
		}
		if reg.Hits(cell.point) == 0 {
			t.Fatalf("failpoint %s never evaluated", cell.point)
		}
		if cell.wantMetric != "" {
			var total uint64
			for _, tn := range chaosTenants {
				tt, err := e.srv.Tenant(tn.name)
				if err != nil {
					t.Fatal(err)
				}
				total += tt.sink.Counter(cell.wantMetric).Value()
			}
			if total == 0 {
				t.Fatalf("metric %s never advanced; fault not absorbed by the intended path", cell.wantMetric)
			}
		}
		if err := e.srv.Drain(context.Background()); err != nil {
			t.Fatalf("drain: %v", err)
		}
		verifyChaosFingerprints(t, root, oracle)
		return
	}

	if len(faulted) == 0 {
		t.Fatalf("fault %s/%s hit %d never landed", cell.point, cell.mode, cell.hit)
	}
	// Every non-faulted tenant finished its whole workload with 200s
	// (ingestChaos fatals otherwise) — the isolation half of the proof.
	for name, reason := range faulted {
		t.Logf("tenant %s degraded: %s", name, reason)
	}

	// Kill: abandon the server exactly as a crash would — no drain, no
	// final checkpoints, no closes. The HTTP listener goes away once the
	// write-behind checkpoints have settled.
	e.kill()

	// Restart over the same root: every tenant resumes from its durable
	// prefix. Re-drive each tenant's unacked suffix from the applied
	// count it reports — exactly what a real client replaying
	// unacknowledged requests would do.
	e2 := newTestEnv(t, Options{Root: root, Seed: 9})
	for _, tn := range chaosTenants {
		resp, st := e2.do(t, http.MethodGet, "/tenants/"+tn.name+"/status", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("restarted %s status: %d %v", tn.name, resp.StatusCode, st)
		}
		if ro, _ := st["read_only"].(bool); ro {
			t.Fatalf("tenant %s still read-only after restart: %v", tn.name, st)
		}
		applied := int(st["applied"].(float64))
		if applied > chaosBatches {
			t.Fatalf("tenant %s resumed at %d > %d batches", tn.name, applied, chaosBatches)
		}
		for b := applied; b < chaosBatches; b++ {
			if reason := ingestChaos(t, e2, tn.name, workloads[tn.name][b]); reason != "" {
				t.Fatalf("tenant %s re-drive batch %d degraded: %s", tn.name, b, reason)
			}
		}
	}
	if err := e2.srv.Drain(context.Background()); err != nil {
		t.Fatalf("post-recovery drain: %v", err)
	}
	verifyChaosFingerprints(t, root, oracle)
}

// verifyChaosFingerprints resumes every tenant's WAL out of band and
// bit-compares its fingerprint against the unkilled oracle.
func verifyChaosFingerprints(t *testing.T, root string, oracle map[string][]byte) {
	t.Helper()
	for _, tn := range chaosTenants {
		st, err := wal.Resume(oracleCoreOpts(chaosBubbles, tn.seed), wal.Options{
			Dir: walDirOf(root, tn.name), CheckpointEvery: 2, KeepCheckpoints: 2,
		})
		if err != nil {
			t.Fatalf("%s resume: %v", tn.name, err)
		}
		if st.Batches != chaosBatches {
			t.Fatalf("%s resumed %d batches, want %d", tn.name, st.Batches, chaosBatches)
		}
		fp, err := wal.Fingerprint(st.Summarizer)
		if err != nil {
			t.Fatalf("%s fingerprint: %v", tn.name, err)
		}
		if !bytes.Equal(fp, oracle[tn.name]) {
			t.Fatalf("tenant %s recovered state diverges from the unkilled oracle", tn.name)
		}
		if err := st.Log.Close(); err != nil {
			t.Fatalf("%s close: %v", tn.name, err)
		}
	}
}
