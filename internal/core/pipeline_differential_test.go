package core_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"incbubbles/internal/core"
	"incbubbles/internal/dataset"
	"incbubbles/internal/synth"
	"incbubbles/internal/wal"
)

func diffWorkload(t *testing.T, kind synth.Kind, points, batches int) (*dataset.DB, []dataset.Batch) {
	t.Helper()
	sc, err := synth.NewScenario(synth.Config{
		Kind: kind, InitialPoints: points, Batches: batches, Seed: 11,
	})
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	initial := sc.DB().Clone()
	bs := make([]dataset.Batch, batches)
	for i := range bs {
		if bs[i], err = sc.NextBatch(); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	return initial, bs
}

func diffOpts() core.Options {
	return core.Options{NumBubbles: 10, Seed: 7, Config: core.Config{Workers: 2}}
}

// streamBatches replays every batch into db and applies it to s.
func streamBatches(t *testing.T, s *core.Summarizer, db *dataset.DB, batches []dataset.Batch) {
	t.Helper()
	for i, b := range batches {
		applied, err := b.Replay(db)
		if err != nil {
			t.Fatalf("batch %d replay: %v", i, err)
		}
		if _, err := s.ApplyBatchContext(context.Background(), applied); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
}

// TestPipelineDifferentialStreamed streams every batch of two scenarios
// through the durable ingest path with a write-behind checkpoint after
// each batch — so each checkpoint comes due while the previous one may
// still be in flight, and must wait for it — and compares the final state
// with the in-memory serial oracle. The oracle in turn must reach the
// digest that the removed pipelined scheduler produced when it was
// flooded with the same batches at depth 3 (recorded while it existed;
// like the experiments golden file, tied to the floating-point semantics
// of the reference architecture).
func TestPipelineDifferentialStreamed(t *testing.T) {
	for _, tc := range []struct {
		kind   synth.Kind
		digest string
	}{
		{synth.Complex, "105f62534a7788af6d0fbc1185bcfcf07672dd4d712a1909899b6eed6450c6fc"},
		{synth.Gradmove, "7ed1638d67434e20581e5a71eb5cf9679f8e1136d973e273d12f347e7a7256d7"},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			initial, batches := diffWorkload(t, tc.kind, 400, 8)

			oracleDB := initial.Clone()
			oracle, err := core.New(oracleDB, diffOpts())
			if err != nil {
				t.Fatalf("serial core.New: %v", err)
			}
			streamBatches(t, oracle, oracleDB, batches)

			durableDB := initial.Clone()
			durable, l, err := wal.New(durableDB, diffOpts(), wal.Options{Dir: t.TempDir(), CheckpointEvery: 1})
			if err != nil {
				t.Fatalf("wal.New: %v", err)
			}
			streamBatches(t, durable, durableDB, batches)
			if err := l.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			ofp, err := wal.Fingerprint(oracle)
			if err != nil {
				t.Fatalf("serial fingerprint: %v", err)
			}
			dfp, err := wal.Fingerprint(durable)
			if err != nil {
				t.Fatalf("durable fingerprint: %v", err)
			}
			if !bytes.Equal(ofp, dfp) {
				t.Fatal("streamed write-behind fingerprint differs from serial")
			}
			sum := sha256.Sum256(ofp)
			if got := hex.EncodeToString(sum[:]); got != tc.digest {
				t.Fatalf("serial fingerprint digest %s, pipelined scheduler reached %s", got, tc.digest)
			}
		})
	}
}
