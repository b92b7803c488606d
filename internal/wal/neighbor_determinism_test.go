package wal

import (
	"bytes"
	"context"
	"testing"

	"incbubbles/internal/core"
	"incbubbles/internal/neighbor"
	"incbubbles/internal/synth"
)

// TestNeighborKindFingerprintParity is the end-to-end determinism
// contract of the NeighborIndex refactor: full summarizer runs over two
// paper scenarios must produce byte-identical checkpoint fingerprints
// under -neighbor=dense and -neighbor=fastpair. The index only changes
// which distances are cached versus recomputed — never a distance value —
// so every assignment, merge and split decision is identical.
func TestNeighborKindFingerprintParity(t *testing.T) {
	scenarios := []struct {
		name string
		kind synth.Kind
	}{
		{"complex", synth.Complex},
		{"extreme-appear", synth.ExtremeAppear},
		{"random", synth.Random},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			run := func(nk neighbor.Kind) []byte {
				gen, err := synth.NewScenario(synth.Config{
					Kind: sc.kind, InitialPoints: 600, Batches: 6, Seed: 33,
				})
				if err != nil {
					t.Fatalf("scenario: %v", err)
				}
				db := gen.DB().Clone()
				opts := coreOpts()
				opts.Neighbor = nk
				s, err := core.New(db, opts)
				if err != nil {
					t.Fatalf("core.New: %v", err)
				}
				for i := 0; i < 6; i++ {
					b, err := gen.NextBatch()
					if err != nil {
						t.Fatalf("batch %d: %v", i, err)
					}
					applied, err := applyToDB(db, b)
					if err != nil {
						t.Fatalf("batch %d apply: %v", i, err)
					}
					if _, err := s.ApplyBatchContext(context.Background(), applied); err != nil {
						t.Fatalf("batch %d: %v", i, err)
					}
				}
				fp, err := Fingerprint(s)
				if err != nil {
					t.Fatalf("fingerprint: %v", err)
				}
				return fp
			}
			dense := run(neighbor.KindDense)
			fastpair := run(neighbor.KindFastPair)
			if !bytes.Equal(dense, fastpair) {
				t.Fatal("checkpoint fingerprints differ between dense and fastpair")
			}
		})
	}
}

// TestCheckpointRestoreAcrossKinds saves under one index kind and resumes
// under the other: snapshots carry no index state, so the continued runs
// must stay fingerprint-identical.
func TestCheckpointRestoreAcrossKinds(t *testing.T) {
	f := makeFixture(t, 400, 6)
	run := func(saveKind, resumeKind neighbor.Kind) []byte {
		dir := t.TempDir()
		db := f.initial.Clone()
		opts := coreOpts()
		opts.Neighbor = saveKind
		s, l, err := New(db, opts, Options{Dir: dir, CheckpointEvery: 1})
		if err != nil {
			t.Fatalf("wal.New: %v", err)
		}
		for i := 0; i < 3; i++ {
			applied, err := applyToDB(db, f.batches[i])
			if err != nil {
				t.Fatalf("batch %d apply: %v", i, err)
			}
			if _, err := s.ApplyBatchContext(context.Background(), applied); err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		resumeOpts := coreOpts()
		resumeOpts.Neighbor = resumeKind
		st, err := Resume(resumeOpts, Options{Dir: dir, CheckpointEvery: 1})
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		if st.Summarizer.Set().NeighborKind() != resumeKind {
			t.Fatalf("resumed with kind %q, want %q", st.Summarizer.Set().NeighborKind(), resumeKind)
		}
		for i := st.Batches; i < len(f.batches); i++ {
			applied, err := applyToDB(st.DB, f.batches[i])
			if err != nil {
				t.Fatalf("batch %d apply: %v", i, err)
			}
			if _, err := st.Summarizer.ApplyBatchContext(context.Background(), applied); err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
		}
		if err := st.Log.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		return fingerprint(t, st.Summarizer)
	}
	want := run(neighbor.KindDense, neighbor.KindDense)
	for _, c := range []struct{ save, resume neighbor.Kind }{
		{neighbor.KindDense, neighbor.KindFastPair},
		{neighbor.KindFastPair, neighbor.KindDense},
		{neighbor.KindFastPair, neighbor.KindFastPair},
	} {
		if got := run(c.save, c.resume); !bytes.Equal(got, want) {
			t.Fatalf("save=%s resume=%s fingerprint differs from dense/dense", c.save, c.resume)
		}
	}
}
