package wal

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"incbubbles/internal/core"
	"incbubbles/internal/dataset"
	"incbubbles/internal/synth"
	"incbubbles/internal/vecmath"
)

// FuzzRecordRoundTrip drives the payload codec with a fuzzer-shaped
// batch: whatever encodes must decode back to the same updates, and the
// truncation of any encoded frame must never panic or decode to a record
// with a valid CRC but a different payload.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(uint64(0), []byte{1, 0x3f, 2}, int64(1), int64(-1))
	f.Add(uint64(41), []byte{1, 1, 2, 2, 1}, int64(7), int64(0))
	f.Add(uint64(1<<63), []byte{2}, int64(0), int64(3))
	f.Fuzz(func(t *testing.T, ordinal uint64, ops []byte, idSeed, labelSeed int64) {
		const dim = 3
		if len(ops) > 64 {
			ops = ops[:64]
		}
		batch := make(dataset.Batch, 0, len(ops))
		for i, op := range ops {
			id := dataset.PointID(uint64(idSeed) + uint64(i))
			if op%2 == 0 {
				batch = append(batch, dataset.Update{Op: dataset.OpDelete, ID: id})
				continue
			}
			label := int(labelSeed%100) + i
			if label < dataset.Noise {
				label = dataset.Noise
			}
			p := vecmath.Point{float64(i), float64(int8(op)), float64(labelSeed % 997)}
			batch = append(batch, dataset.Update{Op: dataset.OpInsert, ID: id, P: p, Label: label})
		}
		payload, err := encodePayload(dim, ordinal, batch)
		if err != nil {
			t.Fatalf("encode of well-formed batch: %v", err)
		}
		rec, err := decodePayload(payload)
		if err != nil {
			t.Fatalf("decode of encoded payload: %v", err)
		}
		if rec.ordinal != ordinal || rec.dim != dim || len(rec.batch) != len(batch) {
			t.Fatalf("round trip: ordinal=%d dim=%d len=%d", rec.ordinal, rec.dim, len(rec.batch))
		}
		for i, u := range rec.batch {
			w := batch[i]
			if u.Op != w.Op || u.ID != w.ID {
				t.Fatalf("update %d: %+v != %+v", i, u, w)
			}
			if w.Op == dataset.OpInsert && (u.Label != w.Label || !u.P.Equal(w.P)) {
				t.Fatalf("insert %d: %+v != %+v", i, u, w)
			}
		}
		// A framed record survives the segment scanner; every truncation of
		// the segment yields either the record or a clean tail error.
		seg := append([]byte(segmentMagic), frameRecord(payload)...)
		for _, cut := range []int{len(seg), len(seg) - 1, len(seg) / 2, len(segmentMagic) + 1} {
			if cut < 0 || cut > len(seg) {
				continue
			}
			recs, validLen, tailErr := scanSegment(seg[:cut])
			if validLen > cut {
				t.Fatalf("cut %d: validLen %d beyond data", cut, validLen)
			}
			if cut == len(seg) {
				if tailErr != nil || len(recs) != 1 {
					t.Fatalf("full segment: recs=%d err=%v", len(recs), tailErr)
				}
			} else if cut > len(segmentMagic) && len(recs) != 0 {
				t.Fatalf("cut %d: partial frame decoded to %d records", cut, len(recs))
			}
		}
	})
}

// FuzzSegmentScan throws raw bytes at the segment scanner: it must never
// panic, never claim a valid prefix longer than the input, and every
// record it accepts must actually carry a matching CRC in the bytes.
func FuzzSegmentScan(f *testing.F) {
	p, _ := encodePayload(2, 3, dataset.Batch{
		{Op: dataset.OpInsert, ID: 9, P: vecmath.Point{1, 2}, Label: 0},
		{Op: dataset.OpDelete, ID: 4},
	})
	good := append([]byte(segmentMagic), frameRecord(p)...)
	f.Add(good)
	f.Add([]byte(segmentMagic))
	f.Add([]byte("garbage"))
	f.Add(append(append([]byte(nil), good...), good[len(segmentMagic):]...))
	truncated := append([]byte(nil), good[:len(good)-2]...)
	f.Add(truncated)
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 1
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, validLen, tailErr := scanSegment(data)
		if validLen < 0 || validLen > len(data) {
			t.Fatalf("validLen %d outside [0,%d]", validLen, len(data))
		}
		if tailErr == nil && validLen != len(data) {
			t.Fatalf("clean scan stopped at %d of %d", validLen, len(data))
		}
		if len(recs) > 0 && validLen < len(segmentMagic)+frameBytes {
			t.Fatalf("%d records from a %d-byte valid prefix", len(recs), validLen)
		}
		// Re-walk the accepted prefix: each frame's stored CRC must match
		// its payload — a record with a bad CRC must never be returned.
		if validLen >= len(segmentMagic) && string(data[:len(segmentMagic)]) == segmentMagic {
			off := len(segmentMagic)
			for i := 0; off < validLen; i++ {
				n := int(binary.LittleEndian.Uint32(data[off:]))
				crc := binary.LittleEndian.Uint32(data[off+4:])
				payload := data[off+frameBytes : off+frameBytes+n]
				if crc32.ChecksumIEEE(payload) != crc {
					t.Fatalf("record %d accepted with mismatched CRC", i)
				}
				if i >= len(recs) {
					t.Fatalf("valid prefix holds more frames than records returned")
				}
				reenc, err := encodePayload(recs[i].dim, recs[i].ordinal, recs[i].batch)
				if err != nil || !bytes.Equal(reenc, payload) {
					t.Fatalf("record %d does not re-encode to its payload (err=%v)", i, err)
				}
				off += frameBytes + n
			}
		}
	})
}

// fuzzCoreOpts configures every summarizer FuzzResumeCheckpoint builds
// or resumes.
func fuzzCoreOpts() core.Options {
	return core.Options{NumBubbles: 4, UseTriangleInequality: true, Seed: 5}
}

// checkpointBody returns the checkpoint of a small summarizer one batch
// in, without its magic and CRC: the part FuzzResumeCheckpoint fuzzes.
func checkpointBody(f *testing.F) []byte {
	f.Helper()
	sc, err := synth.NewScenario(synth.Config{Kind: synth.Complex, InitialPoints: 40, Batches: 1, Seed: 21})
	if err != nil {
		f.Fatal(err)
	}
	s, err := core.New(sc.DB(), fuzzCoreOpts())
	if err != nil {
		f.Fatal(err)
	}
	b, err := sc.NextBatch()
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.ApplyBatchContext(context.Background(), b); err != nil {
		f.Fatal(err)
	}
	data, err := encodeCheckpoint(s)
	if err != nil {
		f.Fatal(err)
	}
	return data[len(checkpointMagic) : len(data)-4]
}

// snapshotOffset returns where the snapshot length field starts in a
// well-formed checkpoint body.
func snapshotOffset(body []byte) int {
	dim := int(binary.LittleEndian.Uint32(body[16:]))
	return 36 + int(binary.LittleEndian.Uint64(body[28:]))*(16+dim*8)
}

// withSnapshot returns body with its snapshot, which starts at at,
// replaced by snap.
func withSnapshot(body []byte, at int, snap []byte) []byte {
	out := append(append([]byte(nil), body[:at]...), binary.LittleEndian.AppendUint32(nil, uint32(len(snap)))...)
	return append(out, snap...)
}

// resumeCheckpoint writes data as the only file of a fresh WAL directory,
// named after ordinal, and resumes it.
func resumeCheckpoint(t *testing.T, ordinal uint64, data []byte) (*RecoveredState, error) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ckptName(ordinal)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return Resume(fuzzCoreOpts(), Options{Dir: dir})
}

// FuzzResumeCheckpoint hands Resume a checkpoint whose body the fuzzer
// supplies. The harness adds the magic and a correct CRC, so the parser
// behind the CRC is what gets exercised, and names the file after the
// body's ordinal field. Resume must never panic; a state it accepts must
// pass CheckInvariants and give every database point an owning bubble,
// and its fingerprint, written back as a checkpoint and resumed, must
// fingerprint identically.
func FuzzResumeCheckpoint(f *testing.F) {
	body := checkpointBody(f)
	f.Add(body)
	// The same checkpoint with a snapshot whose bubbles list no member
	// IDs, which bubble.Load rejects.
	at := snapshotOffset(body)
	noMembers := regexp.MustCompile(`,"members":\[[0-9,]*\]`).ReplaceAll(body[at+4:], nil)
	noMembers = bytes.Replace(noMembers, []byte(`"members":true`), []byte(`"members":false`), 1)
	f.Add(withSnapshot(body, at, noMembers))
	// The same checkpoint with the first member list's largest ID swapped
	// for 999999 (the list stays ascending): the snapshot owns an ID the
	// database does not hold and leaves one database point without an
	// owner, so recovery must refuse the checkpoint.
	snap := body[at+4:]
	last := regexp.MustCompile(`"members":\[(?:[0-9]+,)*([0-9]+)\]`).FindSubmatchIndex(snap)
	orphaned := append(append(append([]byte(nil), snap[:last[2]]...), "999999"...), snap[last[3]:]...)
	f.Add(withSnapshot(body, at, orphaned))
	// A record table cut short.
	f.Add(append([]byte(nil), body[:36+(at-36)/2]...))
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 1<<16 {
			return // bound the restored database
		}
		var ordinal uint64
		if len(body) >= 8 {
			ordinal = binary.LittleEndian.Uint64(body)
		}
		data := append([]byte(checkpointMagic), body...)
		data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(body))
		st, err := resumeCheckpoint(t, ordinal, data)
		if err != nil {
			return
		}
		defer st.Log.Close()
		if err := st.Summarizer.Set().CheckInvariants(); err != nil {
			t.Fatalf("resumed state violates invariants: %v", err)
		}
		st.DB.ForEach(func(r dataset.Record) {
			if _, ok := st.Summarizer.Set().Owner(r.ID); !ok {
				t.Fatalf("resumed state leaves database point %d without an owning bubble", r.ID)
			}
		})
		fp, err := Fingerprint(st.Summarizer)
		if err != nil {
			t.Fatalf("fingerprint of a resumed state: %v", err)
		}
		again, err := resumeCheckpoint(t, uint64(st.Batches), fp)
		if err != nil {
			t.Fatalf("resumed state's own checkpoint does not resume: %v", err)
		}
		defer again.Log.Close()
		fp2, err := Fingerprint(again.Summarizer)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fp, fp2) {
			t.Fatal("fingerprint changed across a checkpoint round trip")
		}
	})
}
