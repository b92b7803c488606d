package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"incbubbles/internal/dataset"
	"incbubbles/internal/stats"
	"incbubbles/internal/synth"
	"incbubbles/internal/vecmath"
)

// servePlan is everything a serving workload sends, generated from the
// seed before anything is timed, plus what the replies must say.
// bubbled receives only the request bodies.
type servePlan struct {
	dim, bubbles int
	tenantSeed   int64
	create       []byte   // PUT /tenants/{t} body: config and bootstrap
	bodies       [][]byte // POST /tenants/{t}/batches bodies, in send order

	boot       int   // bootstrap points; they get IDs 0..boot-1
	insPer     int   // inserts per batch: ordinal o's inserts get IDs boot+insPer·o+k
	inserts    []int // per batch: inserts
	deletes    []int // per batch: deletes
	bootLabels []int // ground-truth label per bootstrap ID
	insLabels  [][]int
}

// firstID is the ID bubbled must assign to the first insert of the batch
// applied at ordinal o.
func (p *servePlan) firstID(o int) uint64 { return uint64(p.boot + p.insPer*o) }

// pointsAfter is the live point count once the first k batches applied.
// Every batch index j is applied as ordinal j on a single writer, and
// every window batch leaves the count unchanged, so send order gives the
// count in either case.
func (p *servePlan) pointsAfter(k int) int {
	n := p.boot
	for j := 0; j < k && j < len(p.inserts); j++ {
		n += p.inserts[j] - p.deletes[j]
	}
	return n
}

// tenantSeedFor derives the tenant's explicit summarizer seed.
func tenantSeedFor(seed int64) int64 {
	if s := stats.SubSeed(seed, 1); s != 0 {
		return s
	}
	return 1
}

// createBody encodes the tenant config with its bootstrap points.
func createBody(dim, bubbles int, seed int64, boot []vecmath.Point) []byte {
	b := []byte(`{"dim":`)
	b = strconv.AppendInt(b, int64(dim), 10)
	b = append(b, `,"bubbles":`...)
	b = strconv.AppendInt(b, int64(bubbles), 10)
	b = append(b, `,"seed":`...)
	b = strconv.AppendInt(b, seed, 10)
	b = append(b, `,"bootstrap":[`...)
	for i, p := range boot {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendPoint(b, p)
	}
	return append(b, "]}"...)
}

func appendPoint(b []byte, p vecmath.Point) []byte {
	b = append(b, '[')
	for i, v := range p {
		if i > 0 {
			b = append(b, ',')
		}
		// The shortest representation parses back to exactly v.
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']')
}

// batchBody encodes one ingest body: the deletes, then the inserts.
func batchBody(deletes []dataset.PointID, inserts []vecmath.Point) []byte {
	b := []byte(`{"updates":[`)
	first := true
	sep := func() {
		if !first {
			b = append(b, ',')
		}
		first = false
	}
	for _, id := range deletes {
		sep()
		b = append(b, `{"op":"delete","id":`...)
		b = strconv.AppendUint(b, uint64(id), 10)
		b = append(b, '}')
	}
	for _, p := range inserts {
		sep()
		b = append(b, `{"op":"insert","p":`...)
		b = appendPoint(b, p)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// bootstrapOf returns a scenario database's points and labels in ID
// order, requiring the IDs to be exactly 0..n-1 — the IDs bubbled
// assigns to a bootstrap sent in that order.
func bootstrapOf(db *dataset.DB) ([]vecmath.Point, []int, error) {
	recs := db.Snapshot()
	sort.Slice(recs, func(a, b int) bool { return recs[a].ID < recs[b].ID })
	pts := make([]vecmath.Point, len(recs))
	labels := make([]int, len(recs))
	for i, r := range recs {
		if r.ID != dataset.PointID(i) {
			return nil, nil, fmt.Errorf("scenario point %d has ID %d", i, r.ID)
		}
		pts[i], labels[i] = r.P, r.Label
	}
	return pts, labels, nil
}

// serveShape sizes a serving workload's inputs: a bootstrap of Points
// Dim-dimensional points under Bubbles bubbles, then Batches batches of
// BatchUpdates updates each.
type serveShape struct {
	Dim, Points, Bubbles, BatchUpdates, Batches int
}

// makeTricklePlan builds serve_trickle's inputs: a Complex scenario
// bootstrapped with Points 2-d points and advanced in churn batches of
// BatchUpdates updates. One writer sends them in order, so bubbled
// assigns exactly the IDs the scenario's own database does and the
// scenario's deletes name live server IDs.
func makeTricklePlan(seed int64, sh serveShape) (*servePlan, error) {
	sc, err := synth.NewScenario(synth.Config{
		Kind:           synth.Complex,
		Dim:            sh.Dim,
		InitialPoints:  sh.Points,
		UpdateFraction: float64(sh.BatchUpdates) / float64(sh.Points),
		Batches:        sh.Batches,
		Seed:           seed,
	})
	if err != nil {
		return nil, err
	}
	boot, labels, err := bootstrapOf(sc.DB())
	if err != nil {
		return nil, err
	}
	p := &servePlan{
		dim: sh.Dim, bubbles: sh.Bubbles, tenantSeed: tenantSeedFor(seed),
		boot: len(boot), insPer: sh.BatchUpdates / 2, bootLabels: labels,
	}
	p.create = createBody(sh.Dim, sh.Bubbles, p.tenantSeed, boot)
	for j := 0; j < sh.Batches; j++ {
		batch, err := sc.NextBatch()
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", j, err)
		}
		var dels []dataset.PointID
		var ins []vecmath.Point
		var insLabels []int
		for _, u := range batch {
			if u.Op == dataset.OpDelete {
				dels = append(dels, u.ID)
				continue
			}
			if len(ins) == 0 && u.ID != dataset.PointID(p.firstID(j)) {
				return nil, fmt.Errorf("batch %d: first insert has ID %d, want %d", j, u.ID, p.firstID(j))
			}
			ins = append(ins, u.P)
			insLabels = append(insLabels, u.Label)
		}
		if len(ins) != p.insPer {
			return nil, fmt.Errorf("batch %d has %d inserts, want %d", j, len(ins), p.insPer)
		}
		p.bodies = append(p.bodies, batchBody(dels, ins))
		p.inserts = append(p.inserts, len(ins))
		p.deletes = append(p.deletes, len(dels))
		p.insLabels = append(p.insLabels, insLabels)
	}
	return p, nil
}

// makeWindowPlan builds serve_window's inputs: a sliding window over
// the Random scenario's static mixture. Batch j inserts BatchUpdates/2
// fresh mixture points and expires the same number of oldest points by
// ID, [half·j, half·(j+1)). Those IDs were inserted Points/half batches
// earlier, so they are live in either arrival order of two in-flight
// batches, and the live count stays exactly Points.
func makeWindowPlan(seed int64, sh serveShape) (*servePlan, error) {
	half := sh.BatchUpdates / 2
	if sh.Points/half < 2 {
		return nil, fmt.Errorf("window of %d points holds fewer than 2 batches of %d inserts", sh.Points, half)
	}
	sc, err := synth.NewScenario(synth.Config{Kind: synth.Random, Dim: sh.Dim, InitialPoints: sh.Points, Seed: seed})
	if err != nil {
		return nil, err
	}
	boot, labels, err := bootstrapOf(sc.DB())
	if err != nil {
		return nil, err
	}
	p := &servePlan{
		dim: sh.Dim, bubbles: sh.Bubbles, tenantSeed: tenantSeedFor(seed),
		boot: len(boot), insPer: half, bootLabels: labels,
	}
	p.create = createBody(sh.Dim, sh.Bubbles, p.tenantSeed, boot)
	mix := sc.Mixture()
	dels := make([]dataset.PointID, half)
	ins := make([]vecmath.Point, half)
	for j := 0; j < sh.Batches; j++ {
		rng := stats.NewRNG(stats.SubSeed(seed, 1000+j))
		insLabels := make([]int, half)
		for k := 0; k < half; k++ {
			dels[k] = dataset.PointID(half*j + k)
			ins[k], insLabels[k] = mix.Sample(rng)
		}
		p.bodies = append(p.bodies, batchBody(dels, ins))
		p.inserts = append(p.inserts, half)
		p.deletes = append(p.deletes, half)
		p.insLabels = append(p.insLabels, insLabels)
	}
	return p, nil
}

// wireUpdate is the part of bubbled's ingest wire format the generator
// writes, for decoding bodies back into batches (the fingerprint
// oracle's replay). Bodies carry no labels, so every point has label 0
// on the server, as in the replay.
type wireUpdate struct {
	Op string    `json:"op"`
	ID *uint64   `json:"id,omitempty"`
	P  []float64 `json:"p,omitempty"`
}

// decodeBatch turns an ingest body into the batch bubbled applied at a
// given first insert ID: inserts take consecutive IDs from firstID in
// body order, exactly as the server stamps them.
func decodeBatch(body []byte, firstID uint64) (dataset.Batch, error) {
	var wire struct {
		Updates []wireUpdate `json:"updates"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		return nil, err
	}
	batch := make(dataset.Batch, 0, len(wire.Updates))
	next := dataset.PointID(firstID)
	for i, u := range wire.Updates {
		switch u.Op {
		case "insert":
			batch = append(batch, dataset.Update{Op: dataset.OpInsert, ID: next, P: vecmath.Point(u.P)})
			next++
		case "delete":
			if u.ID == nil {
				return nil, fmt.Errorf("update %d: delete without id", i)
			}
			batch = append(batch, dataset.Update{Op: dataset.OpDelete, ID: dataset.PointID(*u.ID)})
		default:
			return nil, fmt.Errorf("update %d: unknown op %q", i, u.Op)
		}
	}
	return batch, nil
}

// decodeBootstrap returns the bootstrap points of a create body.
func decodeBootstrap(body []byte) ([]vecmath.Point, error) {
	var cfg struct {
		Bootstrap [][]float64 `json:"bootstrap"`
	}
	if err := json.Unmarshal(body, &cfg); err != nil {
		return nil, err
	}
	out := make([]vecmath.Point, len(cfg.Bootstrap))
	for i, p := range cfg.Bootstrap {
		out[i] = vecmath.Point(p)
	}
	return out, nil
}
