// Package trace is a low-overhead hierarchical span tracer for the
// summarization pipeline. A Tracer records batch → phase → operation
// spans into a bounded ring buffer; spans carry integer attributes
// (batch sizes, bubble IDs, bytes fsynced) and, when bound to a
// vecmath.Counter, the exact distance-computation delta that occurred
// between Start and End. Recorded spans export as Chrome trace-event
// JSON (loadable in Perfetto / chrome://tracing) or as a plain-text
// flame summary, and Tracer.ServeHTTP serves them over HTTP (see
// export.go).
//
// The tracer is designed to be left wired in production code paths:
//
//   - A nil *Tracer is a valid no-op: Start returns a nil *Span and
//     every Span method on nil is a no-op, so callers never branch on
//     "is tracing enabled".
//   - Span records are only materialised at End; an abandoned span
//     costs nothing but its allocation.
//   - The ring buffer is bounded (DefaultCapacity records unless
//     configured): overflow evicts the oldest record and increments
//     Dropped, it never grows or blocks.
//
// Spans are intended to be started and ended on a single goroutine
// (the coordinator of the two-phase pipeline); the ring itself is
// mutex-guarded, so concurrent spans from different goroutines and
// concurrent Snapshot calls (e.g. the /debug/trace endpoint) are safe.
package trace

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"incbubbles/internal/vecmath"
)

// DefaultCapacity is the span-record ring size used when
// Options.Capacity is zero. At ~100 spans per applied batch this
// retains on the order of the last 80 batches.
const DefaultCapacity = 8192

// Canonical attribute keys. Exporters and tests key on these; span
// producers should prefer them over ad-hoc strings.
const (
	// AttrDistComputed and AttrDistPruned are appended automatically
	// at End by spans bound to a vecmath.Counter: the delta of full
	// distance computations (resp. triangle-inequality prunings)
	// attributed to the span.
	AttrDistComputed = "dist_computed"
	AttrDistPruned   = "dist_pruned"

	AttrBatchSize = "batch_size" // updates in the batch
	AttrOrdinal   = "ordinal"    // batch ordinal
	AttrBubble    = "bubble"     // bubble index the operation targets
	AttrBubbleB   = "bubble_b"   // second bubble (merge recipient, split sibling)
	AttrBytes     = "bytes"      // bytes written or fsynced
	AttrCount     = "count"      // generic cardinality (objects, records, rounds)
	// AttrRequestID and AttrQueueWait decorate the server.ingest root
	// span the serving layer starts per ingest request: the minted
	// request ID and the nanoseconds the batch sat in the tenant's
	// bounded queue before its worker picked it up.
	AttrRequestID = "request_id"
	AttrQueueWait = "queue_wait_ns"
	// AttrSpecHit is never set any more.
	//
	// Deprecated: it marked batches of the removed speculative pipeline
	// (1 when a speculative search was adopted); the constant stays for
	// trace readers that still look it up.
	AttrSpecHit = "spec_hit"
)

// Options configures a Tracer.
type Options struct {
	// Capacity bounds the span-record ring. DefaultCapacity when <= 0.
	Capacity int
	// Clock returns monotonic nanoseconds. Defaults to a process-
	// monotonic wall clock; tests inject a fake for deterministic
	// timestamps.
	Clock func() int64
}

// Attr is one integer span attribute.
type Attr struct {
	Key string
	Val int64
}

// Record is one completed span as stored in the ring.
type Record struct {
	ID     uint64 // unique per tracer, 1-based
	Parent uint64 // ID of the parent span, 0 for roots
	Name   string
	Start  int64 // nanoseconds on the tracer clock
	Dur    int64 // nanoseconds
	Attrs  []Attr
}

// Tracer records completed spans into a bounded ring.
type Tracer struct {
	clock   func() int64
	nextID  atomic.Uint64
	dropped atomic.Uint64

	mu   sync.Mutex
	buf  []Record
	head int // index of the oldest record
	n    int // live records
}

var processStart = time.Now() //lint:allow seededrng trace timestamps are observability, not simulation state

func monotonicNanos() int64 { return int64(time.Since(processStart)) }

// New builds a Tracer. See Options for defaults.
func New(opts Options) *Tracer {
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCapacity
	}
	if opts.Clock == nil {
		opts.Clock = monotonicNanos
	}
	return &Tracer{clock: opts.Clock, buf: make([]Record, opts.Capacity)}
}

// Now returns the current tracer clock reading, or 0 on a nil Tracer.
// Use it to bracket SnapshotSince windows.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

// Capacity reports the ring size, 0 on a nil Tracer.
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return cap(t.buf)
}

// Dropped reports how many completed spans were evicted from the ring
// to make room for newer ones.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Len reports the number of live records in the ring.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Reset discards all recorded spans and the dropped counter. Span IDs
// keep advancing so records from before and after never collide.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.head, t.n = 0, 0
	t.mu.Unlock()
	t.dropped.Store(0)
}

// Snapshot copies the live records, oldest first.
func (t *Tracer) Snapshot() []Record {
	return t.SnapshotSince(-1 << 62)
}

// SnapshotSince copies the live records whose Start is >= ts, oldest
// first. Bracket a capture window with Now:
//
//	t0 := tr.Now()
//	... traced work ...
//	recs := tr.SnapshotSince(t0)
func (t *Tracer) SnapshotSince(ts int64) []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Record, 0, t.n)
	for i := 0; i < t.n; i++ {
		r := t.at(i)
		if r.Start >= ts {
			out = append(out, r)
		}
	}
	return out
}

// at returns the i-th oldest live record; caller holds t.mu.
func (t *Tracer) at(i int) Record {
	idx := t.head + i
	if idx >= len(t.buf) {
		idx -= len(t.buf)
	}
	return t.buf[idx]
}

// record appends a completed span, evicting the oldest on overflow.
func (t *Tracer) record(r Record) {
	t.mu.Lock()
	if t.n < len(t.buf) {
		idx := t.head + t.n
		if idx >= len(t.buf) {
			idx -= len(t.buf)
		}
		t.buf[idx] = r
		t.n++
		t.mu.Unlock()
		return
	}
	t.buf[t.head] = r
	t.head++
	if t.head == len(t.buf) {
		t.head = 0
	}
	t.mu.Unlock()
	t.dropped.Add(1)
}

// Span is one in-flight traced operation. All methods are no-ops on a
// nil receiver, so spans can be threaded through code paths that may
// run untraced. A Span must be used from a single goroutine.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	name   string
	start  int64

	ctr    *vecmath.Counter
	c0, p0 uint64

	attrs []Attr
	ended bool
}

// Start begins a root span, or returns nil on a nil Tracer.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{tr: t, id: t.nextID.Add(1), name: name, start: t.clock()}
}

// Start begins a child span of s, or returns nil on a nil Span.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	sp := s.tr.Start(name)
	sp.parent = s.id
	return sp
}

// Bind snapshots c so that End records the span's distance-computation
// delta as AttrDistComputed / AttrDistPruned attributes. Bind leaf
// spans only — binding a parent whose children are also bound would
// double-count the children's work in any attribute sum. Returns s.
func (s *Span) Bind(c *vecmath.Counter) *Span {
	if s == nil || c == nil {
		return s
	}
	s.ctr = c
	s.c0, s.p0 = c.Snapshot()
	return s
}

// SetInt attaches an integer attribute. Later values for the same key
// are appended, not merged; exporters keep the last.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: v})
}

// End completes the span and commits it to the ring. End is
// idempotent; only the first call records.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	end := s.tr.clock()
	if s.ctr != nil {
		c1, p1 := s.ctr.Snapshot()
		s.attrs = append(s.attrs,
			Attr{Key: AttrDistComputed, Val: int64(c1 - s.c0)},
			Attr{Key: AttrDistPruned, Val: int64(p1 - s.p0)},
		)
	}
	s.tr.record(Record{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start,
		Dur:    end - s.start,
		Attrs:  s.attrs,
	})
}

// ctxKey is the context key for span propagation across package
// boundaries (core hands its durability span to the WAL this way).
type ctxKey struct{}

// ContextWith returns ctx carrying sp. A nil sp returns ctx unchanged.
func ContextWith(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the span carried by ctx, or nil. The caller does
// not own the returned span and must not End it; child spans started
// from it are owned as usual.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// AttrMap flattens a record's attribute list into a map, keeping the
// last value per key.
func (r Record) AttrMap() map[string]int64 {
	if len(r.Attrs) == 0 {
		return nil
	}
	m := make(map[string]int64, len(r.Attrs))
	for _, a := range r.Attrs {
		m[a.Key] = a.Val
	}
	return m
}

// Attr returns the last value recorded for key and whether it exists.
func (r Record) Attr(key string) (int64, bool) {
	for i := len(r.Attrs) - 1; i >= 0; i-- {
		if r.Attrs[i].Key == key {
			return r.Attrs[i].Val, true
		}
	}
	return 0, false
}
