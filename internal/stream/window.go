// Package stream adapts incremental data bubbles to the data-stream
// setting the paper discusses in §1 and names as future work in §6. A
// data stream is treated as the degenerate incremental database the paper
// describes: a sliding window of the most recent points, where every
// arrival is an insertion and every eviction of an expired point is a
// deletion. The incremental summarizer absorbs these updates in small
// batches, so an up-to-date hierarchical clustering of the window is
// available at any time without re-summarizing.
package stream

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"incbubbles/internal/core"
	"incbubbles/internal/dataset"
	"incbubbles/internal/vecmath"
	"incbubbles/internal/wal"
)

// Config parameterises a sliding window summarizer.
type Config struct {
	// Dim is the dimensionality of the stream.
	Dim int
	// Capacity is the window size in points; the oldest point is evicted
	// when a new arrival would exceed it.
	Capacity int
	// Bubbles is the number of data bubbles summarizing the window.
	// Default Capacity/100, at least 10.
	Bubbles int
	// FlushEvery is how many buffered updates trigger a maintenance pass
	// on the summarizer. Default Capacity/20, at least 1. Quality
	// maintenance (β classification, merge/split) runs per flush, not per
	// point, matching the paper's batch update model.
	FlushEvery int
	// Warmup is how many points must arrive before the initial bubbles
	// are built. Default 4·Bubbles, capped at Capacity.
	Warmup int
	// Summarizer tunes the underlying incremental scheme.
	Summarizer core.Config
	// Seed drives bubble construction. Default 1.
	Seed int64
	// Durability, when non-nil, persists the summary through a write-ahead
	// log and checkpoints in Durability.Dir, activated once warmup
	// completes. Updates become durable when flushed (per FlushEvery), not
	// per point; a crash loses at most the un-flushed buffer. Use Resume
	// to reopen a window from such a directory.
	Durability *wal.Options
}

func (c Config) withDefaults() Config {
	if c.Bubbles == 0 {
		c.Bubbles = c.Capacity / 100
		if c.Bubbles < 10 {
			c.Bubbles = 10
		}
	}
	if c.FlushEvery == 0 {
		c.FlushEvery = c.Capacity / 20
		if c.FlushEvery < 1 {
			c.FlushEvery = 1
		}
	}
	if c.Warmup == 0 {
		c.Warmup = 4 * c.Bubbles
	}
	if c.Warmup > c.Capacity {
		c.Warmup = c.Capacity
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c Config) validate() error {
	if c.Dim <= 0 {
		return errors.New("stream: dimension must be positive")
	}
	if c.Capacity < 10 {
		return errors.New("stream: capacity must be at least 10")
	}
	if c.Bubbles < 2 || c.Bubbles > c.Capacity/2 {
		return fmt.Errorf("stream: bubbles=%d out of range for capacity %d", c.Bubbles, c.Capacity)
	}
	if c.Warmup < c.Bubbles {
		return errors.New("stream: warmup smaller than bubble count")
	}
	return nil
}

// Window is a sliding-window stream summarizer. It is not safe for
// concurrent use; wrap it if multiple goroutines feed one stream.
type Window struct {
	cfg      Config
	db       *dataset.DB
	sum      *core.Summarizer
	log      *wal.Log
	fifo     []dataset.PointID
	head     int // index of the oldest live entry in fifo
	pending  dataset.Batch
	arrived  int
	replayed int
}

// NewWindow creates an empty sliding-window summarizer.
func NewWindow(cfg Config) (*Window, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	db, err := dataset.New(cfg.Dim)
	if err != nil {
		return nil, err
	}
	return &Window{cfg: cfg, db: db}, nil
}

// Len returns the number of points currently in the window.
func (w *Window) Len() int { return w.db.Len() }

// Arrived returns the total number of points pushed so far.
func (w *Window) Arrived() int { return w.arrived }

// Ready reports whether the initial summary has been built (the warmup
// phase is over).
func (w *Window) Ready() bool { return w.sum != nil }

// DB exposes the window's backing database (read-only use).
func (w *Window) DB() *dataset.DB { return w.db }

// Summarizer returns the underlying incremental summarizer, or nil before
// warmup completes.
func (w *Window) Summarizer() *core.Summarizer { return w.sum }

// Config returns the effective configuration.
func (w *Window) Config() Config { return w.cfg }

// Push appends one stream element, evicting the oldest point when the
// window is full. Maintenance runs automatically every FlushEvery updates
// once the summary exists.
func (w *Window) Push(p vecmath.Point, label int) error {
	// Evict before inserting so the window never exceeds capacity.
	if w.db.Len() >= w.cfg.Capacity {
		if err := w.evictOldest(); err != nil {
			return err
		}
	}
	id, err := w.db.Insert(p, label)
	if err != nil {
		return err
	}
	w.fifo = append(w.fifo, id)
	w.arrived++
	if w.sum != nil {
		rec, err := w.db.Get(id)
		if err != nil {
			return err
		}
		w.pending = append(w.pending, dataset.Update{Op: dataset.OpInsert, ID: id, P: rec.P, Label: label})
		if len(w.pending) >= w.cfg.FlushEvery {
			if _, err := w.Flush(); err != nil {
				return err
			}
		}
		return nil
	}
	if w.db.Len() >= w.cfg.Warmup {
		return w.build()
	}
	return nil
}

func (w *Window) evictOldest() error {
	for w.head < len(w.fifo) {
		id := w.fifo[w.head]
		w.head++
		if !w.db.Contains(id) {
			continue // already gone (defensive; windows never delete otherwise)
		}
		rec, err := w.db.Delete(id)
		if err != nil {
			return err
		}
		if w.sum != nil {
			w.pending = append(w.pending, dataset.Update{Op: dataset.OpDelete, ID: id, P: rec.P, Label: rec.Label})
		}
		// Compact the fifo once half of it is dead prefix.
		if w.head > len(w.fifo)/2 && w.head > 1024 {
			w.fifo = append([]dataset.PointID(nil), w.fifo[w.head:]...)
			w.head = 0
		}
		return nil
	}
	return errors.New("stream: eviction requested on empty window")
}

func (w *Window) coreOptions() core.Options {
	return core.Options{
		NumBubbles:            w.cfg.Bubbles,
		UseTriangleInequality: true,
		Seed:                  w.cfg.Seed,
		Config:                w.cfg.Summarizer,
	}
}

func (w *Window) build() error {
	if w.cfg.Durability != nil {
		sum, log, err := wal.New(w.db, w.coreOptions(), *w.cfg.Durability)
		if err != nil {
			return err
		}
		w.sum, w.log = sum, log
		return nil
	}
	sum, err := core.New(w.db, w.coreOptions())
	if err != nil {
		return err
	}
	w.sum = sum
	return nil
}

// Resume reopens a durable window from cfg.Durability.Dir: the summary
// and its points come from the newest usable checkpoint plus WAL replay,
// and the FIFO eviction order is reconstructed from the point IDs (IDs
// are assigned in arrival order and never reused). cfg must carry the
// same Seed, Bubbles and Summarizer config as the original run. The total
// arrival count is not durable; Arrived restarts at the window size. A
// window that crashed before warmup left no durable state — wal.ErrNoState
// signals that NewWindow is the right entry point.
func Resume(cfg Config) (*Window, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Durability == nil {
		return nil, errors.New("stream: Resume requires Config.Durability")
	}
	w := &Window{cfg: cfg}
	st, err := wal.Resume(w.coreOptions(), *cfg.Durability)
	if err != nil {
		return nil, err
	}
	w.db, w.sum, w.log = st.DB, st.Summarizer, st.Log
	w.replayed = st.Replayed
	if w.db.Dim() != cfg.Dim {
		return nil, fmt.Errorf("stream: recovered dimensionality %d, config says %d", w.db.Dim(), cfg.Dim)
	}
	w.fifo = w.db.IDs()
	sort.Slice(w.fifo, func(a, b int) bool { return w.fifo[a] < w.fifo[b] })
	w.arrived = w.db.Len()
	return w, nil
}

// Log exposes the durability log, or nil when the window is not durable
// (or warmup has not completed).
func (w *Window) Log() *wal.Log { return w.log }

// Replayed returns how many WAL batches Resume re-applied on top of the
// checkpoint this window recovered from (zero for fresh windows).
func (w *Window) Replayed() int { return w.replayed }

// Flush applies the buffered updates to the summarizer immediately and
// returns the maintenance statistics. Flushing with nothing pending (or
// before warmup) is a no-op.
func (w *Window) Flush() (core.BatchStats, error) {
	return w.FlushContext(context.Background())
}

// FlushContext is Flush with cancellation, inheriting ApplyBatchContext's
// all-or-nothing contract. The buffer is cleared only when the batch was
// actually absorbed — the batch counter advancing is the commit signal,
// which also covers an applied batch whose trailing checkpoint failed.
// On a recoverable failure — cancellation, a WAL append rejected before
// anything reached disk — the batch was neither applied nor logged, so
// it stays pending for a retry (its points are already in w.db; dropping
// it would desynchronize the summary from the database for good). A
// poisoned log also clears the buffer: the batch is either durably
// logged (replay re-applies it) or lost with the torn tail, and either
// way only wal.Resume can continue from here.
func (w *Window) FlushContext(ctx context.Context) (core.BatchStats, error) {
	if w.sum == nil {
		return core.BatchStats{}, nil
	}
	if len(w.pending) == 0 {
		return core.BatchStats{}, nil
	}
	before := w.sum.Batches()
	stats, err := w.sum.ApplyBatchContext(ctx, w.pending)
	if w.sum.Batches() != before || (w.log != nil && w.log.Poisoned() != nil) {
		w.pending = w.pending[:0]
	}
	return stats, err
}

// Checkpoint flushes the buffer and persists the current summary. It is
// a no-op before warmup and an error on a non-durable window.
func (w *Window) Checkpoint() error {
	if w.sum == nil {
		return nil
	}
	if w.log == nil {
		return errors.New("stream: window has no durability configured")
	}
	if _, err := w.Flush(); err != nil {
		return err
	}
	return w.log.Checkpoint(w.sum)
}

// Close flushes, takes a final checkpoint when durable (this is where a
// write-behind checkpoint failure with no later cadence point to report
// through surfaces), and releases the log. The window must not be used
// afterwards.
func (w *Window) Close() error {
	var err error
	if w.sum != nil {
		_, err = w.Flush()
	}
	if w.log == nil {
		return err
	}
	if err == nil {
		err = w.log.Checkpoint(w.sum)
	}
	if cerr := w.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// Pending returns the number of buffered, not-yet-applied updates.
func (w *Window) Pending() int { return len(w.pending) }
