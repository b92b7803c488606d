package bubble

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"incbubbles/internal/dataset"
	"incbubbles/internal/vecmath"
)

// snapshot is the serialized form of a Set. Member IDs are stored per
// bubble in ascending order; the ownership map is reconstructed from them.
// Members is always written true and ignored on load: a populated bubble
// without its IDs is a decode error.
type snapshot struct {
	Version  int              `json:"version"`
	Dim      int              `json:"dim"`
	Triangle bool             `json:"triangle"`
	Members  bool             `json:"members"`
	Bubbles  []bubbleSnapshot `json:"bubbles"`
}

type bubbleSnapshot struct {
	Seed    []float64 `json:"seed"`
	N       int       `json:"n"`
	LS      []float64 `json:"ls"`
	SS      float64   `json:"ss"`
	Members []uint64  `json:"members,omitempty"`
}

const codecVersion = 1

// Save serializes the set as JSON so that a maintained summary survives a
// process restart: the sufficient statistics, seeds and ascending member
// IDs round-trip exactly; the seed distance matrix is recomputed on load.
// Distance counters are intentionally not persisted.
func (s *Set) Save(w io.Writer) error {
	snap := snapshot{
		Version:  codecVersion,
		Dim:      s.dim,
		Triangle: s.opts.UseTriangleInequality,
		Members:  true,
	}
	for _, b := range s.bubbles {
		bs := bubbleSnapshot{
			Seed:    append([]float64(nil), b.seed...),
			N:       b.n,
			LS:      append([]float64(nil), b.ls...),
			SS:      b.ss,
			Members: make([]uint64, len(b.members)),
		}
		for k, id := range b.members {
			bs.Members[k] = uint64(id)
		}
		snap.Bubbles = append(snap.Bubbles, bs)
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("bubble: encoding snapshot: %w", err)
	}
	return bw.Flush()
}

// Load reconstructs a Set saved with Save. Counter is the only Options
// field consulted: the pruning flag comes from the snapshot itself, and
// the seed distance matrix is recomputed from the restored seeds. Every
// bubble must list exactly n strictly ascending member IDs, and no ID may
// belong to two bubbles; a snapshot without member IDs is rejected.
func Load(r io.Reader, opts Options) (*Set, error) {
	var snap snapshot
	if err := json.NewDecoder(bufio.NewReader(r)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("bubble: decoding snapshot: %w", err)
	}
	if snap.Version != codecVersion {
		return nil, fmt.Errorf("bubble: snapshot version %d unsupported", snap.Version)
	}
	if snap.Dim <= 0 {
		return nil, errors.New("bubble: snapshot has invalid dimensionality")
	}
	s, err := NewSet(snap.Dim, Options{
		UseTriangleInequality: snap.Triangle,
		Counter:               opts.Counter,
	})
	if err != nil {
		return nil, err
	}
	for i, bs := range snap.Bubbles {
		if len(bs.Seed) != snap.Dim || len(bs.LS) != snap.Dim {
			return nil, fmt.Errorf("bubble: snapshot bubble %d has wrong dimensionality", i)
		}
		if bs.N < 0 {
			return nil, fmt.Errorf("bubble: snapshot bubble %d has negative count", i)
		}
		idx, err := s.AddBubble(vecmath.Point(bs.Seed))
		if err != nil {
			return nil, err
		}
		b := s.bubbles[idx]
		b.n = bs.N
		copy(b.ls, bs.LS)
		b.ss = bs.SS
		if len(bs.Members) != bs.N {
			return nil, fmt.Errorf("bubble: snapshot bubble %d: %d members for n=%d", i, len(bs.Members), bs.N)
		}
		b.members = make([]dataset.PointID, len(bs.Members))
		for k, raw := range bs.Members {
			id := dataset.PointID(raw)
			if k > 0 && id <= b.members[k-1] {
				return nil, fmt.Errorf("bubble: snapshot bubble %d: member IDs not strictly ascending", i)
			}
			if _, dup := s.owner[id]; dup {
				return nil, fmt.Errorf("bubble: snapshot point %d owned twice", id)
			}
			b.members[k] = id
			s.owner[id] = idx
		}
	}
	return s, nil
}
