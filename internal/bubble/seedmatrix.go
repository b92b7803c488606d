package bubble

import "incbubbles/internal/vecmath"

// seedMatrix is the eager k×k matrix of seed–seed distances that the
// Figure 2 search prunes against with Lemma 1 (§3). Row i belongs to the
// seed of the set's bubble i. Every mutation recomputes the affected row
// and column through the set's counter, so every entry is always current
// and a lookup never computes.
type seedMatrix struct {
	counter *vecmath.Counter
	dist    [][]float64
}

// add appends a row and column for the seed of the last bubble: len−1
// counted distances.
func (m *seedMatrix) add(bubbles []*Bubble) {
	idx := len(bubbles) - 1
	p := bubbles[idx].seed
	row := make([]float64, idx+1)
	for j := 0; j < idx; j++ {
		dj := m.counter.Distance(p, bubbles[j].seed)
		row[j] = dj
		m.dist[j] = append(m.dist[j], dj)
	}
	m.dist = append(m.dist, row)
}

// update recomputes the row and column of bubble i's (moved) seed: len−1
// counted distances.
func (m *seedMatrix) update(bubbles []*Bubble, i int) {
	p := bubbles[i].seed
	for j, b := range bubbles {
		if j == i {
			m.dist[i][i] = 0
			continue
		}
		dj := m.counter.Distance(p, b.seed)
		m.dist[i][j] = dj
		m.dist[j][i] = dj
	}
}

// remove deletes row and column i by moving the last ones into slot i
// and truncating, mirroring Set.RemoveBubble's swap-remove. It computes
// no distances.
func (m *seedMatrix) remove(i int) {
	last := len(m.dist) - 1
	if i != last {
		for j := 0; j <= last; j++ {
			m.dist[j][i] = m.dist[j][last]
			m.dist[i][j] = m.dist[last][j]
		}
		m.dist[i][i] = 0
	}
	m.dist = m.dist[:last]
	for j := range m.dist {
		m.dist[j] = m.dist[j][:last]
	}
}
