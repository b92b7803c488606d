package dbscan

import "errors"

// Noise is the label of points in no cluster.
const Noise = -1

// Params are the DBSCAN density parameters.
type Params struct {
	Eps    float64
	MinPts int
}

func (p Params) validate() error {
	if p.Eps <= 0 {
		return errors.New("dbscan: eps must be positive")
	}
	if p.MinPts < 1 {
		return errors.New("dbscan: MinPts must be at least 1")
	}
	return nil
}
