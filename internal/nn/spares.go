package nn

import (
	"fmt"
	"sync"
)

// Spares keeps the models a trainer lends its local updates, between
// updates and without storage for their values: an update takes one bound
// to the vector it trains in (a borrowed copy of the global, or the
// client's own row) and gives it back when it is over. The process then
// keeps as many models as there are updates running at once, not one per
// client. The zero value is ready to use and safe for concurrent use.
type Spares[M Module] struct {
	mu   sync.Mutex
	idle []M
}

// Take returns an idle model — or build's, when none is — with its values
// bound to values (BindValues), which must hold ParamCount of them.
func (s *Spares[M]) Take(values []float64, build func() (M, error)) (M, error) {
	s.mu.Lock()
	var m M
	n := len(s.idle)
	if n > 0 {
		m = s.idle[n-1]
		s.idle = s.idle[:n-1]
	}
	s.mu.Unlock()
	if n == 0 {
		var err error
		if m, err = build(); err != nil {
			return m, err
		}
	}
	if want := ParamCount(m); len(values) != want {
		s.Give(m)
		var zero M
		return zero, fmt.Errorf("nn: a vector of %d values, the model has %d parameters", len(values), want)
	}
	BindValues(m, values)
	return m, nil
}

// Give unbinds m's values, which stay with whoever holds them, and keeps m
// for the next Take.
func (s *Spares[M]) Give(m M) {
	BindValues(m, nil)
	s.mu.Lock()
	s.idle = append(s.idle, m)
	s.mu.Unlock()
}

// Len is the number of models kept: built and given back.
func (s *Spares[M]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idle)
}
