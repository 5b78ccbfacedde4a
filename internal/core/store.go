package core

import "fmt"

// ProfileStore is the document exchanged between profiling runs and
// prediction sessions: a set of profiles plus the calibrations and scaling
// factors needed to use them. Its JSON form is the body of the profile
// file, which profile.Store reads and writes.
type ProfileStore struct {
	Profiles []Profile                  `json:"profiles"`
	Links    map[string]LinkCalibration `json:"links,omitempty"`
	Scalings map[string]Scaling         `json:"scalings,omitempty"`
}

// Validate checks every profile in the store. An application may appear
// at most once: Find returns the first match, so a duplicate entry would
// silently shadow the later one.
func (s ProfileStore) Validate() error {
	if len(s.Profiles) == 0 {
		return fmt.Errorf("core: profile store is empty")
	}
	seen := make(map[string]int, len(s.Profiles))
	for i, p := range s.Profiles {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("core: profile %d: %w", i, err)
		}
		if j, dup := seen[p.App]; dup {
			return fmt.Errorf("core: profiles %d and %d both describe %q", j, i, p.App)
		}
		seen[p.App] = i
	}
	return nil
}

// Find returns the store's profile for an application, preferring the
// first match.
func (s ProfileStore) Find(app string) (Profile, bool) {
	for _, p := range s.Profiles {
		if p.App == app {
			return p, true
		}
	}
	return Profile{}, false
}

// NewPredictorFromStore builds a predictor for one application from a
// store, wiring in its calibrations and scaling factors.
func NewPredictorFromStore(s ProfileStore, app string, m AppModel) (*Predictor, error) {
	p, ok := s.Find(app)
	if !ok {
		return nil, fmt.Errorf("core: store has no profile for %q", app)
	}
	pred, err := NewPredictor(p, m)
	if err != nil {
		return nil, err
	}
	for k, v := range s.Links {
		pred.Links[k] = v
	}
	for k, v := range s.Scalings {
		pred.Scalings[k] = v
	}
	return pred, nil
}
