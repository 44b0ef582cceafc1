package recommend

import (
	"fmt"

	"evorec/internal/profile"
)

// Learner closes the paper's human-in-the-loop: users both consume
// recommendations and, through their reactions, generate the data the next
// recommendations are computed from. Accepting a measure pulls the user's
// interest vector toward the entities that measure highlights; rejecting
// pushes it away. The updates are bounded multiplicative/additive steps so
// profiles stay stable under noisy feedback.
type Learner struct {
	// Rate is the learning rate in (0, 1].
	Rate float64
}

// NewLearner validates the rate and returns a learner.
func NewLearner(rate float64) (*Learner, error) {
	if rate <= 0 || rate > 1 {
		return nil, fmt.Errorf("recommend: learning rate must be in (0,1], got %g", rate)
	}
	return &Learner{Rate: rate}, nil
}

// Accept records positive feedback: the user engaged with the measure, so
// interest grows on every entity the measure highlights, proportional to
// the highlight strength (the entity's normalized score). The measure is
// also marked seen (feeding novelty-aware diversity).
func (l *Learner) Accept(u *profile.Profile, it Item) {
	s := it.Scores.Normalize()
	for i := 0; i < s.Len(); i++ {
		t, score := s.Term(i), s.Value(i)
		if score <= 0 {
			continue
		}
		u.SetInterest(t, u.InterestIn(t)+l.Rate*score)
	}
	u.MarkSeen(it.ID())
}

// Reject records negative feedback: interest decays multiplicatively on
// the highlighted entities; weights below a small floor are dropped so
// rejected topics eventually leave the profile. The measure is marked seen.
func (l *Learner) Reject(u *profile.Profile, it Item) {
	const floor = 1e-6
	s := it.Scores.Normalize()
	for i := 0; i < s.Len(); i++ {
		t, score := s.Term(i), s.Value(i)
		if score <= 0 {
			continue
		}
		w := u.InterestIn(t) * (1 - l.Rate*score)
		if w < floor {
			w = 0
		}
		u.SetInterest(t, w)
	}
	u.MarkSeen(it.ID())
}
