package core

import (
	"fmt"
	"sort"

	"evorec/internal/profile"
	"evorec/internal/recommend"
)

// Notification tells one user that data they care about evolved, through
// which measure the evolution is best seen, and how strongly it concerns
// them — the paper's "humans are really interested to be notified about how
// data evolve" scenario (§I, §III).
type Notification struct {
	// UserID identifies the recipient.
	UserID string
	// OlderID and NewerID name the version pair that triggered the
	// notification.
	OlderID, NewerID string
	// MeasureID is the measure through which the change is best seen.
	MeasureID string
	// Relatedness is the user-measure relatedness that crossed the
	// threshold.
	Relatedness float64
	// Reason is a one-line human-readable explanation.
	Reason string
}

// UserNotificationsIndexed emits one user's notifications for a version
// pair: the user's top-k measures whose relatedness crosses the threshold,
// in descending relatedness order. It runs on the flat kernel
// (ItemIndex.NotifyEach): one interest compile, candidate-only scoring
// through the pair's item index, and flat explanations only for the
// measures actually emitted. The recommend parity suite holds that body,
// reasons included, bit-identical to the map-scored reference over the
// same items.
func UserNotificationsIndexed(u *profile.Profile, idx *recommend.ItemIndex, olderID, newerID string, threshold float64, k int) []Notification {
	var out []Notification
	idx.NotifyEach(u, threshold, k, func(measureID string, score float64, reason string) {
		out = append(out, Notification{
			UserID:      u.ID,
			OlderID:     olderID,
			NewerID:     newerID,
			MeasureID:   measureID,
			Relatedness: score,
			Reason:      reason,
		})
	})
	return out
}

// ValidateNotify refuses what Notify refuses before touching a pair: a
// threshold outside [0, 1] (NaN included), or k below 1.
func ValidateNotify(threshold float64, k int) error {
	if !(threshold >= 0 && threshold <= 1) {
		return fmt.Errorf("core: threshold must be in [0,1], got %g", threshold)
	}
	if k < 1 {
		return fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	return nil
}

// Notify scans the pool after a version pair and emits, per user, the top
// measures whose relatedness crosses the threshold — at most k per user.
// Users whose interests are untouched by the evolution stay silent.
// Notifications are ordered by user, then descending relatedness.
func (e *Engine) Notify(pool []*profile.Profile, olderID, newerID string, threshold float64, k int) ([]Notification, error) {
	if err := ValidateNotify(threshold, k); err != nil {
		return nil, err
	}
	p, err := e.cached(olderID, newerID)
	if err != nil {
		return nil, err
	}
	var out []Notification
	for _, u := range pool {
		out = append(out, UserNotificationsIndexed(u, p.idx, olderID, newerID, threshold, k)...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].UserID != out[j].UserID {
			return out[i].UserID < out[j].UserID
		}
		return out[i].Relatedness > out[j].Relatedness
	})
	return out, nil
}
