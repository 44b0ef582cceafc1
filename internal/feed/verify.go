package feed

import "evorec/internal/store/vfs"

// VerifyInfo summarizes a persisted feed directory's state after a full
// strict replay of its journal: subscriber registry, per-user logs, and the
// fan-out ledger.
type VerifyInfo struct {
	// Subscribers is the registry size; Logs how many users hold a feed
	// log; Entries the total retained notifications.
	Subscribers, Logs, Entries int
	// Pairs is the fan-out ledger — every (older, newer) version pair
	// already delivered — sorted. "store verify" cross-checks each pair
	// against the version chain it claims to have fanned out.
	Pairs [][2]string
}

// Verify replays the journal of the feed directory dir — one dataset's,
// <feed root>/<dataset> — and reports its state, read-only: nothing is
// created, compacted or written. A missing journal and a pre-journal
// directory are errors, and so is corruption, exactly as Open fails on it;
// a torn tail is not.
func Verify(dir string) (*VerifyInfo, error) {
	data, err := readJournal(vfs.OS{}, dir)
	if err != nil {
		return nil, err
	}
	f, err := Open(Config{})
	if err != nil {
		return nil, err
	}
	if err := f.load(data); err != nil {
		return nil, err
	}
	info := &VerifyInfo{Subscribers: len(f.subs), Logs: len(f.logs), Pairs: f.ledgerLocked()}
	for _, lg := range f.logs {
		info.Entries += len(lg.entries)
	}
	return info, nil
}
