package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// feedBook is the client's record of every feed it polled: the cursor each
// user acked and the entries each user received. It checks cursor order and
// exactly-once delivery as entries arrive, and keeps the totals the
// conservation check compares.
type feedBook struct {
	mu       sync.Mutex
	cursor   map[string]uint64
	seen     map[string]map[entryKey]bool
	received int
	notified int // sum of feed.notified over acknowledged commits
}

type entryKey struct{ older, newer, measure string }

func newFeedBook() *feedBook {
	return &feedBook{cursor: make(map[string]uint64), seen: make(map[string]map[entryKey]bool)}
}

func (b *feedBook) after(ds, user string) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cursor[ds+"\x00"+user]
}

func (b *feedBook) addNotified(n int) {
	b.mu.Lock()
	b.notified += n
	b.mu.Unlock()
}

// record checks one poll's answer against the user's acked cursor and
// history, then acks it: cursors strictly increase past the acked one, next
// is the last cursor returned, and no (pair, measure) reaches a user twice.
func (b *feedBook) record(ds, user string, after, next uint64, entries []entry) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	key := ds + "\x00" + user
	if acked := b.cursor[key]; after != acked {
		return fmt.Errorf("poll %s/%s: after=%d but the acked cursor is %d", ds, user, after, acked)
	}
	last := after
	seen := b.seen[key]
	if seen == nil {
		seen = make(map[entryKey]bool)
		b.seen[key] = seen
	}
	for _, e := range entries {
		if e.Cursor <= last {
			return fmt.Errorf("poll %s/%s: cursor %d not past %d", ds, user, e.Cursor, last)
		}
		last = e.Cursor
		k := entryKey{e.Older, e.Newer, e.Measure}
		if seen[k] {
			return fmt.Errorf("poll %s/%s: %s..%s %s delivered twice", ds, user, e.Older, e.Newer, e.Measure)
		}
		seen[k] = true
	}
	if next != last {
		return fmt.Errorf("poll %s/%s: next=%d, want %d", ds, user, next, last)
	}
	b.cursor[key] = next
	b.received += len(entries)
	return nil
}

// httpExec sends ops to an evorec server. Each sender owns one client with
// a single keep-alive connection.
type httpExec struct {
	base    string
	clients []*http.Client
	book    *feedBook
}

func newHTTPExec(base string, n int, book *feedBook) *httpExec {
	h := &httpExec{base: base, book: book}
	for i := 0; i < n; i++ {
		h.clients = append(h.clients, &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		})
	}
	return h
}

func (h *httpExec) close() {
	for _, c := range h.clients {
		c.CloseIdleConnections()
	}
}

// request renders op as an HTTP request; after is the poll cursor.
func (h *httpExec) request(op *Op, after uint64) (*http.Request, error) {
	ds := "/v1/datasets/" + url.PathEscape(op.Dataset)
	q := url.Values{}
	if op.Kind.IsRead() {
		q.Set("older", op.Older)
		q.Set("newer", op.Newer)
		q.Set("k", strconv.Itoa(op.K))
	}
	method, path := http.MethodGet, ds
	var body []byte
	switch op.Kind {
	case Recommend:
		path += "/recommend"
		q.Set("strategy", op.Strategy)
		q.Set("user_id", op.User)
		q.Set("interests", op.Interests)
	case Group:
		path += "/recommend/group"
		q.Set("agg", op.Agg)
		q["member"] = op.Members
	case Notify:
		path += "/notify"
		q.Set("threshold", strconv.FormatFloat(op.Threshold, 'g', -1, 64))
		q["user"] = op.Members
	case Commit:
		method, path, body = http.MethodPost, ds+"/versions/"+url.PathEscape(op.Version), op.Body
	case Subscribe:
		method, path = http.MethodPut, ds+"/subscribers/"+url.PathEscape(op.User)
		body, _ = json.Marshal(map[string]string{"interests": op.Interests}) // a string map always marshals
	case Unsubscribe:
		method, path = http.MethodDelete, ds+"/subscribers/"+url.PathEscape(op.User)
	case Poll:
		path += "/feed/" + url.PathEscape(op.User)
		q.Set("after", strconv.FormatUint(after, 10))
		q.Set("limit", strconv.Itoa(op.K))
	case Create:
		method = http.MethodPost
	}
	u := h.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	return http.NewRequest(method, u, rd)
}

func (h *httpExec) exec(sender int, op *Op) *outcome {
	o := &outcome{}
	var after uint64
	if op.Kind == Poll {
		after = h.book.after(op.Dataset, op.User)
	}
	req, err := h.request(op, after)
	if err != nil {
		o.Sent = time.Now()
		o.Done = o.Sent
		o.Err = err
		return o
	}
	o.Sent = time.Now()
	resp, err := h.clients[sender].Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	o.Done = time.Now()
	if err != nil {
		o.Err = fmt.Errorf("%s %s: %w", op.Kind, op.Dataset, err)
		return o
	}
	o.Status = resp.StatusCode
	o.Err = h.check(op, after, body, o)
	return o
}

// check validates a response's status and shape and stores its outputs.
func (h *httpExec) check(op *Op, after uint64, body []byte, o *outcome) error {
	switch {
	case o.Status == op.Want:
	case op.Want == 0 && (o.Status == http.StatusOK || o.Status == http.StatusNotFound):
	default:
		return fmt.Errorf("%s %s %s%s: status %d, want %d: %s", op.Kind, op.Dataset, op.Version, op.User,
			o.Status, op.Want, strings.TrimSpace(string(body)))
	}
	if o.Status == http.StatusNotFound {
		return nil
	}
	bad := func(err error) error {
		return fmt.Errorf("%s %s: malformed response: %v", op.Kind, op.Dataset, err)
	}
	switch op.Kind {
	case Recommend:
		var r struct {
			User, Strategy  string
			Recommendations []rec
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return bad(err)
		}
		if r.User != op.User || r.Strategy != op.Strategy {
			return fmt.Errorf("recommend %s: echoed user %q strategy %q", op.Dataset, r.User, r.Strategy)
		}
		o.Recs = r.Recommendations
		return checkRanked(op, o.Recs, op.Strategy == "plain")
	case Group:
		var r struct {
			Members         int
			Recommendations []rec
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return bad(err)
		}
		if r.Members != len(op.Members) {
			return fmt.Errorf("group %s: %d members echoed, sent %d", op.Dataset, r.Members, len(op.Members))
		}
		o.Recs = r.Recommendations
		return checkRanked(op, o.Recs, true)
	case Notify:
		var r struct{ Notifications []note }
		if err := json.Unmarshal(body, &r); err != nil {
			return bad(err)
		}
		o.Notes = r.Notifications
		return checkNotes(op, o.Notes)
	case Commit:
		var r struct {
			ID        string
			Triples   int
			Feed      *fanStats
			FeedError string `json:"feed_error"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return bad(err)
		}
		if r.ID != op.Version || r.Triples <= 0 || r.FeedError != "" {
			return fmt.Errorf("commit %s/%s: ack id=%q triples=%d feed_error=%q", op.Dataset, op.Version, r.ID, r.Triples, r.FeedError)
		}
		if f := r.Feed; f != nil {
			if f.Skipped || f.Affected > f.Subscribers || f.Notified < 0 {
				return fmt.Errorf("commit %s/%s: fan-out %+v", op.Dataset, op.Version, *f)
			}
			h.book.addNotified(f.Notified)
		}
		o.Fan = r.Feed
	case Subscribe:
		var r struct {
			ID    string
			Terms int
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return bad(err)
		}
		if r.ID != op.User || r.Terms < 1 {
			return fmt.Errorf("subscribe %s/%s: ack id=%q terms=%d", op.Dataset, op.User, r.ID, r.Terms)
		}
	case Unsubscribe:
		var r struct {
			ID      string
			Deleted bool
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return bad(err)
		}
		if r.ID != op.User || !r.Deleted {
			return fmt.Errorf("unsubscribe %s/%s: ack %+v", op.Dataset, op.User, r)
		}
	case Poll:
		var r struct {
			User        string
			After, Next uint64
			Entries     []entry
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return bad(err)
		}
		if r.User != op.User || r.After != after || len(r.Entries) > op.K {
			return fmt.Errorf("poll %s/%s: echoed user %q after %d with %d entries (sent after=%d limit=%d)",
				op.Dataset, op.User, r.User, r.After, len(r.Entries), after, op.K)
		}
		o.Entries = r.Entries
		return h.book.record(op.Dataset, op.User, after, r.Next, r.Entries)
	case Create:
		var r struct {
			Name   string
			Backed bool
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return bad(err)
		}
		if r.Name != op.Dataset || r.Backed {
			return fmt.Errorf("create %s: ack %+v", op.Dataset, r)
		}
	}
	return nil
}

// checkRanked verifies a ranked list: at most k items, ranks 1..n and, for
// score-ranked selections, scores that never increase.
func checkRanked(op *Op, recs []rec, scoreOrdered bool) error {
	if len(recs) > op.K {
		return fmt.Errorf("%s %s: %d items > k=%d", op.Kind, op.Dataset, len(recs), op.K)
	}
	for i, r := range recs {
		if r.Rank != i+1 {
			return fmt.Errorf("%s %s: rank[%d] = %d", op.Kind, op.Dataset, i, r.Rank)
		}
		if scoreOrdered && i > 0 && recs[i-1].Score < r.Score {
			return fmt.Errorf("%s %s: score rises at rank %d (%g < %g)", op.Kind, op.Dataset, i+1, recs[i-1].Score, r.Score)
		}
	}
	return nil
}

// checkNotes verifies a notify answer: only pool members, relatedness at or
// above the threshold, at most k notifications each.
func checkNotes(op *Op, notes []note) error {
	per := make(map[string]int, len(op.Members))
	for _, m := range op.Members {
		id, _, _ := strings.Cut(m, ":")
		per[id] = 0
	}
	for _, n := range notes {
		c, ok := per[n.User]
		if !ok {
			return fmt.Errorf("notify %s: notification for %q outside the pool", op.Dataset, n.User)
		}
		if n.Relatedness < op.Threshold {
			return fmt.Errorf("notify %s: relatedness %g below threshold %g", op.Dataset, n.Relatedness, op.Threshold)
		}
		if per[n.User] = c + 1; c+1 > op.K {
			return fmt.Errorf("notify %s: more than k=%d notifications for %s", op.Dataset, op.K, n.User)
		}
	}
	return nil
}
