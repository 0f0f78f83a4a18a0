package obs

import (
	"sync"
	"time"
)

// RoundTrace is one DC-net round's span record: where the round's
// latency went, phase by phase. Servers fill every phase; clients see
// only the round end-to-end (submit to certified output). Durations
// are zero for phases a role does not run. The engine builds the span
// when the round completes, timing its phase boundaries on the clock
// it is driven with, and never changes it once emitted. The JSON field
// names are the /debug/rounds wire format and the `dissent trace`
// input.
type RoundTrace struct {
	// Session is the owning session's ID (hex), stamped by the SDK; the
	// engine leaves it empty.
	Session string `json:"session,omitempty"`
	// Round is the DC-net round number; Attempts counts α-policy window
	// reopenings (0 = the window closed once).
	Round    uint64 `json:"round"`
	Attempts int    `json:"attempts,omitempty"`
	// Start is when the round opened (the previous certification).
	Start time.Time `json:"start"`
	// Window is submission-window time: open to final close. Pad is
	// critical-path pad expansion at window close; Combine is ciphertext
	// fold plus share assembly; Certify is certificate collection, from
	// this server's signature to the last peer's.
	Window  time.Duration `json:"window_ns"`
	Pad     time.Duration `json:"pad_ns"`
	Combine time.Duration `json:"combine_ns"`
	Certify time.Duration `json:"certify_ns"`
	// Blame is the duration of the accusation shuffle that concluded
	// since the member's previous span: it rides the first span the
	// member emits after the shuffle — the round the EventBlameVerdict
	// names, unless the member adopted that round's output from a peer
	// — not the disrupted round. BlameVerdict
	// carries the outcome ("client expelled", "server exposed",
	// "inconclusive") and BlameAccused the culprit's node ID (hex; empty
	// when inconclusive).
	Blame        time.Duration `json:"blame_ns,omitempty"`
	BlameVerdict string        `json:"blame_verdict,omitempty"`
	BlameAccused string        `json:"blame_accused,omitempty"`
	// Total is round open to certified output.
	Total time.Duration `json:"total_ns"`
	// Participation is the certified include-set size; Stragglers counts
	// expected members the window closed without.
	Participation int `json:"participation"`
	Stragglers    int `json:"stragglers,omitempty"`
	// PrefetchHit reports whether the pad came from the idle-time
	// prefetch: at a server, the window-long background pad expansion;
	// at a client, the streams prepared after its previous submission
	// (vs critical-path expansion).
	PrefetchHit bool `json:"prefetch_hit,omitempty"`
	// Failed marks a hard-timeout round (participation below α·prev).
	Failed bool `json:"failed,omitempty"`
	// Depth is the pipeline occupancy when this round's window opened
	// (this round included): 1 for serial operation, up to
	// Options.PipelineDepth when rounds overlap.
	Depth int `json:"depth,omitempty"`
}

// TraceRing is a bounded, concurrency-safe ring of the most recent
// round traces. Pushes past capacity evict the oldest entry.
type TraceRing struct {
	mu   sync.Mutex
	buf  []RoundTrace
	next int // write cursor
	full bool
}

// NewTraceRing builds a ring holding up to capacity traces (min 1).
func NewTraceRing(capacity int) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRing{buf: make([]RoundTrace, capacity)}
}

// Push appends a trace, evicting the oldest when full.
func (r *TraceRing) Push(t RoundTrace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = t
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// len reports the number of stored traces; callers hold r.mu.
func (r *TraceRing) len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// index maps logical position i (0 = oldest) to a buffer index;
// callers hold r.mu.
func (r *TraceRing) index(i int) int {
	if r.full {
		return (r.next + i) % len(r.buf)
	}
	return i
}

// Snapshot returns up to n of the most recent traces, oldest first
// (all of them when n <= 0).
func (r *TraceRing) Snapshot(n int) []RoundTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	have := r.len()
	if n <= 0 || n > have {
		n = have
	}
	out := make([]RoundTrace, 0, n)
	for i := have - n; i < have; i++ {
		out = append(out, r.buf[r.index(i)])
	}
	return out
}
