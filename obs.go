package dissent

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"

	"dissent/internal/obs"
)

// RoundTrace is one DC-net round's span record — where the round's
// latency went, phase by phase. Servers fill every phase; clients see
// the round end-to-end. See Session.RecentTraces and the /debug/rounds
// endpoint of Host.DebugHandler.
type RoundTrace = obs.RoundTrace

// sessionHists is the per-session phase-latency state behind the
// dissent_round_phase_seconds histogram family. It exists only for the
// Prometheus exposition: scalar counters come from the same
// SessionMetrics snapshot /metrics.json serves, but histograms
// need per-observation bucketing no snapshot can reconstruct.
type sessionHists struct {
	window, pad, combine, certify, blame, total *obs.Histogram
	stragglers                                  obs.Counter

	// byDepth buckets round total latency by the pipeline occupancy at
	// the round's start (the dissent_round_duration_by_depth_seconds
	// family): under WithPipelineDepth it separates overlapped rounds
	// from drain/ramp rounds. Guarded by mu because scrapes read it
	// concurrently with the engine goroutine creating entries; the
	// histograms themselves are atomic.
	mu      sync.Mutex
	byDepth map[int]*obs.Histogram
}

func newSessionHists() *sessionHists {
	h := func() *obs.Histogram { return obs.NewHistogram(obs.LatencyBuckets...) }
	return &sessionHists{
		window: h(), pad: h(), combine: h(), certify: h(), blame: h(), total: h(),
		byDepth: make(map[int]*obs.Histogram),
	}
}

// depthHist returns the latency histogram for pipeline occupancy d,
// creating it on first use.
func (sh *sessionHists) depthHist(d int) *obs.Histogram {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	h := sh.byDepth[d]
	if h == nil {
		h = obs.NewHistogram(obs.LatencyBuckets...)
		sh.byDepth[d] = h
	}
	return h
}

// depths returns the per-occupancy histograms in ascending depth order.
func (sh *sessionHists) depths() (out []struct {
	depth int
	hist  *obs.Histogram
}) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ds := make([]int, 0, len(sh.byDepth))
	for d := range sh.byDepth {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	for _, d := range ds {
		out = append(out, struct {
			depth int
			hist  *obs.Histogram
		}{d, sh.byDepth[d]})
	}
	return out
}

// observe folds one round span into the histograms. Zero durations are
// phases the role did not run (or timed at zero) and are skipped — a
// client's trace must not drag the server-phase histograms to zero.
func (sh *sessionHists) observe(t obs.RoundTrace) {
	if t.Window > 0 {
		sh.window.ObserveDuration(t.Window)
	}
	if t.Pad > 0 {
		sh.pad.ObserveDuration(t.Pad)
	}
	if t.Combine > 0 {
		sh.combine.ObserveDuration(t.Combine)
	}
	if t.Certify > 0 {
		sh.certify.ObserveDuration(t.Certify)
	}
	if t.Total > 0 {
		sh.total.ObserveDuration(t.Total)
		if t.Depth > 0 {
			sh.depthHist(t.Depth).ObserveDuration(t.Total)
		}
	}
	if t.Stragglers > 0 {
		sh.stragglers.Add(uint64(t.Stragglers))
	}
}

// phases lists the histogram per phase label, in exposition order.
func (sh *sessionHists) phases() []struct {
	name string
	hist *obs.Histogram
} {
	return []struct {
		name string
		hist *obs.Histogram
	}{
		{"window", sh.window}, {"pad", sh.pad}, {"combine", sh.combine},
		{"certify", sh.certify}, {"blame", sh.blame}, {"total", sh.total},
	}
}

// promLabels returns the session's identifying label set, matching the
// fields of its SessionMetrics snapshot.
func (s *Session) promLabels() obs.Labels {
	return obs.L("session", s.sid.String(), "group", s.def.Name, "role", s.role.String())
}

func sessionLabels(sm SessionMetrics) obs.Labels {
	return obs.L("session", sm.Session.String(), "group", sm.Group, "role", sm.Role)
}

// MetricsHandler returns an http.Handler serving the host's metrics in
// Prometheus text exposition format (0.0.4): host totals, one series
// per open session for the counter/gauge families, and the per-phase
// round-latency histograms. Scalar families render from the same
// Host.Metrics snapshot /metrics.json serves, so the two expositions
// can never disagree.
func (h *Host) MetricsHandler() http.Handler {
	reg := obs.NewRegistry()
	reg.Collect(h.collectMetrics)
	return reg
}

// collectMetrics renders one scrape. It runs on the scrape goroutine;
// everything it touches is either a point-in-time snapshot or atomic.
func (h *Host) collectMetrics(w *obs.Writer) {
	hm := h.Metrics() // one snapshot: the same state /metrics.json serves

	w.Family("dissent_host_uptime_seconds", "gauge", "Seconds since the host was created.")
	w.Sample(nil, hm.Uptime.Seconds())
	w.Family("dissent_sessions_open", "gauge", "Currently open sessions on this host.")
	w.Sample(nil, float64(hm.Sessions))
	w.Family("dissent_sessions_opened_total", "counter", "Sessions opened over the host's lifetime.")
	w.Sample(nil, float64(hm.SessionsOpened))
	w.Family("dissent_sessions_closed_total", "counter", "Sessions closed over the host's lifetime.")
	w.Sample(nil, float64(hm.SessionsClosed))
	w.Family("dissent_host_messages_in_total", "counter", "Protocol messages handled, all sessions ever.")
	w.Sample(nil, float64(hm.MessagesIn))
	w.Family("dissent_host_messages_out_total", "counter", "Protocol messages sent, all sessions ever.")
	w.Sample(nil, float64(hm.MessagesOut))
	w.Family("dissent_host_bytes_in_total", "counter", "Approximate wire bytes handled, all sessions ever.")
	w.Sample(nil, float64(hm.BytesIn))
	w.Family("dissent_host_bytes_out_total", "counter", "Approximate wire bytes sent, all sessions ever.")
	w.Sample(nil, float64(hm.BytesOut))
	w.Family("dissent_host_rounds_completed_total", "counter", "Certified DC-net rounds, all sessions ever.")
	w.Sample(nil, float64(hm.RoundsCompleted))
	w.Family("dissent_host_rounds_failed_total", "counter", "Hard-timeout rounds, all sessions ever.")
	w.Sample(nil, float64(hm.RoundsFailed))

	if hm.Transport != nil {
		w.Family("dissent_transport_dial_failures_total", "counter", "Failed outbound dial attempts on the shared TCP fabric.")
		w.Sample(nil, float64(hm.Transport.DialFailures))
		w.Family("dissent_transport_frames_dropped_total", "counter", "Outbound frames lost to dial or write failures.")
		w.Sample(nil, float64(hm.Transport.FramesDropped))
		w.Family("dissent_transport_peers", "gauge", "Outbound peer connections by health state.")
		counts := map[string]int{}
		for _, p := range hm.Transport.Peers {
			counts[p.State]++
		}
		for _, state := range []string{"dialing", "connected", "failed"} {
			w.Sample(obs.L("state", state), float64(counts[state]))
		}
	}

	perSession := func(name, typ, help string, v func(SessionMetrics) float64) {
		w.Family(name, typ, help)
		for _, sm := range hm.PerSession {
			w.Sample(sessionLabels(sm), v(sm))
		}
	}
	perSession("dissent_uptime_seconds", "gauge", "Seconds since the session attached to its fabric.",
		func(sm SessionMetrics) float64 { return sm.Uptime.Seconds() })
	perSession("dissent_messages_in_total", "counter", "Protocol messages handled by the session.",
		func(sm SessionMetrics) float64 { return float64(sm.MessagesIn) })
	perSession("dissent_messages_out_total", "counter", "Protocol messages sent by the session.",
		func(sm SessionMetrics) float64 { return float64(sm.MessagesOut) })
	perSession("dissent_bytes_in_total", "counter", "Approximate wire bytes handled by the session.",
		func(sm SessionMetrics) float64 { return float64(sm.BytesIn) })
	perSession("dissent_bytes_out_total", "counter", "Approximate wire bytes sent by the session.",
		func(sm SessionMetrics) float64 { return float64(sm.BytesOut) })
	perSession("dissent_rounds_completed_total", "counter", "Certified DC-net rounds observed by the session.",
		func(sm SessionMetrics) float64 { return float64(sm.RoundsCompleted) })
	perSession("dissent_rounds_failed_total", "counter", "Hard-timeout rounds observed by the session.",
		func(sm SessionMetrics) float64 { return float64(sm.RoundsFailed) })
	perSession("dissent_last_round", "gauge", "Most recently certified round number.",
		func(sm SessionMetrics) float64 { return float64(sm.LastRound) })
	perSession("dissent_windows_closed_total", "counter", "Submission-window closures at this server.",
		func(sm SessionMetrics) float64 { return float64(sm.WindowsClosed) })
	perSession("dissent_window_seconds_total", "counter", "Cumulative submission-window time (round start to window close).",
		func(sm SessionMetrics) float64 { return sm.WindowTime.Seconds() })
	perSession("dissent_pad_compute_seconds_total", "counter", "Cumulative critical-path DC-net pad expansion time.",
		func(sm SessionMetrics) float64 { return sm.PadComputeTime.Seconds() })
	perSession("dissent_combine_seconds_total", "counter", "Cumulative combine latency (ciphertext fold + share assembly).",
		func(sm SessionMetrics) float64 { return sm.CombineTime.Seconds() })
	perSession("dissent_churn_joins_total", "counter", "Members admitted by certified roster updates.",
		func(sm SessionMetrics) float64 { return float64(sm.ChurnJoins) })
	perSession("dissent_churn_expels_total", "counter", "Members removed by certified roster updates.",
		func(sm SessionMetrics) float64 { return float64(sm.ChurnExpels) })
	perSession("dissent_roster_version", "gauge", "Current certified roster version.",
		func(sm SessionMetrics) float64 { return float64(sm.RosterVersion) })
	perSession("dissent_state_restores_total", "counter", "Live-session resumes from the durable state store.",
		func(sm SessionMetrics) float64 { return float64(sm.StateRestores) })
	perSession("dissent_replica_resyncs_total", "counter", "Schedule-replica replacements from a certified snapshot.",
		func(sm SessionMetrics) float64 { return float64(sm.ReplicaResyncs) })
	perSession("dissent_pipeline_depth", "gauge", "Configured round pipeline depth (WithPipelineDepth).",
		func(sm SessionMetrics) float64 { return float64(sm.PipelineDepth) })
	perSession("dissent_rounds_in_flight", "gauge", "Current pipeline occupancy: rounds between window open and retirement.",
		func(sm SessionMetrics) float64 { return float64(sm.RoundsInFlight) })
	perSession("dissent_blame_rounds_total", "counter", "Accusation shuffles observed opening (rounds sacrificed to disruptor tracing).",
		func(sm SessionMetrics) float64 { return float64(sm.BlameRounds) })

	w.Family("dissent_misbehavior_observed_total", "counter", "Attributed protocol offenses by kind (EventMisbehavior detail prefix).")
	for _, sm := range hm.PerSession {
		ls := sessionLabels(sm)
		for _, kind := range sortedKinds(sm.Misbehavior) {
			w.Sample(ls.With("kind", kind), float64(sm.Misbehavior[kind]))
		}
	}

	w.Family("dissent_pad_prefetch_total", "counter", "Rounds served from (hit) or without (miss) a prefetched server pad.")
	for _, sm := range hm.PerSession {
		ls := sessionLabels(sm)
		w.Sample(ls.With("result", "hit"), float64(sm.PadPrefetchHits))
		w.Sample(ls.With("result", "miss"), float64(sm.PadPrefetchMisses))
	}

	// Histograms come from live per-session state: phase-latency
	// bucketing cannot be reconstructed from a scalar snapshot.
	sessions := h.Sessions()
	w.Family("dissent_round_phase_seconds", "histogram", "Per-round phase latency: window, pad, combine, certify, blame, total.")
	for _, s := range sessions {
		ls := s.promLabels()
		for _, p := range s.hists.phases() {
			w.Hist(ls.With("phase", p.name), p.hist.Snapshot())
		}
	}
	w.Family("dissent_round_duration_by_depth_seconds", "histogram", "Round total latency by pipeline occupancy at round start.")
	for _, s := range sessions {
		ls := s.promLabels()
		for _, d := range s.hists.depths() {
			w.Hist(ls.With("depth", strconv.Itoa(d.depth)), d.hist.Snapshot())
		}
	}
	w.Family("dissent_round_stragglers_total", "counter", "Expected members the submission window closed without.")
	for _, s := range sessions {
		w.Sample(s.promLabels(), float64(s.hists.stragglers.Value()))
	}
}

// sessionTraces is one session's entry in the /debug/rounds payload.
type sessionTraces struct {
	Session SessionID    `json:"session"`
	Group   string       `json:"group"`
	Role    string       `json:"role"`
	Traces  []RoundTrace `json:"traces"`
}

// DebugHandler returns the host's operator/debug mux:
//
//	/metrics       Prometheus text exposition (see MetricsHandler)
//	/metrics.json  the same snapshot as JSON
//	/debug/rounds  recent per-round span records, JSON (?n= limit)
//	/debug/pprof/  the standard runtime profiles
//	/roster        every session's certified roster snapshot
//
// cmd/dissentd serves it on the -metrics address.
func (h *Host) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", h.MetricsHandler())
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, h.Metrics())
	})
	mux.HandleFunc("/debug/rounds", func(w http.ResponseWriter, r *http.Request) {
		n := 32
		if q := r.URL.Query().Get("n"); q != "" {
			if v, err := strconv.Atoi(q); err == nil && v > 0 {
				n = v
			}
		}
		out := []sessionTraces{}
		for _, s := range h.Sessions() {
			out = append(out, sessionTraces{
				Session: s.sid,
				Group:   s.def.Name,
				Role:    s.role.String(),
				Traces:  s.RecentTraces(n),
			})
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/roster", func(w http.ResponseWriter, r *http.Request) {
		infos := []RosterInfo{}
		for _, s := range h.Sessions() {
			infos = append(infos, s.RosterInfo())
		}
		writeJSON(w, infos)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// sortedKinds returns a misbehavior map's keys in stable order, so the
// exposition does not jitter between scrapes.
func sortedKinds(m map[string]uint64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
