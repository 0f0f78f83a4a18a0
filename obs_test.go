package dissent_test

// Observability integration tests: a Host's Prometheus exposition,
// round-span ring, and structured logs are scraped concurrently while
// a SimNet group certifies rounds through an expel + rejoin churn
// scenario — under -race, this doubles as a data-race check on every
// collect-at-scrape path.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dissent"
)

// sampleLine is the text-exposition sample grammar (values like 12,
// 0.5, 1e-05, +Inf, NaN).
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// checkExposition asserts every non-comment line parses as a sample.
func checkExposition(t *testing.T, text string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("exposition line does not parse: %q", line)
		}
	}
}

// metricValue returns the first sample of family whose label block
// contains every given substring.
func metricValue(t *testing.T, text, family string, labelSubs ...string) (float64, bool) {
	t.Helper()
line:
	for _, l := range strings.Split(text, "\n") {
		if !strings.HasPrefix(l, family+"{") && !strings.HasPrefix(l, family+" ") {
			continue
		}
		for _, sub := range labelSubs {
			if !strings.Contains(l, sub) {
				continue line
			}
		}
		fields := strings.Fields(l)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", l, err)
		}
		return v, true
	}
	return 0, false
}

func httpGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(b), nil
}

// syncBuffer is a mutex-guarded log sink safe for concurrent writes.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestObservabilityDuringChurn runs an expel + rejoin scenario on a
// hosted SimNet group while hammering /metrics and /debug/rounds, then
// asserts the exposition parses, the phase histograms and churn
// counters advanced, the span ring filled, and the engine's structured
// logs carried session attributes.
func TestObservabilityDuringChurn(t *testing.T) {
	policy := churnPolicy()
	sKeys, cKeys, grp := buildGroup(t, 2, 4, policy)
	net := dissent.NewSimNet()
	defer net.Close()

	logs := &syncBuffer{}
	logger := slog.New(slog.NewTextHandler(logs, &slog.HandlerOptions{Level: slog.LevelDebug}))
	host, err := dissent.NewHost(dissent.WithHostSimNet(net), dissent.WithHostLogger(logger))
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()

	sess, err := host.OpenSession(grp, sKeys[0])
	if err != nil {
		t.Fatal(err)
	}
	rounds := sess.Subscribe(dissent.EventRoundComplete)
	roster := sess.Subscribe(dissent.EventMemberExpelled, dissent.EventMemberJoined)

	peers := startGroup(t, grp, sKeys[1:], cKeys, func(dissent.Role, int) []dissent.Option {
		return []dissent.Option{dissent.WithTransport(net)}
	})
	defer peers.stop(t)

	ts := httptest.NewServer(host.DebugHandler())
	defer ts.Close()

	// Hammer the scrape paths while the protocol churns: under -race
	// this exercises collector reads against live engine writes.
	scrapeDone := make(chan struct{})
	scrapeErr := make(chan error, 1)
	go func() {
		defer close(scrapeErr)
		for {
			select {
			case <-scrapeDone:
				return
			case <-time.After(20 * time.Millisecond):
			}
			for _, path := range []string{"/metrics", "/debug/rounds", "/metrics.json"} {
				if _, err := httpGet(ts.URL + path); err != nil {
					select {
					case scrapeErr <- err:
					default:
					}
					return
				}
			}
		}
	}()

	waitEvent(t, "first certified round", rounds, func(dissent.Event) bool { return true }, 60*time.Second)

	// Expel a client (definition index 2: upstream server 0) and rejoin
	// it, so the churn counters and roster version move.
	var expellee *dissent.Node
	for _, n := range peers.clients {
		if n.Index() == 2 {
			expellee = n
		}
	}
	if expellee == nil {
		t.Fatal("no client with definition index 2")
	}
	selfExpel := expellee.Subscribe(dissent.EventMemberExpelled)
	if err := sess.Expel(expellee.ID()); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, "expulsion", roster, func(e dissent.Event) bool {
		return e.Kind == dissent.EventMemberExpelled && e.Culprit == expellee.ID()
	}, 60*time.Second)
	// Rejoin only once the expellee has learned of its own expulsion.
	waitEvent(t, "expulsion at the expellee", selfExpel, func(e dissent.Event) bool {
		return e.Culprit == expellee.ID()
	}, 60*time.Second)
	rejoinCtx, cancelRejoin := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancelRejoin()
	if err := expellee.Rejoin(rejoinCtx); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, "re-admission", roster, func(e dissent.Event) bool {
		return e.Kind == dissent.EventMemberJoined && e.Culprit == expellee.ID()
	}, 60*time.Second)
	waitEvent(t, "round after churn", rounds, func(dissent.Event) bool { return true }, 60*time.Second)

	close(scrapeDone)
	if err := <-scrapeErr; err != nil {
		t.Fatalf("background scrape: %v", err)
	}

	// The JSON and the Prometheus text render the same snapshot path;
	// the JSON read first, counters can only have grown by the time the
	// text scrape lands.
	var hm dissent.HostMetrics
	jsonText, err := httpGet(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(jsonText), &hm); err != nil {
		t.Fatalf("/metrics.json does not decode as HostMetrics: %v", err)
	}
	text, err := httpGet(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	checkExposition(t, text)

	serverSel := []string{`role="server"`, `session="` + sess.SessionID().String() + `"`}
	mustAtLeast := func(family string, min float64, labelSubs ...string) {
		t.Helper()
		v, ok := metricValue(t, text, family, labelSubs...)
		if !ok {
			t.Fatalf("family %s (labels %v) missing from exposition", family, labelSubs)
		}
		if v < min {
			t.Fatalf("%s = %v, want >= %v", family, v, min)
		}
	}
	mustAtLeast("dissent_rounds_completed_total", 1, serverSel...)
	mustAtLeast("dissent_round_phase_seconds_count", 1, append(serverSel, `phase="window"`)...)
	mustAtLeast("dissent_round_phase_seconds_count", 1, append(serverSel, `phase="total"`)...)
	mustAtLeast("dissent_round_phase_seconds_bucket", 1, append(serverSel, `phase="window"`, `le="+Inf"`)...)
	mustAtLeast("dissent_churn_expels_total", 1, serverSel...)
	mustAtLeast("dissent_churn_joins_total", 1, serverSel...)
	mustAtLeast("dissent_roster_version", 2, serverSel...)
	mustAtLeast("dissent_sessions_open", 1)
	mustAtLeast("dissent_host_rounds_completed_total", float64(hm.RoundsCompleted))
	if _, ok := metricValue(t, text, "dissent_pad_prefetch_total", append(serverSel, `result="hit"`)...); !ok {
		t.Fatal("dissent_pad_prefetch_total{result=\"hit\"} missing")
	}
	for _, family := range []string{"dissent_round_phase_seconds", "dissent_rounds_completed_total"} {
		if !strings.Contains(text, "# TYPE "+family+" ") {
			t.Fatalf("exposition lacks TYPE header for %s", family)
		}
	}

	// The span ring: the host session's recent traces are non-trivial
	// and served at /debug/rounds.
	roundsText, err := httpGet(ts.URL + "/debug/rounds")
	if err != nil {
		t.Fatal(err)
	}
	var traced []struct {
		Session string               `json:"session"`
		Role    string               `json:"role"`
		Traces  []dissent.RoundTrace `json:"traces"`
	}
	if err := json.Unmarshal([]byte(roundsText), &traced); err != nil {
		t.Fatalf("/debug/rounds does not decode: %v", err)
	}
	var serverTraces []dissent.RoundTrace
	for _, s := range traced {
		if s.Session == sess.SessionID().String() {
			serverTraces = s.Traces
		}
	}
	if len(serverTraces) == 0 {
		t.Fatal("no round traces for the host session")
	}
	last := serverTraces[len(serverTraces)-1]
	if last.Total <= 0 || last.Participation == 0 {
		t.Fatalf("trace lacks substance: %+v", last)
	}
	if got := sess.RecentTraces(1); len(got) != 1 {
		t.Fatalf("RecentTraces(1) returned %d spans", len(got))
	}

	// Structured logs: engine debug milestones flowed through the host
	// logger with the session attribute attached.
	logged := logs.String()
	for _, want := range []string{"window closed", "roster update applied",
		"session=" + sess.SessionID().String(), "role=server"} {
		if !strings.Contains(logged, want) {
			t.Fatalf("structured logs lack %q; logs:\n%.2000s", want, logged)
		}
	}
}
