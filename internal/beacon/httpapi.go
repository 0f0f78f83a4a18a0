package beacon

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// ScheduleCert is the session artifact a beacon chain's genesis binds
// to: the certified slot-key list and every server's Schnorr signature
// over it (verifiable with the group definition alone). Serving it
// beside the chain lets an external verifier derive the session
// genesis itself instead of trusting the server's claimed value.
type ScheduleCert struct {
	Keys [][]byte // encoded pseudonym public keys, slot order
	Sigs [][]byte // per server index, over the schedule-cert bytes
}

type scheduleCertJSON struct {
	Keys []string `json:"keys"`
	Sigs []string `json:"sigs"`
}

// Handler serves a chain over HTTP. Routes (all GET, JSON responses):
//
//	/beacon/latest        newest entry (404 on an empty chain)
//	/beacon/{round}       entry for an exact round (404 when missing)
//	/beacon/from/{round}  earliest entry with Round >= round
//	/beacon/range/{from}  JSON array of entries with Round >= from
//	                      (paged; ?max= caps the page, server limit 1024)
//	/beacon/info          chain summary: length, head round, genesis
//	/beacon/schedule      the session's schedule certificate (404
//	                      until the schedule certifies)
//
// cert, which must be non-nil, is a callback because the certificate
// only exists once setup completes; it returns nil until then. The
// dissent SDK mounts this next to the protocol transport; HTTPSource
// is the matching client side.
func Handler(c *Chain, cert func() *ScheduleCert) http.Handler {
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(v)
	}
	writeEntry := func(w http.ResponseWriter, e *Entry) {
		if e == nil {
			http.Error(w, "no such beacon entry", http.StatusNotFound)
			return
		}
		writeJSON(w, encodeEntry(e))
	}
	mux.HandleFunc("GET /beacon/latest", func(w http.ResponseWriter, r *http.Request) {
		writeEntry(w, c.Latest())
	})
	mux.HandleFunc("GET /beacon/info", func(w http.ResponseWriter, r *http.Request) {
		info := struct {
			Entries   int    `json:"entries"`
			HeadRound uint64 `json:"head_round"`
			HeadValue string `json:"head_value"`
			Genesis   string `json:"genesis"`
		}{Entries: c.Len()}
		genesis := c.Genesis()
		info.Genesis = hex.EncodeToString(genesis[:])
		head := c.Head()
		info.HeadValue = hex.EncodeToString(head[:])
		if latest := c.Latest(); latest != nil {
			info.HeadRound = latest.Round
		}
		writeJSON(w, info)
	})
	mux.HandleFunc("GET /beacon/range/{from}", func(w http.ResponseWriter, r *http.Request) {
		from, err := strconv.ParseUint(r.PathValue("from"), 10, 64)
		if err != nil {
			http.Error(w, "bad round", http.StatusBadRequest)
			return
		}
		max := 256
		if q := r.URL.Query().Get("max"); q != "" {
			if v, err := strconv.Atoi(q); err == nil && v > 0 {
				max = v
			}
		}
		if max > 1024 {
			max = 1024
		}
		page := c.RangeFrom(from, max)
		out := make([]entryJSON, len(page)) // empty page encodes as [], not null
		for i, e := range page {
			out[i] = encodeEntry(e)
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("GET /beacon/from/{round}", func(w http.ResponseWriter, r *http.Request) {
		round, err := strconv.ParseUint(r.PathValue("round"), 10, 64)
		if err != nil {
			http.Error(w, "bad round", http.StatusBadRequest)
			return
		}
		writeEntry(w, c.From(round))
	})
	mux.HandleFunc("GET /beacon/{round}", func(w http.ResponseWriter, r *http.Request) {
		round, err := strconv.ParseUint(r.PathValue("round"), 10, 64)
		if err != nil {
			http.Error(w, "bad round", http.StatusBadRequest)
			return
		}
		writeEntry(w, c.Get(round))
	})
	mux.HandleFunc("GET /beacon/schedule", func(w http.ResponseWriter, r *http.Request) {
		sc := cert()
		if sc == nil {
			http.Error(w, "schedule not yet certified", http.StatusNotFound)
			return
		}
		writeJSON(w, scheduleCertJSON{Keys: hexSlice(sc.Keys), Sigs: hexSlice(sc.Sigs)})
	})
	return mux
}

func hexSlice(bs [][]byte) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = hex.EncodeToString(b)
	}
	return out
}

// defaultHTTPClient bounds fetches against unresponsive servers so a
// CLI sync fails instead of hanging forever.
var defaultHTTPClient = &http.Client{Timeout: 30 * time.Second}

// HTTPSource fetches chain entries from a node serving Handler. It
// implements Source, so Chain.Sync can catch up (verifying every
// entry) directly from a server's beacon endpoint.
type HTTPSource struct {
	// URL is the base URL, e.g. "http://127.0.0.1:7080".
	URL string
	// Client overrides the default 30s-timeout client when non-nil.
	Client *http.Client
}

// maxResponse bounds one beacon response body (a full range page at
// the server's 1024-entry limit fits with room to spare).
const maxResponse = 64 << 20

// getJSON fetches path and decodes its JSON body into v. A 404 is
// ErrNotFound; any other non-200 status is an error.
func (s *HTTPSource) getJSON(path string, v any) error {
	client := s.Client
	if client == nil {
		client = defaultHTTPClient
	}
	resp, err := client.Get(strings.TrimSuffix(s.URL, "/") + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return ErrNotFound
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("beacon: GET %s: %s", path, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponse))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("beacon: GET %s: %w", path, err)
	}
	return nil
}

// Latest implements Source.
func (s *HTTPSource) Latest() (*Entry, error) {
	var j entryJSON
	if err := s.getJSON("/beacon/latest", &j); err != nil {
		return nil, err
	}
	return decodeEntry(j)
}

// Range implements Source: one request fetches a page of entries.
func (s *HTTPSource) Range(from uint64, max int) ([]*Entry, error) {
	var js []entryJSON
	if err := s.getJSON(fmt.Sprintf("/beacon/range/%d?max=%d", from, max), &js); err != nil {
		return nil, err
	}
	entries := make([]*Entry, len(js))
	for i, j := range js {
		e, err := decodeEntry(j)
		if err != nil {
			return nil, err
		}
		entries[i] = e
	}
	return entries, nil
}

// Schedule fetches the session's schedule certificate, or ErrNotFound
// when the server has not certified one (or predates the endpoint).
// Callers must verify the certificate's signatures themselves before
// deriving a SessionGenesis from it.
func (s *HTTPSource) Schedule() (*ScheduleCert, error) {
	var j scheduleCertJSON
	if err := s.getJSON("/beacon/schedule", &j); err != nil {
		return nil, err
	}
	keys, err := unhexSlice(j.Keys)
	if err != nil {
		return nil, fmt.Errorf("beacon: schedule keys: %w", err)
	}
	sigs, err := unhexSlice(j.Sigs)
	if err != nil {
		return nil, fmt.Errorf("beacon: schedule sigs: %w", err)
	}
	return &ScheduleCert{Keys: keys, Sigs: sigs}, nil
}

func unhexSlice(ss []string) ([][]byte, error) {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		b, err := hex.DecodeString(s)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}
