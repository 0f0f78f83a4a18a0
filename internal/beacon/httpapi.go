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

// hexBytes is a byte string as the HTTP API writes it: in hex.
type hexBytes []byte

func (b hexBytes) MarshalText() ([]byte, error) { return []byte(hex.EncodeToString(b)), nil }

func (b *hexBytes) UnmarshalText(t []byte) (err error) {
	*b, err = hex.DecodeString(string(t))
	return err
}

type scheduleCertJSON struct {
	Keys []hexBytes `json:"keys"`
	Sigs []hexBytes `json:"sigs"`
}

// entryJSON is an Entry as the HTTP API serves it.
type entryJSON struct {
	Round     uint64   `json:"round"`
	Count     uint32   `json:"count"`
	Cleartext hexBytes `json:"cleartext_hash"`
	Sig       hexBytes `json:"sig"`
	Prev      hexBytes `json:"prev"`
	Value     hexBytes `json:"value"`
}

// MarshalJSON renders the entry as the HTTP API serves it, its byte
// fields in hex.
func (e *Entry) MarshalJSON() ([]byte, error) {
	return json.Marshal(entryJSON{e.Round, e.Count, e.Cleartext[:], e.Sig, e.Prev[:], e.Value[:]})
}

// UnmarshalJSON reads an entry in the form MarshalJSON writes.
func (e *Entry) UnmarshalJSON(b []byte) error {
	var j entryJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	if len(j.Cleartext) != ValueLen || len(j.Prev) != ValueLen || len(j.Value) != ValueLen {
		return fmt.Errorf("beacon: entry %d: hash fields of %d, %d and %d bytes, want %d",
			j.Round, len(j.Cleartext), len(j.Prev), len(j.Value), ValueLen)
	}
	*e = Entry{Round: j.Round, Count: j.Count, Sig: j.Sig}
	copy(e.Cleartext[:], j.Cleartext)
	copy(e.Prev[:], j.Prev)
	copy(e.Value[:], j.Value)
	return nil
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
		writeJSON(w, e)
	}
	// entryAt serves the entry pick returns for the path's round.
	entryAt := func(pick func(uint64) *Entry) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			round, err := strconv.ParseUint(r.PathValue("round"), 10, 64)
			if err != nil {
				http.Error(w, "bad round", http.StatusBadRequest)
				return
			}
			writeEntry(w, pick(round))
		}
	}
	mux.HandleFunc("GET /beacon/latest", func(w http.ResponseWriter, r *http.Request) {
		writeEntry(w, c.Latest())
	})
	mux.HandleFunc("GET /beacon/info", func(w http.ResponseWriter, r *http.Request) {
		genesis, head := c.Genesis(), c.Head()
		info := struct {
			Entries   int      `json:"entries"`
			HeadRound uint64   `json:"head_round"`
			HeadValue hexBytes `json:"head_value"`
			Genesis   hexBytes `json:"genesis"`
		}{Entries: c.Len(), HeadValue: head[:], Genesis: genesis[:]}
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
		if v, err := strconv.Atoi(r.URL.Query().Get("max")); err == nil && v > 0 {
			max = min(v, 1024)
		}
		writeJSON(w, append([]*Entry{}, c.RangeFrom(from, max)...)) // an empty page encodes as [], not null
	})
	mux.HandleFunc("GET /beacon/from/{round}", entryAt(c.From))
	mux.HandleFunc("GET /beacon/{round}", entryAt(c.Get))
	mux.HandleFunc("GET /beacon/schedule", func(w http.ResponseWriter, r *http.Request) {
		sc := cert()
		if sc == nil {
			http.Error(w, "schedule not yet certified", http.StatusNotFound)
			return
		}
		writeJSON(w, scheduleCertJSON{Keys: hexList[hexBytes](sc.Keys), Sigs: hexList[hexBytes](sc.Sigs)})
	})
	return mux
}

// hexList converts a list of byte strings between [][]byte and
// []hexBytes.
func hexList[U, T ~[]byte](in []T) []U {
	out := make([]U, len(in))
	for i, b := range in {
		out[i] = U(b)
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

// Range implements Source: one request fetches a page of entries.
func (s *HTTPSource) Range(from uint64, max int) ([]*Entry, error) {
	var page []*Entry
	err := s.getJSON(fmt.Sprintf("/beacon/range/%d?max=%d", from, max), &page)
	return page, err
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
	return &ScheduleCert{Keys: hexList[[]byte](j.Keys), Sigs: hexList[[]byte](j.Sigs)}, nil
}
