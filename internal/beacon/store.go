package beacon

import (
	"encoding/hex"
	"fmt"
)

// entryJSON is the serialized form of an Entry, shared by the KV
// store and the HTTP API.
type entryJSON struct {
	Round  uint64   `json:"round"`
	Prev   string   `json:"prev"`
	Value  string   `json:"value"`
	Shares []string `json:"shares"`
}

func encodeEntry(e *Entry) entryJSON {
	j := entryJSON{
		Round: e.Round,
		Prev:  hex.EncodeToString(e.Prev[:]),
		Value: hex.EncodeToString(e.Value[:]),
	}
	for _, s := range e.Shares {
		j.Shares = append(j.Shares, hex.EncodeToString(s))
	}
	return j
}

func decodeEntry(j entryJSON) (*Entry, error) {
	e := &Entry{Round: j.Round}
	prev, err := hex.DecodeString(j.Prev)
	if err != nil || len(prev) != ValueLen {
		return nil, fmt.Errorf("beacon: bad prev in entry %d", j.Round)
	}
	value, err := hex.DecodeString(j.Value)
	if err != nil || len(value) != ValueLen {
		return nil, fmt.Errorf("beacon: bad value in entry %d", j.Round)
	}
	copy(e.Prev[:], prev)
	copy(e.Value[:], value)
	for i, s := range j.Shares {
		raw, err := hex.DecodeString(s)
		if err != nil {
			return nil, fmt.Errorf("beacon: bad share %d in entry %d", i, j.Round)
		}
		e.Shares = append(e.Shares, raw)
	}
	return e, nil
}
