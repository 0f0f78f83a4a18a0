package dissent

import (
	"fmt"

	"dissent/internal/core"
	"dissent/internal/store"
)

// StateStore is the embedded durable key-value store backing a
// server's session state: the certified roster-update log, the beacon
// chain, and the restart snapshot. One store file serves one session;
// give each session its own path.
type StateStore = store.KV

// OpenStateStore opens (creating if needed) the durable state store at
// path and prepares it for a session:
//
//   - A torn final record — the artifact of a crash mid-append — is
//     healed by truncation. Mid-file garbage is content damage and
//     refuses to open.
//   - Prior content is NOT archived away: the whole point of the
//     store is that a restarted server resumes the session recorded
//     in it. A file with no session snapshot holds nothing a fresh
//     session can resume, so it is cleared instead — stale roster or
//     beacon buckets from an abandoned run would otherwise poison the
//     new session's replica.
//   - When shadowed log records outnumber the live set the log is
//     compacted down to the live set before use, bounding file growth
//     across repeated restarts.
//
// A file that does hold a snapshot is kept whatever else it holds;
// opening a session over it refuses another group's snapshot, and any
// record written in another record format, naming both.
func OpenStateStore(path string) (*StateStore, error) {
	kv, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	if !core.HasSnapshot(kv) {
		if kv.Len() > 0 {
			if err := kv.Reset(); err != nil {
				kv.Close()
				return nil, fmt.Errorf("dissent: clearing stale state store: %w", err)
			}
		}
		return kv, nil
	}
	if kv.Garbage() > kv.Len() {
		if err := kv.Compact(); err != nil {
			kv.Close()
			return nil, fmt.Errorf("dissent: compacting state store: %w", err)
		}
	}
	return kv, nil
}
