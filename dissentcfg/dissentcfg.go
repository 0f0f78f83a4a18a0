// Package dissentcfg holds the on-disk formats of the Dissent SDK:
// key files (one per participant), group definition files (whose hash
// is the group's self-certifying identifier), and transport rosters.
// Generate produces a complete group's material in one call — the
// programmatic form of cmd/keygen.
package dissentcfg

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/big"
	"os"

	"dissent"
	"dissent/internal/crypto"
	"dissent/internal/group"
)

// keyFile is the on-disk form of a participant's private keys.
type keyFile struct {
	Role       string `json:"role"` // "server" or "client"
	Private    string `json:"private"`
	Public     string `json:"public"`
	MsgPrivate string `json:"msgprivate,omitempty"`
	MsgPublic  string `json:"msgpublic,omitempty"`
}

// SaveKeys writes a member's keys as a key file: servers carry both
// the identity and message-shuffle keypairs, clients only the former.
func SaveKeys(path string, keys dissent.Keys) error {
	if keys.Identity == nil {
		return fmt.Errorf("dissentcfg: keys lack an identity keypair")
	}
	keyGrp := crypto.P256()
	kf := keyFile{
		Role:    "client",
		Private: keys.Identity.Private.Text(16),
		Public:  hex.EncodeToString(keyGrp.Encode(keys.Identity.Public)),
	}
	if keys.MsgShuffle != nil {
		kf.Role = "server"
		kf.MsgPrivate = keys.MsgShuffle.Private.Text(16)
		kf.MsgPublic = hex.EncodeToString(keys.MsgShuffle.Group.Encode(keys.MsgShuffle.Public))
	}
	data, err := json.MarshalIndent(kf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o600) // private-key permissions
}

// LoadKeys parses a key file. The group definition supplies the
// message-shuffle group for server files; client files (no message
// key) load with grp == nil too.
func LoadKeys(path string, grp *dissent.Group) (dissent.Keys, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return dissent.Keys{}, err
	}
	var kf keyFile
	if err := json.Unmarshal(data, &kf); err != nil {
		return dissent.Keys{}, fmt.Errorf("parse %s: %w", path, err)
	}
	keyGrp := crypto.P256()
	priv, ok := new(big.Int).SetString(kf.Private, 16)
	if !ok {
		return dissent.Keys{}, fmt.Errorf("bad private key in %s", path)
	}
	keys := dissent.Keys{
		Identity: &crypto.KeyPair{Group: keyGrp, Private: priv, Public: keyGrp.BaseMult(priv)},
	}
	if kf.MsgPrivate != "" && grp != nil {
		msgGrp := grp.MsgGroup()
		mpriv, ok := new(big.Int).SetString(kf.MsgPrivate, 16)
		if !ok {
			return dissent.Keys{}, fmt.Errorf("bad msg private key in %s", path)
		}
		keys.MsgShuffle = &crypto.KeyPair{Group: msgGrp, Private: mpriv, Public: msgGrp.BaseMult(mpriv)}
	}
	return keys, nil
}

// LoadGroup parses and validates a group definition file.
func LoadGroup(path string) (*dissent.Group, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def dissent.Group
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if err := def.Validate(); err != nil {
		return nil, fmt.Errorf("invalid group in %s: %w", path, err)
	}
	return &def, nil
}

// SaveGroup writes a group definition file (canonical encoding, so
// the file's hash is the group ID every member agrees on).
func SaveGroup(path string, grp *dissent.Group) error {
	data, err := grp.MarshalJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadRoster parses a roster file: a JSON object mapping hex node IDs
// to dialable addresses.
func LoadRoster(path string) (dissent.Roster, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raw map[string]string
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	roster := dissent.Roster{}
	for idHex, addr := range raw {
		rawID, err := hex.DecodeString(idHex)
		if err != nil || len(rawID) != 8 {
			return nil, fmt.Errorf("bad node ID %q in %s", idHex, path)
		}
		var id group.NodeID
		copy(id[:], rawID)
		roster[id] = addr
	}
	return roster, nil
}

// WriteRoster stores a roster file.
func WriteRoster(path string, roster dissent.Roster) error {
	raw := map[string]string{}
	for id, addr := range roster {
		raw[id.String()] = addr
	}
	data, err := json.MarshalIndent(raw, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
