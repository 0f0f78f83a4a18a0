package core

import (
	"errors"
	"fmt"
	"time"

	"dissent/internal/crypto"
)

// Trusted-bootstrap entry points. Benchmark harnesses reproducing the
// paper's Figures 7–8 measure DC-net round behaviour at thousands of
// clients; running the full verifiable scheduling shuffle there would
// measure Figure 9's subject instead (and costs O(k·N·M²) public-key
// operations). InstallSchedule lets a harness inject a pre-agreed slot
// assignment so the engines start directly in the running phase. The
// production path remains Start + the shuffle protocol.

// InstallSchedule (server) installs slot pseudonym keys directly and
// begins round 0. It must be called instead of Start.
func (s *Server) InstallSchedule(now time.Time, slotKeys []crypto.Element) (*Output, error) {
	if s.phase != phaseSetup && s.sched != nil {
		return nil, errors.New("core: schedule already established")
	}
	if len(slotKeys) == 0 {
		return nil, errors.New("core: empty slot key list")
	}
	if err := s.newSchedule(len(slotKeys), nil, nil); err != nil {
		return nil, err
	}
	s.slotKeys = slotKeys
	s.prevCount = len(slotKeys)
	s.phase = phaseRunning
	s.setup.retire()
	s.rosterDigests[s.def.Version] = s.sched.Digest()
	s.persistSnapshot()
	out := &Output{Events: []Event{{Kind: EventScheduleReady,
		Detail: fmt.Sprintf("%d slots (trusted bootstrap)", len(slotKeys))}}}
	s.maybeOpenRounds(now, out)
	return out, nil
}

// InstallSchedule (client) installs the slot assignment and pseudonym
// keypair and submits round 0. It must be called instead of Start.
func (c *Client) InstallSchedule(now time.Time, numSlots, mySlot int, pseudonym *crypto.KeyPair) (*Output, error) {
	if c.ready {
		return nil, errors.New("core: schedule already established")
	}
	if mySlot < 0 || mySlot >= numSlots {
		return nil, fmt.Errorf("core: slot %d out of range [0,%d)", mySlot, numSlots)
	}
	if pseudonym == nil {
		kp, err := crypto.GenerateKeyPair(c.keyGrp, c.rand)
		if err != nil {
			return nil, err
		}
		pseudonym = kp
	}
	if err := c.newSchedule(numSlots, nil, nil); err != nil {
		return nil, err
	}
	c.pseudonym = pseudonym
	c.mySlot = mySlot
	c.ready = true
	dig := c.sched.Digest()
	c.applyDigest = dig[:]
	out := &Output{Events: []Event{{Kind: EventScheduleReady,
		Detail: fmt.Sprintf("slot %d of %d (trusted bootstrap)", mySlot, numSlots)}}}
	sub, err := c.submitRound(now)
	if err != nil {
		return nil, err
	}
	out.merge(sub)
	return out, nil
}
