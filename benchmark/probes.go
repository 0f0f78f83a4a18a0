package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dissent/internal/beacon"
	"dissent/internal/core"
	"dissent/internal/crypto"
	"dissent/internal/dcnet"
)

// Probes time the computational layers — crypto, dcnet, beacon — whose
// calls happen inside the engines and cannot be timed from outside a
// Handle call: each is called directly at the shape the traced run
// captured, and its unit cost is multiplied by the exact count.

// probeBudget is how long one probe samples.
const probeBudget = 20 * time.Millisecond

// timeOp returns the median duration of fn over batches sampled for
// about probeBudget (at least five batches).
func timeOp(fn func()) time.Duration {
	fn() // warm caches and lazy tables
	batch := 1
	for {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		if time.Since(t0) > 200*time.Microsecond || batch >= 1<<16 {
			break
		}
		batch *= 2
	}
	var per []float64
	start := time.Now()
	for len(per) < 5 || time.Since(start) < probeBudget {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(batch))
	}
	return time.Duration(median(per))
}

// allocsPerOp returns heap allocations per call of fn. Nothing else
// runs while a probe does, so the process-wide counter is fn's.
func allocsPerOp(fn func()) float64 {
	const n = 50
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / n
}

// inRange reports whether a span's round identifier is a measured
// round.
func inRange(round string, r0, r1 uint64) bool {
	v, err := strconv.ParseUint(round, 10, 64)
	return err == nil && v >= r0 && v < r1
}

// aggregate turns the span log and the exact counts into the traced
// per-layer rows over R measured rounds.
func (st *stepper) aggregate(R int) (map[string]float64, error) {
	r0 := st.firstRound + traceWarmRounds
	r1 := r0 + uint64(R)
	if _, ok := st.completeAt[r1-1]; !ok {
		return nil, fmt.Errorf("measured round %d never completed at server 0", r1-1)
	}
	L := make(map[string]float64)
	var total, enc, dec, wr, rd, srv, cli, putTotal time.Duration
	var puts, putBytes int
	var putMs, submitUs, outputUs []float64
	for i := range st.spans {
		s := &st.spans[i]
		if !inRange(s.Round, r0, r1) {
			continue
		}
		self := s.self()
		total += self
		switch {
		case s.Name == "wire.encode":
			enc += self
		case s.Name == "wire.decode":
			dec += self
		case s.Name == "transport.write":
			wr += self
		case s.Name == "transport.read":
			rd += self
		case s.Name == "store.put":
			puts++
			putBytes += s.Bytes
			putTotal += self
			putMs = append(putMs, millis(self))
		case strings.HasPrefix(s.Name, "core."):
			if strings.HasPrefix(s.Member, "s") {
				srv += self
			} else {
				cli += self
			}
			switch s.Name {
			case "core.handle." + core.MsgClientSubmit.String():
				submitUs = append(submitUs, micros(self))
			case "core.handle." + core.MsgOutput.String():
				outputUs = append(outputUs, micros(self))
			}
		}
	}
	rounds := func(m map[uint64]int) float64 {
		t := 0
		for r := r0; r < r1; r++ {
			t += m[r]
		}
		return float64(t)
	}
	L["wire.encode_ms_per_round"] = perRound(millis(enc), R)
	L["wire.decode_ms_per_round"] = perRound(millis(dec), R)
	L["wire.bytes_per_round"] = perRound(rounds(st.wireBytes), R)
	L["transport.write_ms_per_round"] = perRound(millis(wr), R)
	L["transport.read_ms_per_round"] = perRound(millis(rd), R)
	L["transport.frames_per_round"] = perRound(rounds(st.frames), R)
	L["store.puts_per_round"] = perRound(float64(puts), R)
	L["store.put_bytes_per_round"] = perRound(float64(putBytes), R)
	L["store.put_ms_p50"] = percentile(putMs, 0.50)
	L["store.put_ms_p95"] = percentile(putMs, 0.95)
	L["store.put_ms_per_round"] = perRound(millis(putTotal), R)
	L["core.msgs_per_round"] = perRound(rounds(st.msgs), R)
	L["core.server_handle_ms_per_round"] = perRound(millis(srv), R)
	L["core.client_handle_ms_per_round"] = perRound(millis(cli), R)
	L["core.client_submit_handle_us"] = median(submitUs)
	L["core.output_handle_us"] = median(outputUs)
	L["core.setup_cpu_ms"] = millis(st.setupCPU)
	L["core.round_virtual_ms"] = perRound(millis(st.completeAt[r1-1].Sub(st.completeAt[r0-1])), R)
	L["budget.sum_ms_per_round"] = perRound(millis(total), R)

	var vec []float64
	for r := r0; r < r1; r++ {
		vec = append(vec, float64(st.vectorBytes[r]))
	}
	meanVec := int(sum(vec) / float64(R))
	L["dcnet.vector_bytes"] = median(vec)

	N, M := len(st.clients), len(st.servers)

	// crypto: Schnorr over P-256 costs a fixed part plus hashing the
	// signed bytes; fit both from two sizes and apply them to the exact
	// counts and byte totals.
	verifies, signs := rounds(st.verifies), rounds(st.signs)
	medSize := int(median(st.signedSizes))
	verify, sign, verifyAllocs, err := probeSchnorr(medSize)
	if err != nil {
		return nil, err
	}
	L["crypto.verify_us_per_op"] = 1000 * verify.at(medSize)
	L["crypto.sign_us_per_op"] = 1000 * sign.at(medSize)
	L["crypto.verify_allocs_per_op"] = verifyAllocs
	L["crypto.verifies_per_round"] = perRound(verifies, R)
	L["crypto.signs_per_round"] = perRound(signs, R)
	verifyMs := perRound(verifies*verify.fixedMs+rounds(st.verifyBytes)*verify.msPerByte, R)
	signMs := perRound(signs*sign.fixedMs+rounds(st.signBytes)*sign.msPerByte, R)
	L["crypto.verify_ms_per_round"] = verifyMs
	L["crypto.sign_ms_per_round"] = signMs

	// wire: allocations of one encode + decode at the median body size.
	body := make([]byte, max(medSize-53, 0))
	sample := &core.Message{Type: core.MsgClientSubmit, Round: 1, Body: body, Sig: make([]byte, 64)}
	if st.w.Sim {
		L["wire.allocs_per_msg"] = 0
	} else {
		L["wire.allocs_per_msg"] = allocsPerOp(func() {
			if _, err := core.DecodeMessage(core.EncodeMessage(sample)); err != nil {
				panic(err) // the codec cannot reject its own output
			}
		})
	}

	// dcnet: pad expansion is linear in the vector, so it is probed at
	// the mean captured length; the slot codec at every captured shape.
	seed := func(i int) []byte { return crypto.Hash("bench/probe-seed", []byte{byte(i), byte(i >> 8)}) }
	clientSeeds := make([][]byte, N)
	for i := range clientSeeds {
		clientSeeds[i] = seed(i)
	}
	serverSeeds := make([][]byte, M)
	for i := range serverSeeds {
		serverSeeds[i] = seed(1000 + i)
	}
	dst := make([]byte, max(meanVec, 1))
	msg := make([]byte, len(dst))
	ppad := dcnet.NewParallelPad(crypto.NewAESPRNG, 0)
	padOp := func() { ppad.ServerPadInto(dst, clientSeeds, 7) }
	L["dcnet.server_pad_ms_per_round"] = millis(timeOp(padOp)) * float64(M)
	L["dcnet.pad_allocs_per_seed"] = allocsPerOp(padOp) / float64(N)
	pad := dcnet.NewPad(crypto.NewAESPRNG)
	L["dcnet.client_ct_ms_per_round"] = millis(timeOp(func() {
		pad.Prepare(serverSeeds, 7).CiphertextInto(dst, msg)
	})) * float64(N)

	slotCost := make(map[int]time.Duration) // slot length -> encode once + decode at every member
	var slotTotal time.Duration
	reqBytes := (N + 7) / 8
	for r := r0; r < r1; r++ {
		open := st.vectorBytes[r] - reqBytes
		k := max(st.deliveredIn[r], 1)
		if open/k < dcnet.MinSlotLen {
			continue
		}
		n := open / k
		c, ok := slotCost[n]
		if !ok {
			buf := make([]byte, n)
			payload := dcnet.SlotPayload{Data: make([]byte, dcnet.SlotCapacity(n))}
			rnd := seedStream(st.seed, "probe-slot", 0)
			var perr error
			e := timeOp(func() {
				if err := dcnet.EncodeSlot(buf, payload, rnd); err != nil {
					perr = err
				}
			})
			d := timeOp(func() {
				if _, _, err := dcnet.DecodeSlot(buf); err != nil {
					perr = err
				}
			})
			if perr != nil {
				return nil, fmt.Errorf("slot codec probe at %d bytes: %w", n, perr)
			}
			c = e + time.Duration(N+M)*d
			slotCost[n] = c
		}
		slotTotal += time.Duration(k) * c
	}
	L["dcnet.slot_codec_ms_per_round"] = perRound(millis(slotTotal), R)

	// beacon: each server makes one share and verifies all M per round;
	// clients append certified entries without re-verifying shares.
	L["beacon.share_ms_per_round"] = 0
	if st.w.BeaconEpoch > 0 {
		kp, err := crypto.GenerateKeyPair(crypto.P256(), seedStream(st.seed, "probe-beacon", 0))
		if err != nil {
			return nil, err
		}
		prev := beacon.GenesisValue([32]byte{1})
		rnd := seedStream(st.seed, "probe-beacon", 1)
		var share []byte
		var perr error
		mk := timeOp(func() {
			if share, err = beacon.MakeShare(kp, 9, prev, rnd); err != nil {
				perr = err
			}
		})
		vf := timeOp(func() {
			if err := beacon.VerifyShare(crypto.P256(), kp.Public, 9, prev, share); err != nil {
				perr = err
			}
		})
		if perr != nil {
			return nil, fmt.Errorf("beacon probe: %w", perr)
		}
		L["beacon.share_ms_per_round"] = millis(mk+time.Duration(M)*vf) * float64(M)
	}

	// What is left of the engines' own time once the probed layers that
	// run on the engine goroutine are taken out. The server pad runs on
	// the engines' background prefetch goroutine and is not subtracted.
	L["core.step_ms_per_round"] = L["core.server_handle_ms_per_round"] + L["core.client_handle_ms_per_round"] -
		verifyMs - signMs - L["dcnet.client_ct_ms_per_round"] - L["dcnet.slot_codec_ms_per_round"] - L["beacon.share_ms_per_round"]
	return L, nil
}

// opCost is an operation's cost as a function of its input size: a
// fixed part plus a per-byte part, both in milliseconds.
type opCost struct{ fixedMs, msPerByte float64 }

func (c opCost) at(size int) float64 { return c.fixedMs + c.msPerByte*float64(size) }

// fitCost fits an opCost through the times measured at size and at
// size+step.
func fitCost(size, step int, small, large time.Duration) opCost {
	perByte := max(millis(large-small)/float64(step), 0)
	return opCost{fixedMs: millis(small) - perByte*float64(size), msPerByte: perByte}
}

// probeSchnorr times crypto.Verify and KeyPair.Sign on P-256 at the
// median signed size and 64 KiB above it, and returns each one's cost
// fit and the allocations of one verify at the median size.
func probeSchnorr(medSize int) (verify, sign opCost, verifyAllocs float64, err error) {
	g := crypto.P256()
	kp, err := crypto.GenerateKeyPair(g, seedStream(1, "probe-schnorr", 0))
	if err != nil {
		return verify, sign, 0, err
	}
	rnd := seedStream(1, "probe-schnorr", 1)
	const step = 64 << 10
	var verifyAt, signAt [2]time.Duration
	for i, size := range []int{medSize, medSize + step} {
		msg := make([]byte, size)
		var sig crypto.Signature
		var perr error
		signAt[i] = timeOp(func() {
			if sig, err = kp.Sign("dissent/msg", msg, rnd); err != nil {
				perr = err
			}
		})
		verifyOp := func() {
			if err := crypto.Verify(g, kp.Public, "dissent/msg", msg, sig); err != nil {
				perr = err
			}
		}
		verifyAt[i] = timeOp(verifyOp)
		if i == 0 {
			verifyAllocs = allocsPerOp(verifyOp)
		}
		if perr != nil {
			return verify, sign, 0, fmt.Errorf("schnorr probe: %w", perr)
		}
	}
	return fitCost(medSize, step, verifyAt[0], verifyAt[1]), fitCost(medSize, step, signAt[0], signAt[1]), verifyAllocs, nil
}

// countRows are the traced rows that must repeat exactly for a seed.
var countRows = []string{
	"core.msgs_per_round",
	"wire.bytes_per_round",
	"crypto.verifies_per_round",
	"store.puts_per_round",
	"core.round_virtual_ms",
}
