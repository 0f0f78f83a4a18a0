package bench

import (
	"testing"
	"time"
)

func TestCalibrateSane(t *testing.T) {
	m := Calibrate()
	if m.ECBaseMul <= 0 || m.ECScalarMul <= 0 || m.ModExp <= 0 {
		t.Fatalf("non-positive op costs: %+v", m)
	}
	if m.AESBps < 1e6 {
		t.Errorf("AES throughput %v B/s implausibly low", m.AESBps)
	}
	// Ordering: a 2048-bit modexp must cost far more than a P-256 op.
	if m.ModExp < m.ECScalarMul {
		t.Errorf("modexp (%v) cheaper than EC scalar mult (%v)", m.ModExp, m.ECScalarMul)
	}
}

func TestShuffleTimeScalesLinearly(t *testing.T) {
	m := Calibrate()
	p := ShuffleParams{Servers: 4, Inputs: 100, Width: 1}
	t100 := ShuffleTime(ecCosts(m), p)
	p.Inputs = 200
	t200 := ShuffleTime(ecCosts(m), p)
	ratio := float64(t200) / float64(t100)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("doubling N scaled time by %.2f, want ~2", ratio)
	}
}

func TestModPShuffleDwarfsKeyShuffle(t *testing.T) {
	// The Fig. 9 asymmetry: accusation shuffles (mod-p, wide vectors)
	// must cost far more than key shuffles (P-256, width 1).
	m := Calibrate()
	key := ShuffleTime(ecCosts(m), ShuffleParams{Servers: 24, Inputs: 500, Width: 1})
	blame := ShuffleTime(modpCosts(m), ShuffleParams{Servers: 24, Inputs: 500, Width: AccusationWidth()})
	if blame < 5*key {
		t.Errorf("blame shuffle (%v) not ≫ key shuffle (%v)", blame, key)
	}
}

func TestFig9RowsMonotone(t *testing.T) {
	rows := Fig9(DefaultFig9Config())
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].KeyShuffle <= rows[i-1].KeyShuffle {
			t.Error("key shuffle time not increasing with N")
		}
		if rows[i].BlameShuffle <= rows[i-1].BlameShuffle {
			t.Error("blame shuffle time not increasing with N")
		}
	}
	// DC-net round is a negligible fraction of the shuffles at 1000
	// clients ("extremely efficient, accounting for a negligible
	// portion of total time in large groups").
	last := rows[len(rows)-1]
	if last.DCNetRound*10 > last.KeyShuffle {
		t.Errorf("DC-net round (%v) not ≪ key shuffle (%v) at N=1000",
			last.DCNetRound, last.KeyShuffle)
	}
}

func TestFig9ValidationAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("real shuffle validation is slow")
	}
	v, err := Fig9Validate(3, 12)
	if err != nil {
		t.Fatal(err)
	}
	// The real time must lie within 4x of the span between the model as
	// calibrated just before the shuffles and just after them: contention
	// from whatever shares the host moves both sides.
	check := func(name string, real time.Duration, model [2]time.Duration) {
		lo, hi := min(model[0], model[1]), max(model[0], model[1])
		if real < lo/4 || real > hi*4 {
			t.Errorf("%s: real %v vs model %v..%v outside 4x band", name, real, lo, hi)
		}
	}
	check("key shuffle", v.KeyShuffleReal, v.KeyShuffleModel)
	check("message shuffle", v.MsgShuffleReal, v.MsgShuffleModel)
}

func TestRunScalePointQuick(t *testing.T) {
	row, err := RunScalePoint(4, 16, Microblog(), DeterLab(), 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if row.Rounds < 2 {
		t.Fatalf("measured %d rounds", row.Rounds)
	}
	if row.Total <= 0 || row.Submit <= 0 {
		t.Fatalf("non-positive timings: %+v", row)
	}
	// DeterLab floor: client latency alone is 50 ms one-way.
	if row.Total < 50*time.Millisecond {
		t.Errorf("round time %v below latency floor", row.Total)
	}
	if row.Total > 30*time.Second {
		t.Errorf("round time %v implausibly high for 16 clients", row.Total)
	}
}

func TestBulkScenarioCarries128KB(t *testing.T) {
	row, err := RunScalePoint(3, 8, DataSharing(), DeterLab(), 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	// 128 KB through 100/16 Mbit/s client uplink alone is ~170 ms.
	if row.Total < 150*time.Millisecond {
		t.Errorf("bulk round %v too fast to have carried 128KB", row.Total)
	}
}

func TestFig6Quick(t *testing.T) {
	res, err := Fig6(QuickFig6Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d policies", len(res))
	}
	byName := map[string]Fig6Result{}
	for _, r := range res {
		if len(r.Times) == 0 {
			t.Fatalf("policy %s produced no rounds", r.Policy.Name)
		}
		byName[r.Policy.Name] = r
	}
	// The early-cutoff policies must beat the wait-for-all baseline at
	// the median.
	base := byName["baseline-120s"]
	fast := byName["1.1x"]
	medBase := base.Times[len(base.Times)/2]
	medFast := fast.Times[len(fast.Times)/2]
	if medFast >= medBase {
		t.Errorf("1.1x median (%v) not below baseline median (%v)", medFast, medBase)
	}
	// Wider windows admit more stragglers.
	if byName["2.0x"].MissedFrac > byName["1.1x"].MissedFrac+1e-9 {
		t.Errorf("2.0x missed more clients (%.4f) than 1.1x (%.4f)",
			byName["2.0x"].MissedFrac, byName["1.1x"].MissedFrac)
	}
}

func TestFig10Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("browsing sim is slow")
	}
	res, err := Fig10(QuickFig10Config())
	if err != nil {
		t.Fatal(err)
	}
	means := map[string]time.Duration{}
	for _, r := range res {
		if len(r.Stats.Times) == 0 {
			t.Fatalf("config %s produced no samples", r.Config)
		}
		means[r.Config] = r.Stats.Mean()
	}
	// The paper's ordering: direct ≪ tor ≤ dissent < dissent+tor.
	if !(means["direct"] < means["tor"]) {
		t.Errorf("direct (%v) not faster than tor (%v)", means["direct"], means["tor"])
	}
	if !(means["direct"] < means["dissent"]) {
		t.Errorf("direct (%v) not faster than dissent (%v)", means["direct"], means["dissent"])
	}
	if !(means["dissent"] < means["dissent+tor"]) {
		t.Errorf("dissent (%v) not faster than dissent+tor (%v)", means["dissent"], means["dissent+tor"])
	}
	if !(means["tor"] < means["dissent+tor"]) {
		t.Errorf("tor (%v) not faster than dissent+tor (%v)", means["tor"], means["dissent+tor"])
	}
}

func TestCDFShape(t *testing.T) {
	pts := CDF([]time.Duration{time.Second, 2 * time.Second, 4 * time.Second})
	if len(pts) != 3 {
		t.Fatal("wrong point count")
	}
	if pts[0][1] <= 0 || pts[2][1] != 1.0 {
		t.Errorf("CDF endpoints wrong: %v", pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i][0] < pts[i-1][0] || pts[i][1] <= pts[i-1][1] {
			t.Error("CDF not monotone")
		}
	}
}
