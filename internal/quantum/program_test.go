package quantum

import (
	"math"
	"math/rand"
	"testing"
)

func TestProgramRunOnMatchesDirectApplication(t *testing.T) {
	// H(0), CNOT(0,1), Toffoli(0,1,2) via a program vs direct kernel calls.
	p := &Program{
		NumQubits: 3,
		Ops: []ProgOp{
			{Kind: ProgOp1Q, Q1: 0, M2: H},
			{Kind: ProgOp2Q, Q1: 0, Q2: 1, M4: CNOT01},
			{Kind: ProgOpToffoli, Q1: 0, Q2: 1, Q3: 2},
		},
	}
	got := MustNewState(3)
	if err := p.RunOn(got); err != nil {
		t.Fatal(err)
	}
	want := MustNewState(3)
	if err := want.Apply1Q(0, H); err != nil {
		t.Fatal(err)
	}
	if err := want.Apply2Q(0, 1, CNOT01); err != nil {
		t.Fatal(err)
	}
	if err := want.ApplyToffoli(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	f, err := got.Fidelity(want)
	if err != nil {
		t.Fatal(err)
	}
	if f < 1-1e-12 {
		t.Errorf("program fidelity vs direct application = %g, want ~1", f)
	}
}

func TestProgramRunOnValidates(t *testing.T) {
	p := &Program{NumQubits: 3, Ops: []ProgOp{{Kind: ProgOp1Q, Q1: 0, M2: X}}}
	if err := p.RunOn(MustNewState(2)); err == nil {
		t.Error("expected error for undersized state")
	}
	bad := &Program{NumQubits: 2, Ops: []ProgOp{{Kind: ProgOpKind(99)}}}
	if err := bad.RunOn(MustNewState(2)); err == nil {
		t.Error("expected error for unknown op kind")
	}
}

func TestStatePoolResetsOnAcquire(t *testing.T) {
	st, err := AcquireState(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply1Q(0, X); err != nil {
		t.Fatal(err)
	}
	ReleaseState(st)
	st2, err := AcquireState(3)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseState(st2)
	if p := st2.Probability(0); math.Abs(p-1) > 1e-12 {
		t.Errorf("pooled state not reset: P(|000>) = %g", p)
	}
	if _, err := AcquireState(0); err == nil {
		t.Error("expected error for 0 qubits")
	}
	ReleaseState(nil) // must not panic
}

func TestProbabilitiesIntoReusesBuffer(t *testing.T) {
	st := MustNewState(2)
	if err := st.Apply1Q(0, H); err != nil {
		t.Fatal(err)
	}
	want := st.ProbabilitiesInto(nil)
	buf := make([]float64, 0, 8)
	got := st.ProbabilitiesInto(buf)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	if &got[0] != &buf[:1][0] {
		t.Error("ProbabilitiesInto did not reuse the provided buffer")
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-15 {
			t.Errorf("prob[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	// Undersized buffer: must allocate, not panic.
	if out := st.ProbabilitiesInto(make([]float64, 1)); len(out) != 4 {
		t.Errorf("undersized dst: len = %d, want 4", len(out))
	}
}

func TestSampleBitstringMatchesDistribution(t *testing.T) {
	st := MustNewState(3)
	if err := PrepareGHZ(st); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const shots = 4000
	counts := map[int]int{}
	for i := 0; i < shots; i++ {
		counts[st.SampleBitstring(rng)]++
	}
	if len(counts) != 2 {
		t.Fatalf("GHZ single-draw sampling hit %d outcomes, want 2: %v", len(counts), counts)
	}
	f0 := float64(counts[0]) / shots
	if f0 < 0.45 || f0 > 0.55 {
		t.Errorf("P(|000>) = %.3f, want ~0.5", f0)
	}
}

func TestSampleBitstringAllocFree(t *testing.T) {
	st := MustNewState(6)
	if err := PrepareGHZ(st); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	allocs := testing.AllocsPerRun(200, func() {
		st.SampleBitstring(rng)
	})
	if allocs != 0 {
		t.Errorf("SampleBitstring allocates %.1f objects/op, want 0", allocs)
	}
}

func TestSampleBitstringsScratchReuse(t *testing.T) {
	st := MustNewState(4)
	if err := PrepareGHZ(st); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	st.SampleBitstrings(1, rng) // warm the scratch buffer
	allocs := testing.AllocsPerRun(100, func() {
		st.SampleBitstrings(1, rng)
	})
	// Only the 1-element result slice may allocate.
	if allocs > 1 {
		t.Errorf("SampleBitstrings(1) allocates %.1f objects/op, want <= 1", allocs)
	}
}
