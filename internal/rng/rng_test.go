package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at %d: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must differ from the parent's continuation.
	diff := false
	for i := 0; i < 64; i++ {
		if parent.Uint64() != child.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("Split produced a correlated stream")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from %f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(9)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %f too far from 0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolRate(t *testing.T) {
	r := New(13)
	const p, n = 0.3, 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(p) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-p) > 0.01 {
		t.Fatalf("Bool(%v) rate %f", p, rate)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(17)
	const mean, sd, n = 3.0, 2.0, 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal(mean, sd)
		sum += v
		sumSq += v * v
	}
	m := sum / n
	variance := sumSq/n - m*m
	if math.Abs(m-mean) > 0.05 {
		t.Errorf("normal mean %f want %f", m, mean)
	}
	if math.Abs(math.Sqrt(variance)-sd) > 0.05 {
		t.Errorf("normal stddev %f want %f", math.Sqrt(variance), sd)
	}
}

func TestRoundedPositiveNormal(t *testing.T) {
	r := New(19)
	for i := 0; i < 10000; i++ {
		v := r.RoundedPositiveNormal(0.1, 3)
		if v < 1 {
			t.Fatalf("RoundedPositiveNormal returned %d < 1", v)
		}
	}
	// With sigma=0 the value is deterministic.
	for i := 0; i < 10; i++ {
		if v := r.RoundedPositiveNormal(6, 0); v != 6 {
			t.Fatalf("RoundedPositiveNormal(6,0) = %d", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := New(31)
	s := []int{5, 6, 7, 8, 9}
	sum := 0
	for _, v := range s {
		sum += v
	}
	r.Shuffle(s)
	got := 0
	for _, v := range s {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle lost elements: sum %d want %d", got, sum)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Normal(0, 1)
	}
	_ = sink
}

func TestSaveRestoreResumesStreamExactly(t *testing.T) {
	r := New(42)
	// Burn an arbitrary prefix mixing every consumer so the saved state
	// sits mid-stream, not at a construction boundary.
	for i := 0; i < 1000; i++ {
		r.Uint64()
		r.Float64()
		r.Intn(17)
		r.Normal(0, 1)
	}
	st := r.Save()
	want := make([]uint64, 256)
	for i := range want {
		want[i] = r.Uint64()
	}
	if !r.Restore(st) {
		t.Fatal("Restore rejected a state produced by Save")
	}
	for i := range want {
		if got := r.Uint64(); got != want[i] {
			t.Fatalf("restored stream diverged at draw %d: %d want %d", i, got, want[i])
		}
	}
	fresh := FromState(st)
	if fresh == nil {
		t.Fatal("FromState rejected a state produced by Save")
	}
	for i := range want {
		if got := fresh.Uint64(); got != want[i] {
			t.Fatalf("FromState stream diverged at draw %d: %d want %d", i, got, want[i])
		}
	}
}

func TestRestoreRejectsZeroState(t *testing.T) {
	r := New(7)
	before := r.Save()
	if r.Restore(State{}) {
		t.Fatal("Restore accepted the all-zero state")
	}
	if r.Save() != before {
		t.Fatal("rejected Restore still mutated the generator")
	}
	if FromState(State{}) != nil {
		t.Fatal("FromState accepted the all-zero state")
	}
}
