package randx

import (
	"math"
	"math/rand"
	"testing"
)

// reference is the stream Source promises to reproduce: the same
// methods over math/rand's own seeded source.
func reference(seed int64) *Source {
	return &Source{rng: rand.New(rand.NewSource(seed))}
}

// matchDraws compares n draws of got against want, cycling through every
// method Source exposes. The value-drawing methods consume a variable
// number of generator steps, so a mismatch anywhere in the register shows
// up as a diverged value. It returns a description of the first mismatch.
func matchDraws(got, want *Source, n int) (int, string, bool) {
	for i := 0; i < n; i++ {
		var g, w float64
		var name string
		switch i % 7 {
		case 0:
			name, g, w = "Float64", got.Float64(), want.Float64()
		case 1:
			name, g, w = "Intn", float64(got.Intn(1000+i)), float64(want.Intn(1000+i))
		case 2:
			name, g, w = "Int63", float64(got.Int63()), float64(want.Int63())
		case 3:
			name, g, w = "NormFloat64", got.NormFloat64(), want.NormFloat64()
		case 4:
			name, g, w = "Exp", got.Exp(3.5), want.Exp(3.5)
		case 5:
			name, g, w = "TruncatedNormal", got.TruncatedNormal(1, 2, 0.5), want.TruncatedNormal(1, 2, 0.5)
		case 6:
			mean := []float64{0.7, 4, 75}[i%3]
			name, g, w = "Poisson", float64(got.Poisson(mean)), float64(want.Poisson(mean))
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			return i, name, false
		}
	}
	return 0, "", true
}

// matchInt63 compares n raw generator outputs, one step each, so the
// register boundaries (draws 273, 334 and 607) fall at known draws.
func matchInt63(got, want *Source, n int) (int, bool) {
	for i := 0; i < n; i++ {
		if got.Int63() != want.Int63() {
			return i, false
		}
	}
	return 0, true
}

// edgeSeeds are the seeds where math/rand's normalisation (mod 2³¹−1,
// negatives shifted up, 0 replaced) does something special.
func edgeSeeds() []int64 {
	seeds := []int64{0, 1, -1, 2, 89482311, -89482311, int32max - 1, -(int32max - 1),
		1 << 31, -(1 << 31), math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	for _, k := range []int64{1, 2, 3, 1 << 20, 4294967298} {
		seeds = append(seeds, k*int32max, -k*int32max, k*int32max+1, k*int32max-1)
	}
	return seeds
}

func TestSourceMatchesMathRand(t *testing.T) {
	seeds := edgeSeeds()
	for i := uint64(0); i < 200; i++ {
		seeds = append(seeds, Derive(42, i))
	}
	const draws = 2500
	for _, seed := range seeds {
		if i, ok := matchInt63(New(seed), reference(seed), draws); !ok {
			t.Fatalf("seed %d: Int63 diverged from math/rand at draw %d", seed, i)
		}
		if i, name, ok := matchDraws(New(seed), reference(seed), draws); !ok {
			t.Fatalf("seed %d: %s diverged from math/rand at call %d", seed, name, i)
		}
	}
}

func TestSplitMatchesMathRand(t *testing.T) {
	got, want := New(9).Split(), reference(9).Split()
	if i, ok := matchInt63(got, want, 1000); !ok {
		t.Fatalf("split stream diverged from math/rand at draw %d", i)
	}
}

// A reused register must behave as a fresh one: after k draws of seed A,
// reseeding to B must give math/rand's stream for B. k spans the draws
// where the lazy fill changes mode (273, 334) and wraps (607).
func TestAcquireAfterReuseMatchesFresh(t *testing.T) {
	const a, b = 11, 987654321
	for _, k := range []int{0, 1, 272, 273, 274, 333, 334, 335, 607, 1000} {
		// The same object reseeded, as Acquire does to a pooled Source.
		s := New(a)
		for i := 0; i < k; i++ {
			s.Int63()
		}
		s.rng.Seed(b)
		if i, ok := matchInt63(s, reference(b), 2000); !ok {
			t.Fatalf("k=%d: reseeded stream diverged at draw %d", k, i)
		}
		// Through the pool. The pool may hand out another Source (it drops
		// some Puts under the race detector), which must match as well.
		s = Acquire(a)
		for i := 0; i < k; i++ {
			s.Int63()
		}
		s.Release()
		s = Acquire(b)
		if i, name, ok := matchDraws(s, reference(b), 2000); !ok {
			t.Fatalf("k=%d: Acquire(%d) after reuse: %s diverged at call %d", k, b, name, i)
		}
		s.Release()
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(700))
	f.Add(int64(-1), uint16(334))
	f.Add(int64(math.MinInt64), uint16(2000))
	f.Fuzz(func(t *testing.T, seed int64, nDraws uint16) {
		n := int(nDraws) % 2500
		if i, ok := matchInt63(New(seed), reference(seed), n); !ok {
			t.Fatalf("seed %d: Int63 diverged from math/rand at draw %d", seed, i)
		}
		if i, name, ok := matchDraws(New(seed), reference(seed), n); !ok {
			t.Fatalf("seed %d: %s diverged from math/rand at call %d", seed, name, i)
		}
	})
}

// BenchmarkAcquireShort is the common fleet case: a stream seeded for a
// handful of draws (a diurnal placement, a jitter, a size).
func BenchmarkAcquireShort(b *testing.B) {
	benchAcquire(b, 8)
}

// BenchmarkAcquireFull draws past the 607-word register, so every word is
// filled: the cost ceiling of a lazily seeded stream.
func BenchmarkAcquireFull(b *testing.B) {
	benchAcquire(b, 700)
}

func benchAcquire(b *testing.B, draws int) {
	b.ReportAllocs()
	// Fill the pool first, so even a one-iteration run times reuse.
	Acquire(0).Release()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		s := Acquire(int64(i))
		for j := 0; j < draws; j++ {
			sink += s.Float64()
		}
		s.Release()
	}
	if sink < 0 {
		b.Fatal("negative sum of uniform draws")
	}
}
