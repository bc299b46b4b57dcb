package swifi

import (
	"math"
	"math/rand"
	"testing"
)

// TestTrialSourceMatchesMathRand: the trial source is bit-identical to
// rand.NewSource for the seeds Seed normalises specially (zero, the
// modulus and its neighbours, the remapped 89482311, negatives, seeds
// past int32), over enough draws that the feedback register wraps
// several times.
func TestTrialSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 89482311, int32max, -int32max, int32max + 5,
		int32max - 1, 1 << 62, -(1 << 62), math.MaxInt64, math.MinInt64,
	}
	rng := newTrialRand()
	for _, seed := range seeds {
		rng.Seed(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 5000; i++ {
			if got, want := rng.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d, draw %d: Int63 = %d, math/rand gives %d", seed, i, got, want)
			}
		}
	}
}

// TestTrialRandMatchesMathRandRandomSeeds: for 2,000 random seeds, one
// reseeded trial RNG draws exactly what a fresh rand.New(rand.NewSource)
// draws through the Rand methods campaigns use (Intn, Int63n, Float64),
// past draw 273, where the lagged generator first re-reads entries it
// has written.
func TestTrialRandMatchesMathRandRandomSeeds(t *testing.T) {
	seeds := rand.New(rand.NewSource(20260418))
	rng := newTrialRand()
	for s := 0; s < 2000; s++ {
		seed := int64(seeds.Uint64())
		rng.Seed(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 700; i++ {
			n := 1 + i%97
			if got, want := rng.Intn(n), ref.Intn(n); got != want {
				t.Fatalf("seed %d, draw %d: Intn(%d) = %d, math/rand gives %d", seed, i, n, got, want)
			}
		}
		if got, want := rng.Int63n(1<<40+7), ref.Int63n(1<<40+7); got != want {
			t.Fatalf("seed %d: Int63n = %d, math/rand gives %d", seed, got, want)
		}
		if got, want := rng.Float64(), ref.Float64(); got != want {
			t.Fatalf("seed %d: Float64 = %v, math/rand gives %v", seed, got, want)
		}
	}
}

// TestReseededTrialRandEqualsFresh: a trial RNG reseeded after use draws
// what a freshly built one does, including Rand's own buffered state.
func TestReseededTrialRandEqualsFresh(t *testing.T) {
	used := newTrialRand()
	used.Seed(7)
	buf := make([]byte, 5)
	used.Read(buf) // leaves Rand.readPos mid-value
	for i := 0; i < 1000; i++ {
		used.Intn(1000)
	}
	for _, seed := range []int64{7, TrialSeed(2026, 3)} {
		used.Seed(seed)
		fresh := newTrialRand()
		fresh.Seed(seed)
		a, b := make([]byte, 13), make([]byte, 13)
		used.Read(a)
		fresh.Read(b)
		if string(a) != string(b) {
			t.Fatalf("seed %d: reseeded Read %x, fresh %x", seed, a, b)
		}
		for i := 0; i < 1000; i++ {
			if got, want := used.Int63(), fresh.Int63(); got != want {
				t.Fatalf("seed %d, draw %d: reseeded %d, fresh %d", seed, i, got, want)
			}
		}
	}
}

// TestTrialSeedAllocs: reseeding a warmed trial RNG allocates nothing,
// so a worker pays for its register once, not once per trial.
func TestTrialSeedAllocs(t *testing.T) {
	rng := newTrialRand()
	rng.Seed(1)
	trial := 0
	if n := testing.AllocsPerRun(200, func() {
		trial++
		seedTrial(rng, Config{Seed: 2026}, trial)
	}); n != 0 {
		t.Fatalf("seedTrial makes %.1f allocations, want 0", n)
	}
}

// BenchmarkTrialSeed compares a trial's RNG cost on the trial source and
// on math/rand's source: a reseed and then 32 draws, about what a storm
// trial draws (21–26 per trial across the six services). The trial
// source computes only the register entries those draws reach.
func BenchmarkTrialSeed(b *testing.B) {
	const draws = 32
	b.Run("trialSource", func(b *testing.B) {
		src := &trialSource{}
		for i := 0; i < b.N; i++ {
			src.Seed(TrialSeed(2026, i))
			for j := 0; j < draws; j++ {
				benchSink += src.Uint64()
			}
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		src := rand.NewSource(1).(rand.Source64)
		for i := 0; i < b.N; i++ {
			src.Seed(TrialSeed(2026, i))
			for j := 0; j < draws; j++ {
				benchSink += src.Uint64()
			}
		}
	})
}

// benchSink keeps the benchmarked draws from being optimised away.
var benchSink uint64
