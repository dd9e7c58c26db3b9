package randx

// lazySource is math/rand's seeded source (an additive lagged-Fibonacci
// generator over a 607-word register with tap 273) whose register words
// are computed the first time they are read instead of all at Seed time.
// Its Int63/Uint64 streams are bit-identical to rand.NewSource's.
//
// math/rand's Seed runs its seeding LCG x' = 48271·x mod (2³¹−1) through
// 20 discarded steps and then three steps per word:
//
//	vec[i] = x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^ rngCooked[i]
//
// Since xₖ = 48271ᵏ·x₀ mod (2³¹−1), every word is three multiplications
// of x₀ by a precomputed power (wordMul), so no word depends on another.
//
// The read order is fixed. Draw d (1-based) reads feed 334−d and tap
// 607−d. Draws 1–273 read feed 333…61 and tap 606…334 for the first time;
// draws 274–334 read feed 60…0 for the first time while their tap was
// written as a feed by draws 1–61; from draw 335 on every word read was
// written by an earlier draw. So Seed only records x₀, and Uint64 fills at
// most two words per draw during the first 334. Every word is written
// before it is first read, so a reused register never leaks stale words.
type lazySource struct {
	tap, feed int
	// fresh counts the draws made since Seed, up to rngLen−rngTap; past
	// that every register word has been filled.
	fresh int
	x0    uint64
	vec   [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// seedMul is the multiplier of math/rand's seeding LCG; seedSkip is
	// how many of its steps math/rand discards before the first word.
	seedMul  = 48271
	seedSkip = 20
)

// wordMul[i] holds 48271ᵏ mod (2³¹−1) for the three LCG steps
// k = 21+3i, 22+3i, 23+3i that build register word i.
var wordMul [rngLen][3]uint64

func init() {
	p := uint64(1)
	for k := 1; k <= seedSkip+3*rngLen; k++ {
		p = p * seedMul % int32max
		if j := k - seedSkip - 1; j >= 0 {
			wordMul[j/3][j%3] = p
		}
	}
}

// Seed resets the generator to the stream rand.NewSource(seed) produces.
// It normalises seed exactly as math/rand does and fills no word.
func (r *lazySource) Seed(seed int64) {
	r.tap = 0
	r.feed = rngLen - rngTap
	r.fresh = 0
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	r.x0 = uint64(seed)
}

// word computes register word i as math/rand's Seed would have left it.
func (r *lazySource) word(i int) int64 {
	m := &wordMul[i]
	u := int64(r.x0*m[0]%int32max) << 40
	u ^= int64(r.x0*m[1]%int32max) << 20
	u ^= int64(r.x0 * m[2] % int32max)
	return u ^ rngCooked[i]
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *lazySource) Int63() int64 {
	return int64(r.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (r *lazySource) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	if r.fresh < rngLen-rngTap {
		if r.fresh < rngTap {
			r.vec[r.tap] = r.word(r.tap)
		}
		r.vec[r.feed] = r.word(r.feed)
		r.fresh++
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}
