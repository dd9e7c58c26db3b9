package profile

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

const dl = 30 * time.Second

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMailZeroBeforeDeadline(t *testing.T) {
	p := Mail(dl)
	for _, d := range []time.Duration{0, time.Second, 15 * time.Second, dl} {
		if got := p.Cost(d); got != 0 {
			t.Fatalf("mail cost(%v) = %v, want 0", d, got)
		}
	}
}

func TestMailLinearAfterDeadline(t *testing.T) {
	p := Mail(dl)
	if got := p.Cost(2 * dl); !almostEqual(got, 1) {
		t.Fatalf("mail cost(2·deadline) = %v, want 1", got)
	}
	if got := p.Cost(3 * dl); !almostEqual(got, 2) {
		t.Fatalf("mail cost(3·deadline) = %v, want 2", got)
	}
}

func TestWeiboRampAndPlateau(t *testing.T) {
	p := Weibo(dl)
	if got := p.Cost(dl / 2); !almostEqual(got, 0.5) {
		t.Fatalf("weibo cost(deadline/2) = %v, want 0.5", got)
	}
	if got := p.Cost(dl); !almostEqual(got, 1) {
		t.Fatalf("weibo cost(deadline) = %v, want 1", got)
	}
	for _, d := range []time.Duration{dl + time.Second, 5 * dl} {
		if got := p.Cost(d); !almostEqual(got, 2) {
			t.Fatalf("weibo cost(%v) = %v, want plateau 2", d, got)
		}
	}
}

func TestCloudSteepensAfterDeadline(t *testing.T) {
	p := Cloud(dl)
	if got := p.Cost(dl / 2); !almostEqual(got, 0.5) {
		t.Fatalf("cloud cost(deadline/2) = %v, want 0.5", got)
	}
	if got := p.Cost(2 * dl); !almostEqual(got, 4) {
		t.Fatalf("cloud cost(2·deadline) = %v, want 3·2−2 = 4", got)
	}
}

func TestNegativeDelayCostsZero(t *testing.T) {
	for _, p := range []Profile{Mail(dl), Weibo(dl), Cloud(dl)} {
		if got := p.Cost(-time.Second); got != 0 {
			t.Fatalf("%s cost(-1s) = %v, want 0", p.Name(), got)
		}
	}
}

func TestNewByKind(t *testing.T) {
	tests := []struct {
		kind Kind
		name string
	}{
		{KindMail, "mail/f1"},
		{KindWeibo, "weibo/f2"},
		{KindCloud, "cloud/f3"},
	}
	for _, tt := range tests {
		p, err := New(tt.kind, dl)
		if err != nil {
			t.Fatalf("New(%v): %v", tt.kind, err)
		}
		if p.Name() != tt.name {
			t.Fatalf("New(%v).Name() = %q, want %q", tt.kind, p.Name(), tt.name)
		}
		if p.Deadline() != dl {
			t.Fatalf("New(%v).Deadline() = %v, want %v", tt.kind, p.Deadline(), dl)
		}
	}
}

func TestNewUnknownKind(t *testing.T) {
	if _, err := New(Kind(99), dl); err == nil {
		t.Fatal("New(99) succeeded, want error")
	}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{KindMail, "mail"},
		{KindWeibo, "weibo"},
		{KindCloud, "cloud"},
		{Kind(42), "profile.Kind(42)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(tt.kind), got, tt.want)
		}
	}
}

func TestCustomProfile(t *testing.T) {
	p := Custom("step", dl, func(x float64) float64 {
		if x < 1 {
			return 0
		}
		return 10
	})
	if got := p.Cost(dl - time.Second); got != 0 {
		t.Fatalf("custom cost before deadline = %v, want 0", got)
	}
	if got := p.Cost(dl + time.Second); got != 10 {
		t.Fatalf("custom cost after deadline = %v, want 10", got)
	}
}

// Property: all paper profiles are non-negative and non-decreasing in d.
func TestProfilesMonotoneNonNegative(t *testing.T) {
	profiles := []Profile{Mail(dl), Weibo(dl), Cloud(dl)}
	prop := func(aMillis, bMillis uint32) bool {
		a := time.Duration(aMillis) * time.Millisecond
		b := time.Duration(bMillis) * time.Millisecond
		if a > b {
			a, b = b, a
		}
		for _, p := range profiles {
			ca, cb := p.Cost(a), p.Cost(b)
			if ca < 0 || cb < 0 || ca > cb+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Mail and cloud are continuous at the deadline; weibo jumps from 1 to its
// plateau of 2 exactly as drawn in the paper's Fig. 6.
func TestProfileDeadlineBehaviour(t *testing.T) {
	eps := time.Millisecond
	for _, p := range []Profile{Mail(dl), Cloud(dl)} {
		before := p.Cost(dl - eps)
		after := p.Cost(dl + eps)
		if math.Abs(after-before) > 0.01 {
			t.Fatalf("%s jumps at deadline: %v -> %v", p.Name(), before, after)
		}
	}
	w := Weibo(dl)
	if before, after := w.Cost(dl-eps), w.Cost(dl+eps); after-before < 0.9 {
		t.Fatalf("weibo should jump ~1 at deadline, got %v -> %v", before, after)
	}
}

func TestZeroDeadlineIsSafe(t *testing.T) {
	p := Mail(0)
	if got := p.Cost(time.Second); got != 0 {
		t.Fatalf("cost with zero deadline = %v, want 0 (no division by zero)", got)
	}
}

// paperFormulas are the f1–f3 cost functions of normalized delay x, as
// the paper states them; a Custom profile built from one evaluates it
// through the generic closure path.
var paperFormulas = []struct {
	build func(time.Duration) Profile
	f     func(x float64) float64
}{
	{Mail, func(x float64) float64 {
		if x <= 1 {
			return 0
		}
		return x - 1
	}},
	{Weibo, func(x float64) float64 {
		if x <= 1 {
			return x
		}
		return 2
	}},
	{Cloud, func(x float64) float64 {
		if x <= 1 {
			return x
		}
		return 3*x - 2
	}},
}

// The family profiles evaluate their formula inline; every cost must be
// bit-identical to the formula applied to d.Seconds()/deadline.Seconds(),
// and to a Custom profile carrying the same formula as a closure.
func TestFamilyCostBitIdentical(t *testing.T) {
	deadlines := []time.Duration{time.Millisecond, 7 * time.Second, dl, 90 * time.Second, 7*time.Minute + 3*time.Nanosecond, time.Hour}
	check := func(d time.Duration) bool {
		for _, pf := range paperFormulas {
			for _, deadline := range deadlines {
				p := pf.build(deadline)
				want := 0.0
				if d > 0 {
					want = pf.f(d.Seconds() / deadline.Seconds())
				}
				got := p.Cost(d)
				custom := Custom("ref", deadline, pf.f).Cost(d)
				if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(custom) != math.Float64bits(want) {
					t.Errorf("%s(deadline %v).Cost(%v) = %v (custom %v), want %v", p.Name(), deadline, d, got, custom, want)
					return false
				}
			}
		}
		return true
	}
	edges := []time.Duration{0, -1, -time.Hour, math.MinInt64, math.MaxInt64, 1, 15 * time.Second, dl, dl + 1, dl - 1, 2 * dl, 7 * 24 * time.Hour}
	for _, deadline := range deadlines {
		edges = append(edges, deadline, deadline-1, deadline+1, 3*deadline)
	}
	for _, d := range edges {
		check(d)
	}
	if err := quick.Check(func(raw int64) bool { return check(time.Duration(raw)) }, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(ms uint32) bool { return check(time.Duration(ms) * time.Millisecond) }, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
