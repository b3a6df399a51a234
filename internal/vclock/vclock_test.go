package vclock

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewAt(0, 1)
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewAt(0, 1)
	c.Advance(5 * Microsecond)
	c.Advance(2 * Millisecond)
	want := Time(5*Microsecond + 2*Millisecond)
	if c.Now() != want {
		t.Fatalf("Now() = %v, want %v", c.Now(), want)
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewAt(0, 1).Advance(-1)
}

func TestClockAdvanceToNeverGoesBackwards(t *testing.T) {
	c := NewAt(0, 1)
	c.Advance(10 * Microsecond)
	before := c.Now()
	c.AdvanceTo(before - 5)
	if c.Now() != before {
		t.Fatalf("AdvanceTo moved clock backwards: %v -> %v", before, c.Now())
	}
	c.AdvanceTo(before + 100)
	if c.Now() != before+100 {
		t.Fatalf("AdvanceTo(future) = %v, want %v", c.Now(), before+100)
	}
}

func TestClockNewAt(t *testing.T) {
	c := NewAt(42*Time(Second), 1)
	if c.Now() != 42*Time(Second) {
		t.Fatalf("NewAt clock at %v, want 42s", c.Now())
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	c := NewAt(0, 7)
	f := func(steps []uint16) bool {
		prev := c.Now()
		for _, s := range steps {
			c.Advance(Duration(s))
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistExactHasNoJitter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := Exact(10 * Microsecond)
	for i := 0; i < 100; i++ {
		if got := d.Sample(rng); got != 10*Microsecond {
			t.Fatalf("Exact sample = %v, want 10µs", got)
		}
	}
}

func TestDistJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := Jittered(100*Microsecond, 0.2)
	lo, hi := Duration(80*Microsecond), Duration(120*Microsecond)
	for i := 0; i < 1000; i++ {
		got := d.Sample(rng)
		if got < lo || got > hi {
			t.Fatalf("jittered sample %v outside [%v, %v]", got, lo, hi)
		}
	}
}

func TestDistJitterMeanApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := Jittered(100*Microsecond, 0.5)
	var sum Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += d.Sample(rng)
	}
	mean := float64(sum) / n
	want := float64(100 * Microsecond)
	if mean < 0.98*want || mean > 1.02*want {
		t.Fatalf("sample mean %.0f, want ~%.0f", mean, want)
	}
}

func TestDistZeroMean(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if got := (Dist{}).Sample(rng); got != 0 {
		t.Fatalf("zero dist sample = %v, want 0", got)
	}
}

func TestDistScale(t *testing.T) {
	d := Jittered(10*Microsecond, 0.1).Scale(2.5)
	if d.Mean != 25*Microsecond {
		t.Fatalf("scaled mean = %v, want 25µs", d.Mean)
	}
	if d.Jitter != 0.1 {
		t.Fatalf("scale changed jitter: %v", d.Jitter)
	}
}

func TestDistSampleNeverNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := Jittered(1, 1.0) // jitter can reach -100%
	for i := 0; i < 1000; i++ {
		if got := d.Sample(rng); got < 0 {
			t.Fatalf("negative sample %v", got)
		}
	}
}

func TestSpendReturnsInterval(t *testing.T) {
	c := NewAt(0, 9)
	c.Advance(3 * Microsecond)
	start, end := c.Spend(Exact(7 * Microsecond))
	if start != Time(3*Microsecond) || end != Time(10*Microsecond) {
		t.Fatalf("Spend = [%v, %v], want [3µs, 10µs]", start, end)
	}
	if c.Now() != end {
		t.Fatalf("clock at %v after Spend, want %v", c.Now(), end)
	}
}

func TestDurationConversions(t *testing.T) {
	d := 1500 * Microsecond
	if d.Seconds() != 0.0015 {
		t.Fatalf("Seconds() = %v, want 0.0015", d.Seconds())
	}
	if d.Std() != 1500*time.Microsecond {
		t.Fatalf("Std() = %v", d.Std())
	}
	if d.String() != "1.5ms" {
		t.Fatalf("String() = %q, want 1.5ms", d.String())
	}
}

func TestTimeHelpers(t *testing.T) {
	x := Time(2 * Second)
	if got := x.Add(500 * Millisecond); got != Time(2*Second)+Time(500*Millisecond) {
		t.Fatalf("Add = %v", got)
	}
	if got := x.Sub(Time(Second)); got != Duration(Second) {
		t.Fatalf("Sub = %v, want 1s", got)
	}
	if x.Seconds() != 2.0 {
		t.Fatalf("Seconds = %v", x.Seconds())
	}
}

func TestClockDeterminism(t *testing.T) {
	run := func() []Duration {
		c := NewAt(0, 123)
		d := Jittered(50*Microsecond, 0.4)
		var out []Duration
		for i := 0; i < 50; i++ {
			out = append(out, d.Sample(c.Rand()))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across identically seeded clocks: %v vs %v", i, a[i], b[i])
		}
	}
}
