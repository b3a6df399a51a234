package profiler

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// emissionKeys is every event of blocks keyed in emission order, stable-
// sorted: the order every ordering path must reproduce.
func emissionKeys(blocks [][]trace.Event) []uint32 {
	v := sortedView{blocks: blocks}
	for i, b := range blocks {
		for j := range b {
			v.keys = append(v.keys, uint32(i)<<keyShift|uint32(j))
		}
	}
	slices.SortStableFunc(v.keys, v.compare)
	return v.keys
}

// recorded is every event the session holds, in emission order.
func recorded(s *Session) []trace.Event { return slices.Concat(s.events.Blocks()...) }

// cudaHeavyWorkload is a training loop dominated by the CUDA API: each
// step's forward and backward calls launch a dozen kernels around two
// copies, so most events are API calls, their interception markers, and
// the kernels that run behind them on the device.
func cudaHeavyWorkload(p *Profiler, dev *gpu.Device, iters int) *Session {
	s := p.NewProcess("cuda-heavy", -1, 0)
	ctx := cuda.NewContext(s, dev, cuda.DefaultCosts())
	for i := 0; i < iters; i++ {
		if i%50 == 0 {
			s.SetPhase("training")
		}
		for _, op := range []string{"inference", "backpropagation"} {
			s.WithOperation(op, func() {
				s.CallBackend(op, func() {
					ctx.MemcpyAsync(cuda.HostToDevice, 1<<12)
					for k := 0; k < 12; k++ {
						ctx.LaunchKernel("gemm", vclock.Duration(2+k)*vclock.Microsecond)
					}
					ctx.MemcpyAsync(cuda.DeviceToHost, 1<<10)
					ctx.StreamSynchronize()
				})
			})
		}
	}
	s.Close()
	return s
}

// TestOrderShiftsAndFallbacks: what the profiler records is nearly in
// order, so insertion orders it with a few shifted keys per event and no
// fallback; emitRandom's shuffled starts are not, and take the fallback.
// Either way the order is the stable sort's.
func TestOrderShiftsAndFallbacks(t *testing.T) {
	p := New(Options{Workload: "order", Flags: trace.Full(), Seed: 5})
	random := p.NewProcess("random", -1, 0)
	emitRandom(random, rand.New(rand.NewSource(79)), 5000)
	for _, c := range []struct {
		s        *Session
		fallback bool
	}{
		{toyWorkload(p, gpu.NewDevice(-1), 300), false},
		{cudaHeavyWorkload(p, gpu.NewDevice(-1), 300), false},
		{random, true},
	} {
		blocks := c.s.events.Blocks()
		v, st := sortedView{}.extend(blocks, maxShiftsPerKey)
		if want := emissionKeys(blocks); !slices.Equal(v.keys, want) {
			t.Fatalf("%s: order differs from the stable sort", c.s.name)
		}
		n := len(v.keys)
		if st.fellBack != c.fallback {
			t.Errorf("%s: %d events fell back to the stable sort: %v, want %v", c.s.name, n, st.fellBack, c.fallback)
		}
		if perEvent := float64(st.shifts) / float64(n); !c.fallback && perEvent > 6 {
			t.Errorf("%s: insertion shifted %.2f keys per event, want at most 6", c.s.name, perEvent)
		}
	}
}

// TestExtendRefusesBlocksPastTheKey: a key has 32-keyShift bits for its
// block, so extend keys a list of that many blocks and panics on one more.
func TestExtendRefusesBlocksPastTheKey(t *testing.T) {
	blocks := make([][]trace.Event, 1<<(32-keyShift)+1)
	sortedView{}.extend(blocks[:len(blocks)-1], maxShiftsPerKey)
	defer func() {
		if recover() == nil {
			t.Fatalf("extend keyed %d blocks", len(blocks))
		}
	}()
	sortedView{}.extend(blocks, maxShiftsPerKey)
}

// TestOrderAllocatesItsKeys pins what ordering costs the allocator: the
// 4-byte keys, and no copy of the block list, which they index in place.
// The slack is what the allocator rounds a 400 KB slice up to (1 408 B, to
// whole pages) and the goroutine's hand-off (closure, channel; a few
// hundred bytes more under -race).
func TestOrderAllocatesItsKeys(t *testing.T) {
	const n, slack = 100000, 4096
	best := uint64(1 << 62)
	for try := 0; try < 3; try++ { // the least of three: another test's ordering may still be allocating
		p := New(Options{Workload: "allocs", Seed: 1})
		s := p.NewProcess("m", -1, 0)
		e := trace.Event{Kind: trace.KindTransition, Proc: s.proc, Name: "python→backend"}
		for i := 0; i < n; i++ {
			e.Start, e.End = vclock.Time(i), vclock.Time(i)
			s.Emit(e)
		}
		s.closed = true // not Close: its root event would fall outside the measurement
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.startOrder()
		v := s.sortedEvents()
		runtime.ReadMemStats(&after)
		if len(v.keys) != n {
			t.Fatalf("%d events keyed, want %d", len(v.keys), n)
		}
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best > 4*n+slack {
		t.Errorf("ordering %d events allocated %d B, want at most 4 B per event + %d", n, best, slack)
	}
}

// TestLateEmitAfterClose: Close starts each session's ordering on a
// goroutine of its own, and events recorded right after it wait for that
// ordering before they touch the session. The next trace orders them in
// behind it: each trace, and the directory written once the last late
// events are in, are what one stable sort of every event gives. The
// sessions are large, and traced as soon as the late events are in, so
// that under -race the hand-over from Close's goroutine is checked while
// that goroutine is still ordering: an Emit that did not wait fails there
// on most runs (CI repeats the test).
func TestLateEmitAfterClose(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	p := New(Options{Workload: "late", Flags: trace.Full(), Seed: 1})
	dev := gpu.NewDevice(-1)
	var sessions []*Session
	check := func(step string, write bool) {
		got := p.MustTrace().Events
		var want []trace.Event
		for _, s := range sessions {
			want = append(want, recorded(s)...)
		}
		sort.Stable(referenceSorter(want))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Trace() differs from the reference sort", step)
		}
		if !write {
			return
		}
		dir := filepath.Join(t.TempDir(), "trace")
		if err := p.WriteTo(dir); err != nil {
			t.Fatal(err)
		}
		read, err := trace.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(read.Events, want) {
			t.Fatalf("%s: WriteTo differs from the reference sort", step)
		}
	}
	for _, record := range []func() *Session{
		func() *Session { return toyWorkload(p, dev, 1000) },
		func() *Session { return cudaHeavyWorkload(p, dev, 400) },
	} {
		s := record()
		emitRandom(s, rng, 300)
		sessions = append(sessions, s)
		check(s.name+" closed, then 300 late events", false)
	}
	for _, s := range sessions {
		emitRandom(s, rng, 40)
	}
	check("40 more late events in each session", true)
}

// FuzzSessionOrder: however the events arrive — runs sharing a start,
// zero widths, reversed stretches, spans recorded at their end, counts
// that cross the block sizes from 32 to 2048, and events recorded after an
// ordering — insertion, the fallback, and the budget between them give
// the stable sort's order.
//
// data[0] places the ordering that late events follow; then each three
// bytes (op, a, b) are one run of (a%64+1) events, ×64 when op's top bit
// is set, shaped by op's low two bits.
func FuzzSessionOrder(f *testing.F) {
	f.Add([]byte{128, 0x80, 63, 0, 0x01, 40, 3, 0x03, 9, 200})
	f.Add([]byte{32, 0x82, 63, 5, 0x00, 63, 0, 0x81, 20, 7, 0x03, 1, 255})
	f.Add([]byte{255, 0x81, 63, 1, 0x80, 31, 2, 0x02, 63, 16})
	f.Add([]byte{0, 0x02, 31, 0, 0x03, 0, 0, 0x00, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var spans [][2]vclock.Time
		at := vclock.Time(1 << 20)
		for r := data[1:]; len(r) >= 3 && len(spans) < 1<<14; r = r[3:] {
			op, b := r[0], vclock.Time(r[2])
			count := int(r[1]%64) + 1
			if op&0x80 != 0 {
				count *= 64
			}
			for i := 0; i < count; i++ {
				switch op & 3 {
				case 0: // one start, widths 0–3
					spans = append(spans, [2]vclock.Time{at, at + (b>>(i%4*2))&3})
				case 1: // a reversed stretch
					s := at + vclock.Time(count-1-i)
					spans = append(spans, [2]vclock.Time{s, s + b%8})
				case 2: // in order, gaps of 0–2
					spans = append(spans, [2]vclock.Time{at, at + b%16})
					at += vclock.Time(i % 3)
				default: // a span recorded at its end, over b of what came before
					spans = append(spans, [2]vclock.Time{at - b*vclock.Time(i%5), at})
					at++
				}
			}
			if op&3 == 1 {
				at += vclock.Time(count)
			}
		}
		split := int(data[0]) * len(spans) / 255
		p := New(Options{Workload: "fuzz", Seed: 1})
		s := p.NewProcess("f", -1, 0)
		var early [][]trace.Event // the blocks as the first split events left them
		for i, sp := range spans {
			if i == split {
				early = slices.Clone(s.events.Blocks())
			}
			s.Emit(trace.Event{Kind: trace.KindCPU, Proc: s.proc, Start: sp[0], End: sp[1]})
		}
		blocks := s.events.Blocks()
		if split == len(spans) {
			early = blocks
		}
		want := emissionKeys(blocks)
		for _, budget := range []int{0, maxShiftsPerKey, len(spans) + 1} {
			v, _ := sortedView{}.extend(early, budget)
			v, st := v.extend(blocks, budget)
			if !slices.Equal(v.keys, want) {
				t.Fatalf("budget %d, %d events ordered after the first %d: order differs from the stable sort", budget, len(spans), split)
			}
			if budget > len(spans) && st.fellBack {
				t.Fatalf("insertion fell back with a budget above the event count")
			}
		}
	})
}
