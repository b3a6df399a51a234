// Package gpu simulates the accelerator device that CUDA API calls enqueue
// work onto.
//
// The device models the properties RL-Scope's analysis depends on:
//
//   - Kernels and memory copies execute asynchronously with respect to the
//     CPU: a launch returns immediately and device work proceeds on its own
//     virtual timeline.
//   - Work on one stream executes FIFO; streams are independent.
//   - The device is shared: multiple simulated processes (Minigo self-play
//     workers) submit to the same device, so their kernels serialize when
//     streams contend.
//
// The device keeps a ledger of busy intervals, each with the process that
// submitted it, for the nvidia-smi-style sampled utilization monitor and
// per-worker GPU time; the trace's GPU events come from package cuda, not
// from the ledger. The ledger is a recycle.BlockList, so recording an
// interval never copies the ones before it; BusyIntervals flattens its
// blocks in submission order.
package gpu

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/recycle"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// StreamID identifies one device stream.
type StreamID int32

// Busy is one interval of device activity.
type Busy struct {
	Start, End vclock.Time
	Proc       trace.ProcID
}

// Duration returns the interval's extent.
func (b Busy) Duration() vclock.Duration { return b.End.Sub(b.Start) }

// Device is a simulated GPU. It is safe for concurrent use; simulated
// processes may run on separate goroutines.
type Device struct {
	mu            sync.Mutex
	tails         map[StreamID]vclock.Time
	nextStream    StreamID
	ledger        recycle.BlockList[Busy] // the busy intervals in submission order
	launchLatency vclock.Duration
}

const minLedgerBlock, maxLedgerBlock = 64, 1 << 11 // the ledger's first and largest blocks, in intervals

// DefaultLaunchLatency is the delay between a CPU-side launch call issuing
// and the earliest moment the kernel may begin on an idle stream, modelling
// driver/queue latency.
const DefaultLaunchLatency = 2 * vclock.Microsecond

// NewDevice returns an idle device. launchLatency < 0 uses
// DefaultLaunchLatency.
func NewDevice(launchLatency vclock.Duration) *Device {
	if launchLatency < 0 {
		launchLatency = DefaultLaunchLatency
	}
	return &Device{
		tails:         map[StreamID]vclock.Time{},
		ledger:        recycle.BlockList[Busy]{Min: minLedgerBlock, Max: maxLedgerBlock},
		launchLatency: launchLatency,
	}
}

// NewStream allocates a fresh stream.
func (d *Device) NewStream() StreamID {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.nextStream
	d.nextStream++
	d.tails[id] = 0
	return id
}

// Submit enqueues dur of device work on the stream, issued from the CPU at
// time issue. It returns the scheduled [start, end) of the work: the work
// begins after both the launch latency and any earlier work on the stream.
func (d *Device) Submit(proc trace.ProcID, stream StreamID, issue vclock.Time, dur vclock.Duration) (start, end vclock.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	start = issue.Add(d.launchLatency)
	if tail := d.tails[stream]; tail > start {
		start = tail
	}
	end = start.Add(dur)
	d.tails[stream] = end
	*d.ledger.Add() = Busy{Start: start, End: end, Proc: proc}
	return start, end
}

// BusyIntervals returns a copy of the busy ledger in submission order.
func (d *Device) BusyIntervals() []Busy {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Concat(d.ledger.Blocks()...)
}

// Interval is a plain time range.
type Interval struct {
	Start, End vclock.Time
}

// Union merges a set of busy intervals into disjoint sorted intervals.
func Union(busy []Busy) []Interval {
	if len(busy) == 0 {
		return nil
	}
	ivs := make([]Interval, len(busy))
	for i, b := range busy {
		ivs[i] = Interval{b.Start, b.End}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.Start <= last.End {
			if iv.End > last.End {
				last.End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}
