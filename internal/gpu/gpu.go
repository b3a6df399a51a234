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
// The device keeps a ledger of busy intervals used both by the trace (GPU
// events) and by the nvidia-smi-style sampled utilization monitor.
package gpu

import (
	"sort"
	"sync"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// StreamID identifies one device stream.
type StreamID int32

// Busy is one interval of device activity.
type Busy struct {
	Start, End vclock.Time
	Name       string
	Cat        trace.Category // CatGPUKernel or CatGPUMemcpy
	Proc       trace.ProcID
	Stream     StreamID
}

// Duration returns the interval's extent.
func (b Busy) Duration() vclock.Duration { return b.End.Sub(b.Start) }

// Device is a simulated GPU. It is safe for concurrent use; simulated
// processes may run on separate goroutines.
type Device struct {
	mu            sync.Mutex
	tails         map[StreamID]vclock.Time
	nextStream    StreamID
	busy          []Busy
	launchLatency vclock.Duration
}

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
func (d *Device) Submit(proc trace.ProcID, stream StreamID, issue vclock.Time, dur vclock.Duration, name string, cat trace.Category) (start, end vclock.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	start = issue.Add(d.launchLatency)
	if tail := d.tails[stream]; tail > start {
		start = tail
	}
	end = start.Add(dur)
	d.tails[stream] = end
	d.busy = append(d.busy, Busy{Start: start, End: end, Name: name, Cat: cat, Proc: proc, Stream: stream})
	return start, end
}

// BusyIntervals returns a copy of the busy ledger in submission order.
func (d *Device) BusyIntervals() []Busy {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Busy, len(d.busy))
	copy(out, d.busy)
	return out
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

// Reset clears the busy ledger and stream tails, keeping allocated streams.
// Experiments reuse one device across repeated runs.
func (d *Device) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.busy = nil
	for s := range d.tails {
		d.tails[s] = 0
	}
}
