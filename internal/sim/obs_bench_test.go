package sim

// Observability-path benchmarks: the CSV trace consumer's per-row cost, and
// the event loop with the flight recorder / window sensors attached to the
// lifecycle event sink. These are the numbers results/BENCH_obs.json
// records; the disabled-path cost is covered by the BENCH_sim.json
// event-loop benchmarks (with no observer attached the sink is nil, one
// branch per lifecycle point).

import (
	"os"
	"testing"

	"clusterq/internal/obs/trace"
	"clusterq/internal/obs/window"
	"clusterq/internal/queueing"
)

// BenchmarkTraceWriterBuffered measures one row through the CSV trace
// consumer backed by a real file — the cost Options.Trace pays per event.
func BenchmarkTraceWriterBuffered(b *testing.B) {
	f, err := os.CreateTemp(b.TempDir(), "trace*.csv")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	bw := newCSVTrace(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writeTraceRow(bw, float64(i), TraceArrival, 1, uint64(i), -1, 0)
	}
	b.StopTimer()
	if err := bw.Flush(); err != nil {
		b.Fatal(err)
	}
}

// benchObservedReplication mirrors benchReplication but runs as the
// recording replication so the recorder/window options actually attach.
func benchObservedReplication(b *testing.B, o Options) {
	b.Helper()
	c := benchCluster(queueing.NonPreemptive)
	if err := o.defaults(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := newSimulator(c, o, o.Seed+uint64(i), true)
		if err != nil {
			b.Fatal(err)
		}
		s.run()
	}
}

// BenchmarkEventLoopRecorder is BenchmarkEventLoopFCFS with the flight
// recorder enabled: every lifecycle event takes a mutex and lands in the
// ring. The ratio to the FCFS baseline is the enabled-recorder overhead.
func BenchmarkEventLoopRecorder(b *testing.B) {
	rec := trace.NewRecorder(1 << 16)
	benchObservedReplication(b, Options{
		Horizon: 2500, Warmup: 100, Replications: 1, Seed: 1, Recorder: rec,
	})
}

// BenchmarkEventLoopWindows enables the window sensors (with the probe tick
// that feeds their utilization series) on the same scenario.
func BenchmarkEventLoopWindows(b *testing.B) {
	w, err := window.NewSet(window.Config{Width: 100}, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchObservedReplication(b, Options{
		Horizon: 2500, Warmup: 100, Replications: 1, Seed: 1,
		Windows: w, Probe: &Probe{Period: 10},
	})
}
