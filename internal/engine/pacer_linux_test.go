package engine

import (
	"os"
	"runtime/debug"
	"testing"
	"time"
)

// TestPacerWaitNeverEarly: a wait returns at or after its deadline, on
// the clock time.Now reads, whether the deadline is ahead, due now or
// already past.
func TestPacerWaitNeverEarly(t *testing.T) {
	p, err := newPacer()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	for _, ahead := range []time.Duration{200 * time.Microsecond, 0, 30 * time.Microsecond,
		-time.Millisecond, 1500 * time.Microsecond, time.Microsecond} {
		for i := 0; i < 20; i++ {
			deadline := time.Now().UnixNano() + int64(ahead)
			p.wait(deadline)
			if now := time.Now().UnixNano(); now < deadline {
				t.Fatalf("wait(now%+v) returned %d ns before its deadline", ahead, deadline-now)
			}
		}
	}
}

// openFDs counts the process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd:", err)
	}
	return len(fds)
}

// TestNativePacersLifecycle: each open-loop source driver owns a pacer and
// no other driver does, a closed-loop run has none, and an open-loop run
// closes every timerfd it opened.
func TestNativePacersLifecycle(t *testing.T) {
	for _, rate := range []float64{0, 20_000} {
		drivers, err := buildNative(nopWC(40), NativeConfig{System: Storm(), Seed: 1, BatchSize: 4, SourceRate: rate})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range drivers {
			if want := rate > 0 && d.ex.src != nil; (d.pacer != nil) != want {
				t.Errorf("rate %g: %s[%d] has a pacer: %t, want %t", rate, d.ex.node.Name, d.ex.index, d.pacer != nil, want)
			}
		}
		runNative(drivers)
	}
	// The first open-loop run above registered the netpoller's own
	// descriptors; from here on a run must leave the count as it found it.
	// With the collector off, no finalizer closes a leaked descriptor.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, rate := range []float64{20_000, 0} {
		before := openFDs(t)
		if _, err := RunNative(nopWC(40), NativeConfig{System: Storm(), Seed: 1, BatchSize: 4, SourceRate: rate}); err != nil {
			t.Fatal(err)
		}
		if after := openFDs(t); after != before {
			t.Errorf("rate %g: %d open descriptors before the run, %d after", rate, before, after)
		}
	}
}
