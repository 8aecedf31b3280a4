//go:build !linux

package engine

import "time"

// pacer parks an open-loop source goroutine until a wall-clock deadline.
// Without Linux's timerfd it sleeps, at the Go runtime timer's resolution
// (pacer_linux.go explains the difference).
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

// wait returns once the wall clock has reached deadline (UnixNano).
//
//dsp:hotpath
//dsplint:wallclock
func (*pacer) wait(deadline int64) {
	time.Sleep(time.Duration(deadline - time.Now().UnixNano()))
}

func (*pacer) close() {}
