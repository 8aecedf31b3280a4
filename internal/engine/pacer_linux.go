//go:build linux

package engine

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer parks an open-loop source goroutine until a wall-clock deadline.
// It arms a nonblocking timerfd at the deadline and reads it through the
// netpoller, so the goroutine parks and its P stays free, and the wake-up
// comes from the timer's own expiry. time.Sleep would round every
// sub-millisecond wait up to a millisecond (the netpoller's epoll_wait
// timeout has millisecond resolution), and a blocking nanosleep would hold
// the P for the whole wait.
type pacer struct {
	fd   int      // the timerfd; f owns it
	f    *os.File // f.Fd is never called: it would make the fd blocking
	spec itimerspec
	buf  [8]byte // the expiration count a read returns
}

// itimerspec mirrors struct itimerspec.
type itimerspec struct {
	interval, value syscall.Timespec
}

const (
	clockRealtime   = 0 // CLOCK_REALTIME, the clock time.Now().UnixNano reads
	tfdTimerAbstime = 1 // TFD_TIMER_ABSTIME
)

// newPacer opens a source's timerfd. The caller closes it.
func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockRealtime,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("engine: open-loop pacer: timerfd_create: %w", errno)
	}
	return &pacer{fd: int(fd), f: os.NewFile(fd, "pacer")}, nil
}

// wait returns once the wall clock has reached deadline (UnixNano). The
// timer fires on CLOCK_REALTIME at or after the deadline, so a wait never
// returns early; if arming or reading fails it falls back to time.Sleep.
//
//dsp:hotpath
//dsplint:wallclock
func (p *pacer) wait(deadline int64) {
	p.spec.value = syscall.NsecToTimespec(deadline)
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), tfdTimerAbstime,
		uintptr(unsafe.Pointer(&p.spec)), 0, 0, 0)
	if errno == 0 {
		if _, err := p.f.Read(p.buf[:]); err == nil {
			return
		}
	}
	time.Sleep(time.Duration(deadline - time.Now().UnixNano()))
}

// close releases the timerfd; a nil pacer (a closed-loop or operator
// driver's) has none.
func (p *pacer) close() {
	if p != nil {
		p.f.Close()
	}
}
