package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer releases a generator worker at a due time. Runtime timers on
// Linux fire with millisecond granularity once the process is idle
// (the poller's wait takes whole milliseconds), which would show up as
// generator lag on sub-millisecond requests. A pacer waits on its own
// timerfd instead: the poller wakes the worker when the kernel's
// high-resolution timer fires, and no thread or processor is held
// while it waits.
type pacer struct {
	fd  uintptr
	f   *os.File
	buf [8]byte
}

type itimerspec struct{ interval, value syscall.Timespec }

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// waitUntil returns at t, or at once if t has passed. A nil pacer falls
// back to time.Sleep.
func (p *pacer) waitUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	if p == nil {
		time.Sleep(d)
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	if _, err := p.f.Read(p.buf[:]); err != nil {
		return fmt.Errorf("read timerfd: %w", err)
	}
	return nil
}

func (p *pacer) close() {
	if p != nil {
		p.f.Close()
	}
}
