//go:build !linux

package main

import "time"

// pacer falls back to runtime timers where timerfd does not exist.
type pacer struct{}

func newPacer() (*pacer, error) { return nil, nil }

// waitUntil returns at t, or at once if t has passed.
func (p *pacer) waitUntil(t time.Time) error {
	time.Sleep(time.Until(t))
	return nil
}

func (p *pacer) close() {}
