package main

import (
	"strings"
	"testing"
)

const hotTimeBadFixture = `package core

import "time"

// bad: raw wall-clock reads on the hot path.
func step() time.Duration {
	t0 := time.Now()
	tick := time.Tick(time.Second)
	_ = tick
	return time.Since(t0)
}

// bad: a reasonless annotation does not exempt.
func bare() time.Time {
	return time.Now() // hottime:allow
}
`

const hotTimeGoodFixture = `package core

import "time"

// good: duration arithmetic and constants never read the clock.
const slow = 5 * time.Second

func scale(d time.Duration) time.Duration {
	return d * 2 / time.Millisecond
}

// good: a justified exemption on the same line.
func banner() time.Time {
	return time.Now() // hottime:allow one-time startup banner
}

// good: a justified exemption on the preceding line.
func coldPath() time.Time {
	// hottime:allow cold start, runs once per process
	return time.Now()
}
`

func TestHotTimeFindings(t *testing.T) {
	fset, files, info := typecheckSrc(t, "hirata/internal/core", hotTimeBadFixture)
	fs := checkHotTime(fset, "hirata/internal/core", files, info)
	if len(fs) != 4 {
		t.Fatalf("hottime findings = %d, want 4:\n%s", len(fs), strings.Join(fs, "\n"))
	}
	joined := strings.Join(fs, "\n")
	for _, want := range []string{"time.Now", "time.Since", "time.Tick"} {
		if !strings.Contains(joined, want) {
			t.Errorf("no %s finding:\n%s", want, joined)
		}
	}
}

func TestHotTimeClean(t *testing.T) {
	fset, files, info := typecheckSrc(t, "hirata/internal/core", hotTimeGoodFixture)
	if fs := checkHotTime(fset, "hirata/internal/core", files, info); len(fs) != 0 {
		t.Errorf("hottime on clean fixture:\n%s", strings.Join(fs, "\n"))
	}
}

// The event-driven core's helpers are inside the analyzer's scope: code
// shaped like event.go's wheel/heap maintenance is flagged like any other
// internal/core file, with no per-file allowlist to keep current.
const hotTimeEventCoreFixture = `package core

import "time"

type proc struct {
	evNear uint64
	evFar  []uint64
	cycle  uint64
}

// bad: timing the event-set maintenance from inside the hot loop.
func (p *proc) pushEv(when uint64) time.Duration {
	t0 := time.Now()
	if d := when - p.cycle; d <= 64 {
		p.evNear |= 1 << (d - 1)
	} else {
		p.evFar = append(p.evFar, when)
	}
	return time.Since(t0)
}

// good: a justified exemption still works in event-core code.
func (p *proc) deadlockBanner() time.Time {
	// hottime:allow deadlock diagnostic, at most once per run
	return time.Now()
}
`

func TestHotTimeCoversEventCore(t *testing.T) {
	fset, files, info := typecheckSrc(t, "hirata/internal/core", hotTimeEventCoreFixture)
	fs := checkHotTime(fset, "hirata/internal/core", files, info)
	if len(fs) != 2 {
		t.Fatalf("hottime findings on event-core fixture = %d, want 2:\n%s", len(fs), strings.Join(fs, "\n"))
	}
	joined := strings.Join(fs, "\n")
	for _, want := range []string{"time.Now", "time.Since"} {
		if !strings.Contains(joined, want) {
			t.Errorf("no %s finding:\n%s", want, joined)
		}
	}
}

// Only internal/core is the hot path; the same calls anywhere else time
// work from outside the cycle loop.
func TestHotTimeScopedToCore(t *testing.T) {
	fset, files, info := typecheckSrc(t, "hirata/internal/sweep", hotTimeBadFixture)
	if fs := checkHotTime(fset, "hirata/internal/sweep", files, info); len(fs) != 0 {
		t.Errorf("hottime outside internal/core: %v", fs)
	}
}
