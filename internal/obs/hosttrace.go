package obs

import (
	"bufio"
	"io"
)

// TraceWriter is the exported face of the Chrome Trace Event encoder behind
// WriteChromeTrace, for callers that lay out their own tracks — notably
// internal/hostobs, which renders the simulator's *host-side* execution
// (cycle-loop phase slices, sweep-worker timelines) with the same streaming
// byte-stable machinery the simulated-machine traces use. One trace-time
// microsecond is whatever the caller says it is; hostobs uses host
// microseconds where the pipeline traces use simulated cycles.
type TraceWriter struct {
	bw  *bufio.Writer
	enc *traceEncoder
}

// NewTraceWriter starts a Chrome Trace Event JSON document on w. Call Close
// to finish it; the document is invalid until then.
func NewTraceWriter(w io.Writer) *TraceWriter {
	bw := bufio.NewWriter(w)
	enc := &traceEncoder{w: bw}
	enc.begin()
	return &TraceWriter{bw: bw, enc: enc}
}

// ProcessName names a pid's track group.
func (t *TraceWriter) ProcessName(pid int, name string) {
	t.enc.meta("process_name", pid, 0, name)
}

// ThreadName names one tid track within a pid.
func (t *TraceWriter) ThreadName(pid, tid int, name string) {
	t.enc.meta("thread_name", pid, tid, name)
}

// Slice emits a complete ("X") slice. A zero duration is widened to 1 so
// the slice stays visible.
func (t *TraceWriter) Slice(pid, tid int, name, cat string, ts, dur uint64, args map[string]any) {
	if dur == 0 {
		dur = 1
	}
	t.enc.event(traceEvent{Name: name, Cat: cat, Ph: "X", TS: ts, Dur: dur, Pid: pid, Tid: tid, Args: argsOf(args)})
}

// Instant emits an instant ("i") event. Scope is "t" (thread), "p"
// (process) or "g" (global).
func (t *TraceWriter) Instant(pid, tid int, name string, ts uint64, scope string, args map[string]any) {
	t.enc.event(traceEvent{Name: name, Ph: "i", TS: ts, Pid: pid, Tid: tid, S: scope, Args: argsOf(args)})
}

// Counter emits a counter ("C") sample; args maps series name to value.
func (t *TraceWriter) Counter(pid, tid int, name string, ts uint64, args map[string]any) {
	t.enc.event(traceEvent{Name: name, Ph: "C", TS: ts, Pid: pid, Tid: tid, Args: argsOf(args)})
}

// argsOf boxes a caller's args, leaving a nil or empty map as a nil
// interface so "args" stays omitted.
func argsOf(args map[string]any) any {
	if len(args) == 0 {
		return nil
	}
	return args
}

// Close terminates the traceEvents array and flushes. The writer must not
// be used afterwards.
func (t *TraceWriter) Close() error {
	t.enc.end()
	if t.enc.err != nil {
		return t.enc.err
	}
	return t.bw.Flush()
}
