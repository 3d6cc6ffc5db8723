package core

// A HostProbe counts how the simulator executed a run, not what the
// simulated machine did: how many stepCycle invocations ran and how many
// quiescent stretches the event horizon jumped. Unlike an Observer it is
// told nothing per step, so attaching one costs nothing inside stepCycle,
// and like an Observer it never disarms quiescent-cycle skipping (skip.go):
// a counted run steps exactly as the bare run does. Per-phase host cost
// comes from a CPU profile instead (docs/PERFORMANCE.md, "Per-phase host
// cost").
type HostProbe interface {
	// SkipJump reports a quiescent-cycle fast-forward from cycle `from`
	// directly to cycle `to` (skipping to-from stepCycle invocations).
	SkipJump(from, to uint64)
	// RunEnd reports the final total-cycle count and the number of
	// stepCycle invocations actually executed, once, when Run returns
	// successfully.
	RunEnd(cycles, steps uint64)
}

// HostPhase and TouchSample are named only by probes written for the
// earlier, per-step HostProbe, whose extra methods took them. They go with
// the benchmark-only change that drops those methods from perfbench's
// step counter.
type (
	HostPhase   uint8
	TouchSample struct{}
)

// SetHostProbe attaches (or with nil detaches) a host probe. Must be
// called before Run. Unlike Observe, the probe does not pin the machine to
// cycle-by-cycle stepping.
func (p *Processor) SetHostProbe(hp HostProbe) {
	p.hostProbe = hp
}
