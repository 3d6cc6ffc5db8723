package core

// Host-level self-observability hooks (the simulator observing itself, not
// the simulated machine). A HostProbe is the host-side twin of Observer:
// an optional sink wired into the cycle loop with the same nil-guard
// discipline, so the disabled path stays allocation-free and
// branch-predictable. Unlike Observer, attaching a HostProbe does NOT
// disable quiescent-cycle skipping (skip.go): the probe watches the
// simulator's phases, which are defined per *executed* step, and it learns
// about skipped stretches through SkipJump — so a profiled run remains
// cycle-exact and result-identical to an unprofiled one. Sampled and
// unsampled steps run the same code; sampling only adds the phase-boundary
// callbacks.
//
// All wall-clock timing lives on the probe side (internal/hostobs), never
// here: the cycle loop only reports phase boundaries on steps the probe
// elected to sample (StepStart returned true). The hottime analyzer
// (tools/analyzers) enforces that no raw time.Now/time.Since creeps into
// this package.

// HostPhase identifies one phase of stepCycle (plus the event-horizon
// machinery that runs between steps), in execution order. The simulated
// machine's "execute" work has no phase of its own: execution is timing-only
// and is folded into issue-select (architectural effects apply at issue,
// timing at select) and completion (retirement of elapsed result latencies).
type HostPhase uint8

const (
	HostPhaseRotation   HostPhase = iota // rotatePriorities
	HostPhaseCompletion                  // retireCompletions
	HostPhaseWake                        // wakeFrames
	HostPhaseBind                        // bindSlots
	HostPhaseSelect                      // schedulePhase (instruction schedule units)
	HostPhaseDecode                      // decodeAndAdvance (decode units: D2 issue, buffer→D1→D2)
	HostPhaseFetch                       // fetchPhase (instruction fetch units)
	HostPhaseSkip                        // advanceCycle event-horizon machinery (only when it arms)
	NumHostPhases
)

var hostPhaseNames = [NumHostPhases]string{
	"rotation", "completion", "wake", "bind", "issue-select",
	"decode", "fetch", "event-horizon",
}

// String returns the stable phase name used in profiles, traces and
// Prometheus labels.
func (ph HostPhase) String() string {
	if int(ph) < len(hostPhaseNames) {
		return hostPhaseNames[ph]
	}
	return "unknown"
}

// TouchSample describes one sampled step: the simulated cycle it ran and
// how many thread slots were running when it started. The type keeps its
// name for existing HostProbe implementations.
type TouchSample struct {
	Cycle        uint64
	RunningSlots uint64 // slots in slotRunning at step start
}

// HostProbe observes the simulator's own execution. StepStart is called at
// the top of every stepCycle and elects whether this step is sampled; only
// sampled steps receive PhaseEnd/StepEnd callbacks. A trailing
// HostPhaseSkip PhaseEnd arrives only from steps on which the event-horizon
// machinery armed (no running slots, skipping enabled); ordinary steps end
// at HostPhaseFetch. SkipJump reports every quiescent fast-forward
// regardless of sampling. RunEnd fires once when Run returns successfully.
//
// Implementations must not mutate processor state; internal/hostobs
// provides the standard one.
type HostProbe interface {
	// StepStart reports a new stepCycle at the given simulated cycle and
	// returns whether to sample it (phase timing).
	StepStart(cycle uint64) bool
	// PhaseEnd marks the end of one phase of a sampled step.
	PhaseEnd(ph HostPhase)
	// StepEnd closes a sampled step.
	StepEnd(t TouchSample)
	// SkipJump reports a quiescent-cycle fast-forward from cycle `from`
	// directly to cycle `to` (skipping to-from stepCycle invocations).
	SkipJump(from, to uint64)
	// RunEnd reports the final total-cycle count and the number of
	// stepCycle invocations actually executed.
	RunEnd(cycles, steps uint64)
}

// SetHostProbe attaches (or with nil detaches) a host-side self-profiling
// probe. Must be called before Run. Unlike Observe, the probe does not pin
// the machine to cycle-by-cycle stepping.
func (p *Processor) SetHostProbe(hp HostProbe) {
	p.hostProbe = hp
}
