// Package core implements the paper's elementary multithreaded processor:
// several thread slots (logical processors) simultaneously issue
// instructions to a shared pool of functional units.
//
// Model summary (§2 of the paper):
//
//   - Each thread slot owns an instruction queue unit and a decode unit and
//     is bound to a context frame (register bank + PC + status + access
//     requirement buffer). A shared instruction fetch unit fills the queue
//     buffers in an interleaved fashion, B = S×C words per access, where C
//     is the 2-cycle cache access time.
//   - The logical-processor pipeline is IF1 IF2 D1 D2 S EX… W. Decode is
//     in-order and checks dependences with scoreboarding; branches execute
//     inside the decode unit; issued instructions are arbitrated by per-
//     functional-unit instruction schedule units using rotating thread
//     priorities; not-selected instructions wait in depth-1 standby
//     stations, which yields out-of-order execution within a thread.
//   - Queue registers connect logical processors in a ring for doacross
//     loops; fast-fork/change-priority/kill and highest-priority-only
//     stores support the eager execution scheme for sequential loops.
//   - With more context frames than thread slots, a load that targets
//     remote memory takes a data-absence trap and the slot switches to a
//     ready context frame (concurrent multithreading, §2.1.3).
//
// The simulator is execution-driven and cycle-accurate at the level the
// paper evaluates: an instruction's architectural effects are applied when
// it leaves decode, and the schedule/execute machinery models time.
package core

import (
	"fmt"

	"hirata/internal/isa"
	"hirata/internal/mem"
)

// Default model parameters.
const (
	DefaultRotationInterval = 8 // §3.2 uses an 8-cycle rotation interval
	DefaultQueueDepth       = 1 // one full/empty bit per queue register
	DefaultMaxCycles        = 200_000_000
	DefaultContextSwitch    = 4 // cycles to rebind a context frame

	// unitClassCount indexes per-class arrays (UnitNone .. UnitLoadStore).
	unitClassCount = isa.NumUnitClasses + 1
)

// Config describes one processor instance.
type Config struct {
	// ThreadSlots is S, the number of logical processors.
	ThreadSlots int
	// LoadStoreUnits selects the paper's two functional-unit
	// configurations: 1 (seven heterogeneous units) or 2 (eight units).
	// Values above 2 are allowed for ablation studies.
	LoadStoreUnits int
	// StandbyStations enables the depth-1 standby latches between decode
	// and the instruction schedule units. Without them, a decode unit
	// blocks until its issued instruction is accepted by a functional unit.
	StandbyStations bool
	// StandbyDepth deepens the standby stations beyond the paper's single
	// latch (default 1). Deeper stations approach Tomasulo-style
	// reservation stations — an ablation quantifying what the paper's
	// deliberately cheap depth-1 design gives up.
	StandbyDepth int
	// RotationInterval is the implicit-rotation period in cycles.
	RotationInterval int
	// ExplicitRotation starts the machine in explicit-rotation mode
	// (priority rotates only on change-priority instructions). SETMODE
	// switches modes at run time either way.
	ExplicitRotation bool
	// IssueWidth is D, the superscalar issue width per thread slot (§3.3).
	// 1 reproduces the paper's preferred design.
	IssueWidth int
	// PrivateICache gives every thread slot its own instruction cache and
	// fetch unit (§3.2's variant experiment).
	PrivateICache bool
	// FetchUnits sets the number of shared instruction fetch units (and
	// caches); slots are assigned round-robin (slot mod FetchUnits).
	// Default 1, the paper's base design; "another cache and fetch unit
	// would be needed" (§2.1.1) is FetchUnits: 2. Ignored when
	// PrivateICache is set.
	FetchUnits int
	// QueueDepth is the capacity of each queue register FIFO.
	QueueDepth int
	// ContextFrames is the number of context frames; at least ThreadSlots.
	// Extra frames enable concurrent multithreading.
	ContextFrames int
	// ContextSwitchCycles is the slot rebinding time on a context switch.
	ContextSwitchCycles int
	// ICache and DCache configure the cache models (zero = perfect caches
	// with 2-cycle access, the paper's assumption).
	ICache, DCache mem.CacheConfig
	// MaxIssuePerCycle caps the total number of instructions all decode
	// units together may issue per cycle. 0 means unbounded — the paper's
	// simultaneous-issue design. 1 models the single-issue multithreaded
	// precursors the paper compares against in §4 (HEP's cycle-by-cycle
	// interleaving, Farrens & Pleszkun's competing streams), where multiple
	// threads share one instruction issue slot.
	MaxIssuePerCycle int
	// ExtraUnits adds functional units beyond the paper's base pool,
	// indexed by isa.UnitClass: ExtraUnits[isa.UnitIntALU] = 1 gives the
	// machine two integer ALUs. Load/store extras stack on top of
	// LoadStoreUnits. A fixed-size array keeps Config comparable, which the
	// experiment sweeps rely on. This exists for what-if validation and
	// ablations (docs/OBSERVABILITY.md); the paper's configurations leave it
	// zero.
	ExtraUnits [isa.NumUnitClasses + 1]int
	// MaxCycles aborts runaway simulations.
	MaxCycles uint64
	// DisableCycleSkip pins the simulator to cycle-by-cycle stepping even
	// through quiescent stretches (every slot idle or draining, all
	// activity waiting on a known future event). The skip is cycle-exact —
	// differential tests compare skipping runs against this reference
	// path — so the flag exists for those tests and for debugging, not for
	// correct results. Attaching an observer or the OnIssue/OnSelect hooks
	// disables skipping regardless of this flag.
	DisableCycleSkip bool
	// StrictVerify makes the top-level runners (hirata.RunMT) refuse to
	// simulate a program the static verifier (internal/lint) finds
	// diagnostics in. The core simulator itself ignores this field.
	StrictVerify bool
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.ThreadSlots <= 0 {
		c.ThreadSlots = 1
	}
	if c.LoadStoreUnits <= 0 {
		c.LoadStoreUnits = 1
	}
	if c.RotationInterval <= 0 {
		c.RotationInterval = DefaultRotationInterval
	}
	if c.IssueWidth <= 0 {
		c.IssueWidth = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.StandbyDepth <= 0 {
		c.StandbyDepth = 1
	}
	if c.FetchUnits <= 0 {
		c.FetchUnits = 1
	}
	if c.FetchUnits > c.ThreadSlots {
		c.FetchUnits = c.ThreadSlots
	}
	if c.PrivateICache {
		c.FetchUnits = c.ThreadSlots
	}
	if c.ContextFrames < c.ThreadSlots {
		c.ContextFrames = c.ThreadSlots
	}
	if c.ContextSwitchCycles <= 0 {
		c.ContextSwitchCycles = DefaultContextSwitch
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = DefaultMaxCycles
	}
	return c
}

// validate rejects nonsensical configurations.
func (c Config) validate() error {
	if c.ThreadSlots > 64 {
		return fmt.Errorf("core: %d thread slots is above the supported maximum of 64", c.ThreadSlots)
	}
	if c.IssueWidth > 16 {
		return fmt.Errorf("core: issue width %d is above the supported maximum of 16", c.IssueWidth)
	}
	if c.LoadStoreUnits > 8 {
		return fmt.Errorf("core: %d load/store units is above the supported maximum of 8", c.LoadStoreUnits)
	}
	if c.StandbyDepth > 16 {
		return fmt.Errorf("core: standby depth %d is above the supported maximum of 16", c.StandbyDepth)
	}
	for cls := isa.UnitClass(1); int(cls) <= isa.NumUnitClasses; cls++ {
		if c.ExtraUnits[cls] < 0 {
			return fmt.Errorf("core: negative extra unit count %d for %s", c.ExtraUnits[cls], cls)
		}
		if n := c.unitCount(cls); n > 8 {
			return fmt.Errorf("core: %d %s units is above the supported maximum of 8", n, cls)
		}
	}
	return nil
}

// unitCount returns how many functional units of a class the machine has.
func (c Config) unitCount(u isa.UnitClass) int {
	if u == isa.UnitNone {
		return 0
	}
	base := 1
	if u == isa.UnitLoadStore {
		base = c.LoadStoreUnits
	}
	extra := 0
	if int(u) < len(c.ExtraUnits) && c.ExtraUnits[u] > 0 {
		extra = c.ExtraUnits[u]
	}
	return base + extra
}

// UnitCount is the exported unit census; the obs collector sizes its
// per-unit track and metrics series from it so unit ordinals line up with
// the scheduler's.
func (c Config) UnitCount(u isa.UnitClass) int {
	d := c.withDefaults()
	return d.unitCount(u)
}

// Effective returns the configuration with every unset field resolved to
// its simulator default — the shape the machine actually runs with. The
// static bound analysis reads its machine model from this.
func (c Config) Effective() Config {
	return c.withDefaults()
}
