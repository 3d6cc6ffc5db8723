package core

// Canonical configuration encoding. The run ledger (internal/runledger)
// keys every recorded simulation on hash(program bytes, memory image,
// canonical config, workload params); for that key to be a *correct* cache
// key two properties must hold:
//
//   - stability: the same machine always encodes to the same bytes. The
//     encoder therefore works on the *effective* configuration (every
//     defaulted field resolved), so Config{} and the explicit
//     {ThreadSlots: 1, LoadStoreUnits: 1, ...} spell the same machine.
//   - no aliasing: two configs that can produce different results must
//     never encode the same. The encoder enumerates every result-relevant
//     field in declaration order; fields that provably cannot change a
//     completed run's Result — the cycle-skip reference knob, the verify
//     gate and the abort limit — are excluded by name in canonicalExcluded,
//     with the reason.
//
// Both properties are enforced mechanically: TestCanonicalConfigCovers
// checks by reflection that every Config field is either encoded or
// excluded (never both), TestCanonicalConfigGolden pins the byte encoding,
// and the configcanon analyzer (tools/analyzers) fails the build when a
// newly grown Config field is not mentioned in this file at all — growing
// Config without deciding its cache-key status is a vet-time error, not a
// silent cache aliasing bug.

import (
	"fmt"
	"strconv"
	"strings"

	"hirata/internal/isa"
	"hirata/internal/mem"
)

// canonicalField renders one result-relevant Config field of an effective
// (withDefaults-resolved) configuration.
type canonicalField struct {
	name   string
	render func(Config) string
}

func boolField(v bool) string { return strconv.FormatBool(v) }
func intField(v int) string   { return strconv.Itoa(v) }

// cacheField renders a cache configuration in normalized form.
func cacheField(c mem.CacheConfig) string {
	n := c.Normalized()
	return fmt.Sprintf("lines=%d,wpl=%d,access=%d,miss=%d",
		n.Lines, n.WordsPerLine, n.AccessCycles, n.MissPenalty)
}

// canonicalFields lists every result-relevant Config field in struct
// declaration order. Growing Config means adding a row here (or a reasoned
// entry in canonicalExcluded); the coverage test and the configcanon
// analyzer refuse anything else.
var canonicalFields = []canonicalField{
	{"ThreadSlots", func(c Config) string { return intField(c.ThreadSlots) }},
	{"LoadStoreUnits", func(c Config) string { return intField(c.LoadStoreUnits) }},
	{"StandbyStations", func(c Config) string { return boolField(c.StandbyStations) }},
	{"StandbyDepth", func(c Config) string { return intField(c.StandbyDepth) }},
	{"RotationInterval", func(c Config) string { return intField(c.RotationInterval) }},
	{"ExplicitRotation", func(c Config) string { return boolField(c.ExplicitRotation) }},
	{"IssueWidth", func(c Config) string { return intField(c.IssueWidth) }},
	{"PrivateICache", func(c Config) string { return boolField(c.PrivateICache) }},
	{"FetchUnits", func(c Config) string { return intField(c.FetchUnits) }},
	{"QueueDepth", func(c Config) string { return intField(c.QueueDepth) }},
	{"ContextFrames", func(c Config) string { return intField(c.ContextFrames) }},
	{"ContextSwitchCycles", func(c Config) string { return intField(c.ContextSwitchCycles) }},
	{"ICache", func(c Config) string { return cacheField(c.ICache) }},
	{"DCache", func(c Config) string { return cacheField(c.DCache) }},
	{"MaxIssuePerCycle", func(c Config) string { return intField(c.MaxIssuePerCycle) }},
	{"ExtraUnits", func(c Config) string {
		parts := make([]string, 0, isa.NumUnitClasses)
		for u := isa.UnitClass(1); int(u) <= isa.NumUnitClasses; u++ {
			parts = append(parts, fmt.Sprintf("%s=%d", u, c.ExtraUnits[u]))
		}
		return strings.Join(parts, ",")
	}},
}

// canonicalExcluded names the Config fields deliberately absent from the
// canonical encoding, each with the reason it cannot change a completed
// run's Result. The cycle-skip differential tests (TestCycleSkipDifferential*)
// are the proof obligation behind DisableCycleSkip.
var canonicalExcluded = map[string]string{
	"MaxCycles":        "abort limit only: a completed run's Result is identical under any limit it fits in; aborted runs return an error and are never recorded",
	"DisableCycleSkip": "quiescent-cycle skipping is cycle-exact (differential_test.go); the flag selects the reference path, not a different machine",
	"StrictVerify":     "gates whether a run starts, never what a completed run computes",
}

// CanonicalConfig renders the result-relevant fields of the effective
// configuration as byte-stable "name=value" lines, one field per line in
// struct declaration order. Two configurations with equal CanonicalConfig
// strings are guaranteed to produce bit-identical Results for any program;
// the run ledger hashes this string into every run key.
func (c Config) CanonicalConfig() string {
	return strings.Join(c.CanonicalLines(), "\n")
}

// CanonicalLines is CanonicalConfig split into its per-field lines — the
// form run records embed so config diffs can name the fields that changed.
func (c Config) CanonicalLines() []string {
	eff := c.withDefaults()
	lines := make([]string, 0, len(canonicalFields))
	for _, f := range canonicalFields {
		lines = append(lines, f.name+"="+f.render(eff))
	}
	return lines
}
