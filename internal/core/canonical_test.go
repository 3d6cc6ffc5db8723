package core

import (
	"reflect"
	"testing"

	"hirata/internal/isa"
	"hirata/internal/mem"
)

// TestCanonicalConfigCovers enforces the canonical encoder's coverage
// contract by reflection: every field of Config is either encoded by
// canonicalFields or excluded (with a reason) in canonicalExcluded, and
// never both. A newly grown field that is neither fails here (and at
// vet-time via the configcanon analyzer) instead of silently aliasing run
// keys.
func TestCanonicalConfigCovers(t *testing.T) {
	encoded := map[string]bool{}
	for _, f := range canonicalFields {
		if encoded[f.name] {
			t.Errorf("canonicalFields lists %s twice", f.name)
		}
		encoded[f.name] = true
	}
	typ := reflect.TypeOf(Config{})
	fields := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fields[name] = true
		enc, exc := encoded[name], canonicalExcluded[name] != ""
		switch {
		case enc && exc:
			t.Errorf("Config.%s is both canonically encoded and excluded; pick one", name)
		case !enc && !exc:
			t.Errorf("Config.%s is neither in canonicalFields nor canonicalExcluded: decide whether it affects results and add it to the canonical encoding (or exclude it with a reason)", name)
		}
	}
	for name := range encoded {
		if !fields[name] {
			t.Errorf("canonicalFields names %s, which is not a Config field", name)
		}
	}
	for name := range canonicalExcluded {
		if !fields[name] {
			t.Errorf("canonicalExcluded names %s, which is not a Config field", name)
		}
	}
}

// TestCanonicalConfigGolden pins the canonical encoding byte for byte.
// Run keys hash this string: changing the encoding silently invalidates
// every recorded ledger, so a change must be deliberate (update the golden
// AND bump runledger's key format version).
func TestCanonicalConfigGolden(t *testing.T) {
	cfg := Config{
		ThreadSlots:      8,
		LoadStoreUnits:   2,
		StandbyStations:  true,
		ExplicitRotation: true,
		ContextFrames:    12,
		DCache:           mem.CacheConfig{Lines: 256, MissPenalty: 30},
		MaxIssuePerCycle: 1,
	}
	cfg.ExtraUnits[isa.UnitIntALU] = 1
	const want = "ThreadSlots=8\n" +
		"LoadStoreUnits=2\n" +
		"StandbyStations=true\n" +
		"StandbyDepth=1\n" +
		"RotationInterval=8\n" +
		"ExplicitRotation=true\n" +
		"IssueWidth=1\n" +
		"PrivateICache=false\n" +
		"FetchUnits=1\n" +
		"QueueDepth=1\n" +
		"ContextFrames=12\n" +
		"ContextSwitchCycles=4\n" +
		"ICache=lines=0,wpl=4,access=2,miss=20\n" +
		"DCache=lines=256,wpl=4,access=2,miss=30\n" +
		"MaxIssuePerCycle=1\n" +
		"ExtraUnits=IntALU=1,Shifter=0,IntMul=0,FPAdd=0,FPMul=0,FPDiv=0,LoadStore=0"
	if got := cfg.CanonicalConfig(); got != want {
		t.Errorf("canonical encoding changed:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCanonicalConfigDefaultInsensitive: spelling a default explicitly must
// not change the machine's canonical identity.
func TestCanonicalConfigDefaultInsensitive(t *testing.T) {
	implicit := Config{ThreadSlots: 4, StandbyStations: true}
	explicit := Config{
		ThreadSlots:         4,
		LoadStoreUnits:      1,
		StandbyStations:     true,
		StandbyDepth:        1,
		RotationInterval:    DefaultRotationInterval,
		IssueWidth:          1,
		FetchUnits:          1,
		QueueDepth:          DefaultQueueDepth,
		ContextFrames:       4,
		ContextSwitchCycles: DefaultContextSwitch,
	}
	if implicit.CanonicalConfig() != explicit.CanonicalConfig() {
		t.Errorf("defaulted and explicit spellings of the same machine encode differently:\n%s\nvs\n%s",
			implicit.CanonicalConfig(), explicit.CanonicalConfig())
	}
}

// TestCanonicalConfigExcludedNeutral: the excluded knobs must not move the
// encoding.
func TestCanonicalConfigExcludedNeutral(t *testing.T) {
	base := Config{ThreadSlots: 4, StandbyStations: true}
	for name, mutate := range map[string]func(*Config){
		"MaxCycles":        func(c *Config) { c.MaxCycles = 12345 },
		"DisableCycleSkip": func(c *Config) { c.DisableCycleSkip = true },
		"StrictVerify":     func(c *Config) { c.StrictVerify = true },
	} {
		variant := base
		mutate(&variant)
		if base.CanonicalConfig() != variant.CanonicalConfig() {
			t.Errorf("result-neutral flag %s changed the canonical encoding", name)
		}
	}
	if base.CanonicalConfig() == (Config{ThreadSlots: 5, StandbyStations: true}).CanonicalConfig() {
		t.Error("distinct machines share a canonical encoding")
	}
}
