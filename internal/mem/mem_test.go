package mem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hirata/internal/isa"
)

func TestMemoryLoadStore(t *testing.T) {
	m := NewMemory(64)
	if m.Size() != 64 {
		t.Fatalf("Size = %d, want 64", m.Size())
	}
	if err := m.StoreInt(10, -12345); err != nil {
		t.Fatal(err)
	}
	v, err := m.LoadInt(10)
	if err != nil || v != -12345 {
		t.Fatalf("LoadInt = %d, %v; want -12345", v, err)
	}
	if err := m.StoreFloat(11, 3.25); err != nil {
		t.Fatal(err)
	}
	f, err := m.LoadFloat(11)
	if err != nil || f != 3.25 {
		t.Fatalf("LoadFloat = %g, %v; want 3.25", f, err)
	}
}

func TestMemoryBounds(t *testing.T) {
	m := NewMemory(8)
	for _, addr := range []int64{-1, 8, 1 << 40} {
		if _, err := m.Load(addr); err == nil {
			t.Errorf("Load(%d) succeeded, want error", addr)
		}
		if err := m.Store(addr, 1); err == nil {
			t.Errorf("Store(%d) succeeded, want error", addr)
		}
	}
}

// Property: a store followed by a load at the same address returns the
// stored value, and stores do not disturb other addresses.
func TestMemoryStoreLoadProperty(t *testing.T) {
	m := NewMemory(256)
	shadow := make(map[int64]uint64)
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		addr := int64(rng.Intn(256))
		v := rng.Uint64()
		if err := m.Store(addr, v); err != nil {
			return false
		}
		shadow[addr] = v
		for a, want := range shadow {
			got, err := m.Load(a)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFloatRoundTripProperty(t *testing.T) {
	m := NewMemory(4)
	f := func(x float64) bool {
		m.SetFloat(0, x)
		got := m.FloatAt(0)
		return got == x || (math.IsNaN(x) && math.IsNaN(got))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRemoteRegion(t *testing.T) {
	m := NewMemoryWithRemote(100, 50, 80)
	if m.IsRemote(49) {
		t.Error("address 49 classified remote")
	}
	if !m.IsRemote(50) || !m.IsRemote(99) {
		t.Error("remote addresses classified local")
	}
	if m.RemoteLatency() != 80 {
		t.Errorf("RemoteLatency = %d, want 80", m.RemoteLatency())
	}
	// Remote addresses remain functional.
	m.SetInt(60, 7)
	if m.IntAt(60) != 7 {
		t.Error("remote store/load failed")
	}

	noRemote := NewMemory(10)
	if noRemote.IsRemote(5) {
		t.Error("plain memory reported remote addresses")
	}
	defaulted := NewMemoryWithRemote(10, 5, 0)
	if defaulted.RemoteLatency() != DefaultRemoteLatency {
		t.Errorf("default remote latency = %d, want %d", defaulted.RemoteLatency(), DefaultRemoteLatency)
	}
}

func TestPerfectCache(t *testing.T) {
	c := NewCache(CacheConfig{})
	if !c.Perfect() {
		t.Fatal("zero config should be a perfect cache")
	}
	for i := int64(0); i < 1000; i++ {
		if lat := c.Access(i * 997); lat != CacheAccessCycles {
			t.Fatalf("perfect cache access latency = %d, want %d", lat, CacheAccessCycles)
		}
	}
	if c.HitRate() != 1 {
		t.Errorf("perfect cache hit rate = %g, want 1", c.HitRate())
	}
	if !c.Probe(12345) {
		t.Error("perfect cache probe missed")
	}
}

func TestFiniteCache(t *testing.T) {
	c := NewCache(CacheConfig{Lines: 4, WordsPerLine: 2, AccessCycles: 2, MissPenalty: 10})
	if c.Perfect() {
		t.Fatal("finite cache reported perfect")
	}
	// First access: miss.
	if lat := c.Access(0); lat != 12 {
		t.Errorf("cold access latency = %d, want 12", lat)
	}
	// Same line: hit.
	if lat := c.Access(1); lat != 2 {
		t.Errorf("same-line access latency = %d, want 2", lat)
	}
	// Conflicting line (4 lines * 2 words = 8 words span): address 16 maps to line 0.
	if lat := c.Access(16); lat != 12 {
		t.Errorf("conflict access latency = %d, want 12", lat)
	}
	// Original line evicted.
	if lat := c.Access(0); lat != 12 {
		t.Errorf("post-eviction access latency = %d, want 12", lat)
	}
	if c.Hits() != 1 || c.Misses() != 3 {
		t.Errorf("hits/misses = %d/%d, want 1/3", c.Hits(), c.Misses())
	}
	c.Reset()
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Error("Reset did not clear statistics")
	}
	if c.Probe(0) {
		t.Error("Probe hit after Reset")
	}
}

// Property: cache timing never depends on data, and a repeated access
// immediately after a miss always hits (direct-mapped determinism).
func TestCacheRepeatHitProperty(t *testing.T) {
	c := NewCache(CacheConfig{Lines: 16, WordsPerLine: 4})
	rng := rand.New(rand.NewSource(9))
	f := func() bool {
		addr := int64(rng.Intn(1 << 20))
		c.Access(addr)
		return c.Access(addr) == CacheAccessCycles && c.Probe(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAccessRequirementBuffer(t *testing.T) {
	var b AccessRequirementBuffer
	mk := func(seq uint64) AccessRequirement {
		return AccessRequirement{
			Instr: isa.Instruction{Op: isa.LW, Rd: isa.R1, Rs1: isa.R2},
			PC:    int64(seq * 10),
			Seq:   seq,
		}
	}
	for i := uint64(1); i <= 4; i++ {
		b.Add(mk(i))
	}
	if b.Len() != 4 {
		t.Fatalf("Len = %d, want 4", b.Len())
	}
	if !b.Complete(2) {
		t.Fatal("Complete(2) = false")
	}
	if b.Complete(2) {
		t.Fatal("Complete(2) twice = true")
	}
	got := b.AppendPending([]AccessRequirement{mk(9)})
	want := []uint64{9, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("AppendPending len = %d, want %d", len(got), len(want))
	}
	for i, seq := range want {
		if got[i].Seq != seq {
			t.Errorf("AppendPending[%d].Seq = %d, want %d (order must be preserved)", i, got[i].Seq, seq)
		}
	}
	// AppendPending must copy, not alias the buffer.
	b.Clear()
	b.Add(mk(7))
	if b.Len() != 1 {
		t.Error("Clear left entries")
	}
	if got[1].Seq != 1 {
		t.Error("AppendPending result aliased the buffer")
	}
}
