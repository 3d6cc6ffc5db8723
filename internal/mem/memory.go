// Package mem provides the memory-system substrates of the simulated
// machine: word-addressed main memory with an optional remote region (for
// the distributed-shared-memory latencies that motivate concurrent
// multithreading), instruction/data cache models, and the access
// requirement buffer used to restart threads after a context switch.
//
// The paper's evaluation assumes all cache accesses hit (§3.1); the cache
// types here therefore default to perfect behaviour with the paper's
// 2-cycle access time, and additionally implement a finite direct-mapped
// mode used by this repository's "finite cache effects" extension (the
// paper lists that study as work in progress).
package mem

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Memory is a word-addressed main memory. One word holds 64 bits: either an
// integer register value or a raw float64 image. Addresses are word indices.
//
// Addresses at or above RemoteBase model remote memory in a distributed
// shared memory system: functionally identical, but flagged so the processor
// can take a data-absence trap and switch contexts (§2.1.3). RemoteBase == 0
// disables the remote region (RemoteBase <= 0 is normalised to "none").
type Memory struct {
	words      []uint64
	remoteBase int64 // first remote address; <0 means no remote region
	remoteLat  int   // extra cycles for a remote access
}

// DefaultRemoteLatency is the remote-access latency used when a Memory is
// built with a remote region but no explicit latency.
const DefaultRemoteLatency = 100

// MaxWords bounds a memory image built from a program: 2^27 words, the
// reach of li/la, so every data word a label can name lies inside it. The
// assembler rejects data placed beyond it, and asm's Program.NewMemory
// refuses to allocate more.
const MaxWords = 1 << 27

// NewMemory allocates a zeroed memory of the given number of words.
func NewMemory(words int) *Memory {
	if words <= 0 {
		panic(fmt.Sprintf("mem: invalid memory size %d", words))
	}
	return &Memory{words: make([]uint64, words), remoteBase: -1}
}

// NewMemoryWithRemote allocates a memory whose addresses >= remoteBase are
// remote with the given extra latency.
func NewMemoryWithRemote(words int, remoteBase int64, latency int) *Memory {
	m := NewMemory(words)
	if remoteBase >= 0 {
		if latency <= 0 {
			latency = DefaultRemoteLatency
		}
		m.remoteBase = remoteBase
		m.remoteLat = latency
	}
	return m
}

// Size returns the memory size in words.
func (m *Memory) Size() int64 { return int64(len(m.words)) }

// RemoteBase returns the first remote address, or -1 when the memory has no
// remote region.
func (m *Memory) RemoteBase() int64 {
	if m.remoteBase < 0 {
		return -1
	}
	return m.remoteBase
}

// WriteImage writes the full memory image to w as big-endian 64-bit words.
// The byte stream is a pure function of the memory contents, so hashing it
// yields a content address for the machine's initial (or final) data state;
// internal/runledger keys run records on the pre-run image.
func (m *Memory) WriteImage(w io.Writer) error {
	var buf [8]byte
	for _, v := range m.words {
		binary.BigEndian.PutUint64(buf[:], v)
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// check validates an address.
func (m *Memory) check(addr int64) error {
	if addr < 0 || addr >= int64(len(m.words)) {
		return fmt.Errorf("mem: address %d out of range [0, %d)", addr, len(m.words))
	}
	return nil
}

// Load reads the word at addr.
func (m *Memory) Load(addr int64) (uint64, error) {
	if err := m.check(addr); err != nil {
		return 0, err
	}
	return m.words[addr], nil
}

// Store writes the word at addr.
func (m *Memory) Store(addr int64, v uint64) error {
	if err := m.check(addr); err != nil {
		return err
	}
	m.words[addr] = v
	return nil
}

// LoadInt reads addr as a signed integer.
func (m *Memory) LoadInt(addr int64) (int64, error) {
	v, err := m.Load(addr)
	return int64(v), err
}

// StoreInt writes a signed integer at addr.
func (m *Memory) StoreInt(addr int64, v int64) error {
	return m.Store(addr, uint64(v))
}

// LoadFloat reads addr as a float64.
func (m *Memory) LoadFloat(addr int64) (float64, error) {
	v, err := m.Load(addr)
	return math.Float64frombits(v), err
}

// StoreFloat writes a float64 at addr.
func (m *Memory) StoreFloat(addr int64, v float64) error {
	return m.Store(addr, math.Float64bits(v))
}

// SetInt is a convenience initialiser that panics on a bad address; intended
// for test and workload setup code.
func (m *Memory) SetInt(addr int64, v int64) {
	if err := m.StoreInt(addr, v); err != nil {
		panic(err)
	}
}

// SetFloat is a convenience initialiser that panics on a bad address.
func (m *Memory) SetFloat(addr int64, v float64) {
	if err := m.StoreFloat(addr, v); err != nil {
		panic(err)
	}
}

// IntAt is a convenience accessor that panics on a bad address.
func (m *Memory) IntAt(addr int64) int64 {
	v, err := m.LoadInt(addr)
	if err != nil {
		panic(err)
	}
	return v
}

// FloatAt is a convenience accessor that panics on a bad address.
func (m *Memory) FloatAt(addr int64) float64 {
	v, err := m.LoadFloat(addr)
	if err != nil {
		panic(err)
	}
	return v
}

// IsRemote reports whether addr falls in the remote region.
func (m *Memory) IsRemote(addr int64) bool {
	return m.remoteBase >= 0 && addr >= m.remoteBase
}

// RemoteLatency returns the extra access latency of the remote region.
func (m *Memory) RemoteLatency() int { return m.remoteLat }
