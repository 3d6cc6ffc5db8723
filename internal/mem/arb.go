package mem

import "hirata/internal/isa"

// AccessRequirement records one outstanding load/store instruction, copied
// into the access requirement buffer when the instruction is issued by a
// running thread (§2.1.3). If the thread is switched out while the access is
// in flight, the requirement is saved as part of the context and re-executed
// on resume, which is what makes context switches restartable.
type AccessRequirement struct {
	Instr isa.Instruction // the load/store instruction
	PC    int64           // its program counter, for diagnostics and replay
	Seq   uint64          // per-thread issue sequence number
}

// AccessRequirementBuffer holds the outstanding memory access requirements
// of one context frame, in issue order.
type AccessRequirementBuffer struct {
	entries []AccessRequirement
}

// Add records an issued load/store.
func (b *AccessRequirementBuffer) Add(r AccessRequirement) {
	b.entries = append(b.entries, r)
}

// Complete removes the requirement with the given sequence number; it
// reports whether an entry was removed.
func (b *AccessRequirementBuffer) Complete(seq uint64) bool {
	for i, e := range b.entries {
		if e.Seq == seq {
			b.entries = append(b.entries[:i], b.entries[i+1:]...)
			return true
		}
	}
	return false
}

// AppendPending appends the outstanding requirements to dst in issue order
// and returns the extended slice, a copy that stays valid after further
// buffer operations.
func (b *AccessRequirementBuffer) AppendPending(dst []AccessRequirement) []AccessRequirement {
	return append(dst, b.entries...)
}

// Len returns the number of outstanding requirements.
func (b *AccessRequirementBuffer) Len() int { return len(b.entries) }

// Clear drops all outstanding requirements.
func (b *AccessRequirementBuffer) Clear() { b.entries = b.entries[:0] }
