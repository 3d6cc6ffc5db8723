// Dynamic critical-path extraction in the style of last-arriving-edge
// analysis (Fields et al.): replay the collector's event ring into a
// dependence graph over dynamic instructions, keep for every node only the
// latest-releasing ("binding") incoming edge, and walk the chain back from
// the last-completing instruction. The cycles of the resulting path are
// then decomposed by what each node was waiting for:
//
//	exec      result latency of the instructions on the path
//	frontend  in-order fetch/decode serialization (program-order edges)
//	data      scoreboard interlocks on register values
//	queue     queue-register communication between ring neighbours
//	standby   waiting for the slot's standby station to free
//	unit[c]   schedule-unit arbitration / functional-unit occupancy of
//	          class c (the what-if "+1 <unit>" input)
//
// Edges model the machine's issue rules: program order within a slot
// (in-order decode), register last-writer per context frame, queue
// producer FIFOs per ring link (reserved in issue order, like the
// hardware), functional-unit occupancy per unit instance, and standby
// occupancy per (slot, class). The binding parent is the max of the
// candidate release times, data > queue > standby > program on ties.
//
// The graph is rebuilt from the bounded ring, so the analysis refuses to
// run when the ring dropped events (unlike the CPI accounting, which is
// incremental and exact).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"hirata/internal/asm"
	"hirata/internal/isa"
)

// EdgeKind classifies why a dynamic instruction could not start earlier.
type EdgeKind uint8

// Edge kinds; EdgeNone marks a path root.
const (
	EdgeNone EdgeKind = iota
	EdgeProgram
	EdgeData
	EdgeQueue
	EdgeUnit
	EdgeStandby
)

// String names the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeNone:
		return "root"
	case EdgeProgram:
		return "program"
	case EdgeData:
		return "data"
	case EdgeQueue:
		return "queue"
	case EdgeUnit:
		return "unit"
	case EdgeStandby:
		return "standby"
	}
	return "unknown"
}

// critNode is one dynamic instruction in the reconstructed graph.
type critNode struct {
	pc            int64
	slot          int16
	cls           isa.UnitClass
	issueLat      uint8
	selected      bool
	issue         uint64
	selectC       uint64
	ready         uint64 // result visible (issue+1 for decode-executed)
	parent        int32  // binding edge source, -1 = root
	parentRelease uint64
	edge          EdgeKind
}

// CritBreakdown decomposes the critical path's cycles by cause.
type CritBreakdown struct {
	Exec     uint64            `json:"exec"`
	Frontend uint64            `json:"frontend"`
	Data     uint64            `json:"data"`
	Queue    uint64            `json:"queue"`
	Standby  uint64            `json:"standby"`
	Unit     map[string]uint64 `json:"unit,omitempty"` // by unit-class name
}

// total sums every component.
func (b CritBreakdown) total() uint64 {
	t := b.Exec + b.Frontend + b.Data + b.Queue + b.Standby
	for _, v := range b.Unit {
		t += v
	}
	return t
}

// CritPC attributes path cycles to one static instruction.
type CritPC struct {
	PC     int64  `json:"pc"`
	Line   int    `json:"line,omitempty"` // 1-based source line (0 = unknown)
	Ins    string `json:"ins"`
	Count  int    `json:"count"` // dynamic occurrences on the path
	Cycles uint64 `json:"cycles"`
}

// CritStep is one dynamic instruction on the path, in execution order.
type CritStep struct {
	Slot   int    `json:"slot"`
	PC     int64  `json:"pc"`
	Ins    string `json:"ins"`
	Issue  uint64 `json:"issue"`
	Select uint64 `json:"select,omitempty"`
	Ready  uint64 `json:"ready"`
	Edge   string `json:"edge"`   // how this step was bound to its parent
	Cycles uint64 `json:"cycles"` // chronological charge up to this step's ready
}

// CritPath is the result of the critical-path analysis.
type CritPath struct {
	Cycles     uint64        `json:"cycles"`      // run length
	PathCycles uint64        `json:"path_cycles"` // Σ step charges (= last ready − root start)
	PathLen    int           `json:"path_len"`    // dynamic instructions on the path
	GraphNodes int           `json:"graph_nodes"` // dynamic instructions reconstructed
	Coverage   float64       `json:"coverage"`    // PathCycles / Cycles
	Breakdown  CritBreakdown `json:"breakdown"`
	PCs        []CritPC      `json:"pcs"`   // by path cycles, heaviest first
	Steps      []CritStep    `json:"steps"` // execution order
}

// critBuilder is the replay state while folding the event stream into the
// graph.
type critBuilder struct {
	nodes []critNode
	slots int

	frame     []int     // per slot: bound context frame
	prev      []int32   // per slot: last issued node
	pending   [][]int32 // per slot: issued, not yet selected (FIFO)
	lastClass [][]int32 // per slot, per class: last issued node of the class
	qin       []isa.Reg // per slot: queue-mapped registers
	qout      []isa.Reg
	qinf      []isa.Reg
	qoutf     []isa.Reg

	writers  map[int64]int32 // (frame, reg) → last writer node
	unitLast map[int]int32   // unit ordinal → last occupant node
	qfifo    map[int][]int32 // (consumer slot × 2 + fp) → producer nodes
	insName  map[int64]string
	srcs     []isa.Reg // scratch
}

func newCritBuilder(slots int) *critBuilder {
	b := &critBuilder{
		slots:     slots,
		frame:     make([]int, slots),
		prev:      make([]int32, slots),
		pending:   make([][]int32, slots),
		lastClass: make([][]int32, slots),
		qin:       make([]isa.Reg, slots),
		qout:      make([]isa.Reg, slots),
		qinf:      make([]isa.Reg, slots),
		qoutf:     make([]isa.Reg, slots),
		writers:   make(map[int64]int32),
		unitLast:  make(map[int]int32),
		qfifo:     make(map[int][]int32),
		insName:   make(map[int64]string),
	}
	for s := 0; s < slots; s++ {
		b.frame[s] = s
		b.prev[s] = -1
		b.lastClass[s] = make([]int32, int(isa.UnitLoadStore)+1)
		for c := range b.lastClass[s] {
			b.lastClass[s][c] = -1
		}
		b.qin[s], b.qout[s] = isa.NoReg, isa.NoReg
		b.qinf[s], b.qoutf[s] = isa.NoReg, isa.NoReg
	}
	return b
}

// regKey keys the last-writer map by (context frame, architectural reg).
func regKey(frame int, r isa.Reg) int64 { return int64(frame)<<8 | int64(r) }

// consider offers a candidate binding edge for the node under construction.
func (n *critNode) consider(parent int32, release uint64, kind EdgeKind) {
	if parent < 0 {
		return
	}
	if release > n.parentRelease || (release == n.parentRelease && edgeRank(kind) > edgeRank(n.edge)) {
		n.parent = parent
		n.parentRelease = release
		n.edge = kind
	}
}

// edgeRank breaks release-time ties: true dependences beat structural
// hazards beat program order.
func edgeRank(k EdgeKind) int {
	switch k {
	case EdgeData:
		return 5
	case EdgeQueue:
		return 4
	case EdgeUnit:
		return 3
	case EdgeStandby:
		return 2
	case EdgeProgram:
		return 1
	}
	return 0
}

// issue folds one Issue event into the graph.
func (b *critBuilder) issue(e Event) {
	s := int(e.Slot)
	if s < 0 || s >= b.slots {
		return
	}
	id := int32(len(b.nodes))
	n := critNode{
		pc:       e.PC,
		slot:     e.Slot,
		cls:      e.Ins.Op.Unit(),
		issueLat: uint8(e.Ins.Op.IssueLatency()),
		issue:    e.Cycle,
		ready:    e.Cycle + 1, // decode-executed default; Select overrides
		parent:   -1,
		edge:     EdgeNone,
	}
	if _, ok := b.insName[e.PC]; !ok {
		b.insName[e.PC] = e.Ins.String()
	}
	// Program order: in-order decode within the slot.
	if p := b.prev[s]; p >= 0 {
		n.consider(p, b.nodes[p].issue, EdgeProgram)
	}
	// Data: last writer of each source register in the slot's frame, or a
	// queue pop when the register is queue-mapped. Queue-mapped sources
	// read the ring link, not the register file.
	b.srcs = e.Ins.Sources(b.srcs[:0])
	frame := b.frame[s]
	for _, r := range b.srcs {
		if !r.Valid() {
			continue
		}
		if r == b.qin[s] || r == b.qinf[s] {
			fp := r == b.qinf[s]
			key := s<<1 | boolBit(fp)
			if q := b.qfifo[key]; len(q) > 0 {
				p := q[0]
				b.qfifo[key] = q[1:]
				n.consider(p, b.nodes[p].ready, EdgeQueue)
			}
			continue
		}
		if p, ok := b.writers[regKey(frame, r)]; ok {
			n.consider(p, b.nodes[p].ready, EdgeData)
		}
	}
	// Standby occupancy: the previous same-class instruction from this slot
	// must leave the standby station (be selected) before this one can
	// occupy it. Only instructions that use a functional unit pass through
	// standby.
	if n.cls != isa.UnitNone {
		if p := b.lastClass[s][n.cls]; p >= 0 {
			rel := b.nodes[p].issue
			if b.nodes[p].selected {
				rel = b.nodes[p].selectC
			}
			n.consider(p, rel, EdgeStandby)
		}
		b.lastClass[s][n.cls] = id
	}
	// WAW: writing a register the frame already has in flight serializes
	// behind the earlier writer's completion (scoreboard write interlock).
	if d := e.Ins.Dest(); d.Valid() {
		if d == b.qout[s] || d == b.qoutf[s] {
			// Queue write: reserve a producer entry for the ring successor,
			// FIFO like the hardware's reserve-at-decode.
			fp := d == b.qoutf[s]
			key := ((s+1)%b.slots)<<1 | boolBit(fp)
			b.qfifo[key] = append(b.qfifo[key], id)
		} else {
			if p, ok := b.writers[regKey(frame, d)]; ok {
				n.consider(p, b.nodes[p].ready, EdgeData)
			}
			b.writers[regKey(frame, d)] = id
		}
	}
	// Queue mapping instructions take effect at issue.
	switch e.Ins.Op {
	case isa.QEN:
		b.qin[s], b.qout[s] = e.Ins.Rs1, e.Ins.Rs2
	case isa.QENF:
		b.qinf[s], b.qoutf[s] = e.Ins.Rs1, e.Ins.Rs2
	case isa.QDIS:
		b.qin[s], b.qout[s] = isa.NoReg, isa.NoReg
		b.qinf[s], b.qoutf[s] = isa.NoReg, isa.NoReg
	}
	b.nodes = append(b.nodes, n)
	b.prev[s] = id
	if n.cls != isa.UnitNone {
		b.pending[s] = append(b.pending[s], id)
	}
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// selectEvent folds one Select event: stamp timing and offer the
// functional-unit occupancy edge.
func (b *critBuilder) selectEvent(e Event, ord int) {
	s := int(e.Slot)
	if s < 0 || s >= b.slots {
		return
	}
	q := b.pending[s]
	for i, id := range q {
		if b.nodes[id].pc == e.PC {
			n := &b.nodes[id]
			n.selected = true
			n.selectC = e.Cycle
			if e.ReadyAt > e.Cycle {
				n.ready = e.ReadyAt
			} else {
				n.ready = e.Cycle + 1
			}
			if ord >= 0 {
				if p, ok := b.unitLast[ord]; ok && p != id {
					// The unit frees one cycle after its occupant's last
					// busy cycle: select + issue latency.
					free := b.nodes[p].selectC + uint64(issueLatOf(b.nodes[p]))
					n.consider(p, free, EdgeUnit)
				}
				b.unitLast[ord] = id
			}
			b.pending[s] = append(q[:i], q[i+1:]...)
			return
		}
	}
}

// issueLatOf returns the node's functional-unit occupancy in cycles.
func issueLatOf(n critNode) int {
	if n.issueLat > 0 {
		return int(n.issueLat)
	}
	return 1
}

// threadEnd resets the slot's per-thread decode state. A kill also clears
// the queue ring, like core.kill.
func (b *critBuilder) threadEnd(e Event) {
	s := int(e.Slot)
	if s < 0 || s >= b.slots {
		return
	}
	b.pending[s] = b.pending[s][:0]
	for c := range b.lastClass[s] {
		b.lastClass[s][c] = -1
	}
	b.qin[s], b.qout[s] = isa.NoReg, isa.NoReg
	b.qinf[s], b.qoutf[s] = isa.NoReg, isa.NoReg
	if e.Killed {
		for k := range b.qfifo {
			delete(b.qfifo, k)
		}
	}
}

// CritPath reconstructs the dynamic dependence graph from the event ring
// and extracts the critical path. It refuses to run without a ring or on
// a truncated window: with dropped events the graph would silently miss
// edges and the "path" would be fiction.
func (c *Collector) CritPath() (CritPath, error) {
	if c.ring.capacity <= 0 {
		return CritPath{}, errNoRing
	}
	c.mu.Lock()
	events := c.eventsLocked()
	dropped := c.dropped
	slots := c.slots
	cycles := c.cyclesLocked()
	c.mu.Unlock()

	if dropped > 0 {
		return CritPath{}, fmt.Errorf("obs: critical-path analysis refused: the event ring dropped %d events (raise Options.RingCapacity beyond %d)", dropped, len(events))
	}
	b := newCritBuilder(slots)
	for _, e := range events {
		switch e.Kind {
		case KindIssue:
			b.issue(e)
		case KindSelect:
			b.selectEvent(e, c.ordinal(e.Unit, int(e.UnitIndex)))
		case KindBind:
			if s := int(e.Slot); s >= 0 && s < slots {
				b.frame[s] = int(e.Frame)
			}
		case KindThreadEnd:
			b.threadEnd(e)
		}
	}
	cp := CritPath{Cycles: cycles, GraphNodes: len(b.nodes)}
	if len(b.nodes) == 0 {
		return cp, nil
	}
	// The path ends at the last-completing instruction.
	end := 0
	for i, n := range b.nodes {
		if n.ready > b.nodes[end].ready {
			end = i
		}
	}
	cp.Breakdown.Unit = map[string]uint64{}
	var path []int32
	for id := int32(end); id >= 0; id = b.nodes[id].parent {
		path = append(path, id)
	}
	// Reverse to execution order and decompose each node's charge.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	perPC := map[int64]*CritPC{}
	// The path's charges partition [root issue, end ready] chronologically.
	// Each node's window runs from a cursor to the release point of the edge
	// into its successor (its own ready for the end node) and splits into
	//   decode wait  [cursor, issue]      → the binding in-edge's bucket
	//   grant wait   [issue, select]      → Unit[class] (arbitration)
	//   tail         [select, release]    → Unit[class] when the successor
	//                waited on this node's unit occupancy, else exec
	// so a saturated unit chain — where each link's release is the previous
	// occupant's select + issue latency — attributes its whole span to the
	// unit, which is exactly the what-if "+1 <unit>" input. Clamping to the
	// cursor keeps the charges an exact partition of the path's wall clock.
	cursor := b.nodes[path[0]].issue
	for idx, id := range path {
		n := b.nodes[id]
		target := n.ready
		outEdge := EdgeNone
		if idx+1 < len(path) {
			next := b.nodes[path[idx+1]]
			target = next.parentRelease
			outEdge = next.edge
		}
		var exec, grant, front, occupy uint64
		if target > cursor {
			issueP := n.issue
			if issueP < cursor {
				issueP = cursor
			} else if issueP > target {
				issueP = target
			}
			front = issueP - cursor
			selP := issueP
			if n.selected {
				selP = n.selectC
				if selP < issueP {
					selP = issueP
				} else if selP > target {
					selP = target
				}
			}
			grant = selP - issueP
			if outEdge == EdgeUnit {
				occupy = target - selP
			} else {
				exec = target - selP
			}
			cursor = target
		}
		charge := exec + grant + front + occupy
		cp.PathCycles += charge
		cp.Breakdown.Exec += exec
		if grant+occupy > 0 {
			cp.Breakdown.Unit[n.cls.String()] += grant + occupy
		}
		switch n.edge {
		case EdgeData:
			cp.Breakdown.Data += front
		case EdgeQueue:
			cp.Breakdown.Queue += front
		case EdgeStandby:
			cp.Breakdown.Standby += front
		case EdgeUnit:
			cp.Breakdown.Unit[n.cls.String()] += front
		default:
			cp.Breakdown.Frontend += front
		}
		st := perPC[n.pc]
		if st == nil {
			st = &CritPC{PC: n.pc, Ins: b.insName[n.pc]}
			perPC[n.pc] = st
		}
		st.Count++
		st.Cycles += charge
		step := CritStep{
			Slot: int(n.slot), PC: n.pc, Ins: b.insName[n.pc],
			Issue: n.issue, Ready: n.ready, Edge: n.edge.String(), Cycles: charge,
		}
		if n.selected {
			step.Select = n.selectC
		}
		cp.Steps = append(cp.Steps, step)
	}
	cp.PathLen = len(path)
	if cycles > 0 {
		cp.Coverage = float64(cp.PathCycles) / float64(cycles)
	}
	for _, st := range perPC {
		cp.PCs = append(cp.PCs, *st)
	}
	sort.Slice(cp.PCs, func(i, j int) bool {
		if cp.PCs[i].Cycles != cp.PCs[j].Cycles {
			return cp.PCs[i].Cycles > cp.PCs[j].Cycles
		}
		return cp.PCs[i].PC < cp.PCs[j].PC
	})
	return cp, nil
}

// Annotate fills source lines from the assembled program (optional).
func (cp *CritPath) Annotate(prog *asm.Program) {
	if prog == nil {
		return
	}
	for i := range cp.PCs {
		cp.PCs[i].Line = prog.Line(int(cp.PCs[i].PC))
	}
}

// WriteJSON writes the analysis as one JSON document.
func (cp CritPath) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cp)
}

// WriteText renders a human-readable report: the breakdown, then the
// heaviest static instructions on the path.
func (cp CritPath) WriteText(w io.Writer, prog *asm.Program) error {
	cp.Annotate(prog)
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("critical path: %d of %d cycles (%.1f%%), %d of %d dynamic instructions\n",
		cp.PathCycles, cp.Cycles, 100*cp.Coverage, cp.PathLen, cp.GraphNodes)
	bd := cp.Breakdown
	pctOf := func(v uint64) float64 {
		if t := bd.total(); t > 0 {
			return 100 * float64(v) / float64(t)
		}
		return 0
	}
	p("  exec %d (%.1f%%)  frontend %d (%.1f%%)  data %d (%.1f%%)  queue %d (%.1f%%)  standby %d (%.1f%%)\n",
		bd.Exec, pctOf(bd.Exec), bd.Frontend, pctOf(bd.Frontend), bd.Data, pctOf(bd.Data),
		bd.Queue, pctOf(bd.Queue), bd.Standby, pctOf(bd.Standby))
	unitNames := make([]string, 0, len(bd.Unit))
	for name := range bd.Unit {
		unitNames = append(unitNames, name)
	}
	sort.Strings(unitNames)
	for _, name := range unitNames {
		p("  unit %-10s %d (%.1f%%)\n", name, bd.Unit[name], pctOf(bd.Unit[name]))
	}
	limit := len(cp.PCs)
	if limit > 20 {
		limit = 20
	}
	if limit > 0 {
		p("hottest path instructions:\n")
	}
	for _, st := range cp.PCs[:limit] {
		loc := ""
		if st.Line > 0 {
			loc = fmt.Sprintf(" (line %d)", st.Line)
		}
		p("  pc %4d ×%-5d %6d cycles  %s%s\n", st.PC, st.Count, st.Cycles, st.Ins, loc)
	}
	return err
}
