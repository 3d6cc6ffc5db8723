package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"

	"hirata/internal/buildinfo"
	"hirata/internal/core"
)

// Prometheus text-format exposition. Metric names follow the
// <namespace>_<name>_<unit> convention with the "hirata_" namespace; see
// docs/OBSERVABILITY.md for the catalogue.

// WritePrometheus writes the run totals (and latest-interval gauges when
// interval sampling is on) in Prometheus text exposition format.
func (c *Collector) WritePrometheus(w io.Writer) error {
	c.mu.Lock()
	cycles := c.cyclesLocked()
	t := c.totalsLocked()
	units := c.units
	samples := make([]Sample, len(c.samples))
	copy(samples, c.samples)
	dropped := c.dropped
	bound := c.bound
	cpi := c.cpiStackLocked()
	c.mu.Unlock()

	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	bi := buildinfo.Get()
	p("# HELP hirata_build_info Build identity of the simulator binary (value is always 1).\n"+
		"# TYPE hirata_build_info gauge\n"+
		"hirata_build_info{revision=%q,goversion=%q,dirty=%q} 1\n",
		bi.ShortRevision(), bi.GoVersion, fmt.Sprintf("%t", bi.Dirty))
	p("# HELP hirata_cycles Simulated cycles elapsed (T).\n# TYPE hirata_cycles gauge\nhirata_cycles %d\n", cycles)
	p("# HELP hirata_instructions_total Instructions issued from decode units.\n# TYPE hirata_instructions_total counter\nhirata_instructions_total %d\n", t.Issues)
	ipc := 0.0
	if cycles > 0 {
		ipc = float64(t.Issues) / float64(cycles)
	}
	p("# HELP hirata_ipc Instructions per cycle over the whole run.\n# TYPE hirata_ipc gauge\nhirata_ipc %g\n", ipc)
	p("# HELP hirata_unit_busy_cycles_total Functional-unit occupancy (N x issue latency).\n# TYPE hirata_unit_busy_cycles_total counter\n")
	for ord, u := range units {
		p("hirata_unit_busy_cycles_total{unit=%q} %d\n", u.Name, t.UnitBusy[ord])
	}
	p("# HELP hirata_unit_invocations_total Instructions executed per functional unit (N).\n# TYPE hirata_unit_invocations_total counter\n")
	for ord, u := range units {
		p("hirata_unit_invocations_total{unit=%q} %d\n", u.Name, t.UnitInvocs[ord])
	}
	p("# HELP hirata_unit_utilization_percent The paper's U = N*L/T * 100%%.\n# TYPE hirata_unit_utilization_percent gauge\n")
	for ord, u := range units {
		util := 0.0
		if cycles > 0 {
			util = 100 * float64(t.UnitBusy[ord]) / float64(cycles)
		}
		p("hirata_unit_utilization_percent{unit=%q} %g\n", u.Name, util)
	}
	p("# HELP hirata_slot_issued_total Instructions issued per thread slot.\n# TYPE hirata_slot_issued_total counter\n")
	for s, n := range t.SlotIssued {
		p("hirata_slot_issued_total{slot=\"%d\"} %d\n", s, n)
	}
	p("# HELP hirata_stall_cycles_total Decode stall cycles by slot and reason.\n# TYPE hirata_stall_cycles_total counter\n")
	for s, row := range t.SlotStalls {
		for r, n := range row {
			reason := core.StallReason(r)
			if reason == core.StallNone {
				continue
			}
			p("hirata_stall_cycles_total{slot=\"%d\",reason=%q} %d\n", s, reason.String(), n)
		}
	}
	p("# HELP hirata_cpi_slot_cycles_total Slot-cycle accounting by CPI-stack bucket (account.go; buckets per slot sum to hirata_cycles).\n# TYPE hirata_cpi_slot_cycles_total counter\n")
	for _, s := range cpi.Slots {
		for b := CPIBucket(0); b < NumCPIBuckets; b++ {
			p("hirata_cpi_slot_cycles_total{slot=\"%d\",bucket=%q} %d\n", s.Slot, b.String(), s.Cycles[b])
		}
	}
	p("# HELP hirata_cpi_machine_fraction Fraction of all slot-cycles in each CPI-stack bucket.\n# TYPE hirata_cpi_machine_fraction gauge\n")
	machine := cpi.Machine()
	if total := machine.Total(); total > 0 {
		for b := CPIBucket(0); b < NumCPIBuckets; b++ {
			p("hirata_cpi_machine_fraction{bucket=%q} %g\n", b.String(), float64(machine.Cycles[b])/float64(total))
		}
	}
	p("# HELP hirata_slots_bound Thread slots currently bound to a context frame.\n# TYPE hirata_slots_bound gauge\nhirata_slots_bound %d\n", bits.OnesCount64(bound))
	p("# HELP hirata_events_dropped_total Events dropped from the bounded ring buffer.\n# TYPE hirata_events_dropped_total counter\nhirata_events_dropped_total %d\n", dropped)
	p("# HELP hirata_metrics_samples Closed interval-metrics samples.\n# TYPE hirata_metrics_samples gauge\nhirata_metrics_samples %d\n", len(samples))
	if n := len(samples); n > 0 {
		last := samples[n-1]
		p("# HELP hirata_interval_ipc IPC of the most recent closed metrics interval.\n# TYPE hirata_interval_ipc gauge\nhirata_interval_ipc %g\n", last.IPC)
	}
	return err
}

// sampleJSON is Sample's wire form: stall counts keyed by reason name with
// the meaningless StallNone slot (and zero counts) omitted, instead of an
// array positionally indexed by core.StallReason.
type sampleJSON struct {
	StartCycle uint64            `json:"start_cycle"`
	EndCycle   uint64            `json:"end_cycle"`
	Issued     uint64            `json:"issued"`
	IPC        float64           `json:"ipc"`
	UnitBusy   []uint64          `json:"unit_busy"`
	Stalls     map[string]uint64 `json:"stalls,omitempty"`
	SlotsBound int               `json:"slots_bound"`
}

// MarshalJSON implements json.Marshaler.
func (s Sample) MarshalJSON() ([]byte, error) {
	doc := sampleJSON{
		StartCycle: s.StartCycle,
		EndCycle:   s.EndCycle,
		Issued:     s.Issued,
		IPC:        s.IPC,
		UnitBusy:   s.UnitBusy,
		SlotsBound: s.SlotsBound,
	}
	for r, n := range s.Stalls {
		if reason := core.StallReason(r); reason != core.StallNone && n > 0 {
			if doc.Stalls == nil {
				doc.Stalls = make(map[string]uint64)
			}
			doc.Stalls[reason.String()] = n
		}
	}
	return json.Marshal(doc)
}

// UnmarshalJSON implements json.Unmarshaler (the inverse of MarshalJSON).
func (s *Sample) UnmarshalJSON(b []byte) error {
	var doc sampleJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		return err
	}
	*s = Sample{
		StartCycle: doc.StartCycle,
		EndCycle:   doc.EndCycle,
		Issued:     doc.Issued,
		IPC:        doc.IPC,
		UnitBusy:   doc.UnitBusy,
		Stalls:     make([]uint64, core.NumStallReasons),
		SlotsBound: doc.SlotsBound,
	}
	for name, n := range doc.Stalls {
		for r := core.StallReason(0); int(r) < core.NumStallReasons; r++ {
			if r.String() == name {
				s.Stalls[r] = n
			}
		}
	}
	return nil
}

// metricsJSON is the JSON exposition document.
type metricsJSON struct {
	Cycles       uint64           `json:"cycles"`
	Instructions uint64           `json:"instructions"`
	IPC          float64          `json:"ipc"`
	Units        []unitMetricJSON `json:"units"`
	Slots        []slotMetricJSON `json:"slots"`
	Dropped      uint64           `json:"events_dropped"`
	Interval     int              `json:"metrics_interval"`
	Samples      []Sample         `json:"samples,omitempty"`
}

type unitMetricJSON struct {
	Name        string  `json:"name"`
	Invocations uint64  `json:"invocations"`
	BusyCycles  uint64  `json:"busy_cycles"`
	Utilization float64 `json:"utilization_percent"`
}

type slotMetricJSON struct {
	Slot   int               `json:"slot"`
	Issued uint64            `json:"issued"`
	Stalls map[string]uint64 `json:"stalls"`
}

// WriteMetricsJSON writes the totals and the interval time series as JSON.
func (c *Collector) WriteMetricsJSON(w io.Writer) error {
	c.mu.Lock()
	cycles := c.cyclesLocked()
	t := c.totalsLocked()
	units := c.units
	samples := make([]Sample, len(c.samples))
	copy(samples, c.samples)
	dropped := c.dropped
	interval := c.opt.MetricsInterval
	c.mu.Unlock()

	doc := metricsJSON{
		Cycles:       cycles,
		Instructions: t.Issues,
		Dropped:      dropped,
		Interval:     interval,
		Samples:      samples,
	}
	if cycles > 0 {
		doc.IPC = float64(t.Issues) / float64(cycles)
	}
	for ord, u := range units {
		um := unitMetricJSON{Name: u.Name, Invocations: t.UnitInvocs[ord], BusyCycles: t.UnitBusy[ord]}
		if cycles > 0 {
			um.Utilization = 100 * float64(t.UnitBusy[ord]) / float64(cycles)
		}
		doc.Units = append(doc.Units, um)
	}
	for s := range t.SlotIssued {
		sm := slotMetricJSON{Slot: s, Issued: t.SlotIssued[s], Stalls: map[string]uint64{}}
		for r, n := range t.SlotStalls[s] {
			if reason := core.StallReason(r); reason != core.StallNone && n > 0 {
				sm.Stalls[reason.String()] = n
			}
		}
		doc.Slots = append(doc.Slots, sm)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteIntervalTable renders the interval time series as a readable table:
// one row per closed sample with IPC, aggregate unit busy%, occupancy and
// the dominant stall reason.
func (c *Collector) WriteIntervalTable(w io.Writer) error {
	samples := c.Samples()
	units := c.Units()
	if len(samples) == 0 {
		_, err := fmt.Fprintln(w, "no interval samples (set a metrics interval)")
		return err
	}
	if _, err := fmt.Fprintf(w, "%13s %8s %8s %6s %6s  %s\n", "cycles", "issued", "ipc", "busy%", "bound", "top stall"); err != nil {
		return err
	}
	for _, s := range samples {
		var busy uint64
		for _, b := range s.UnitBusy {
			busy += b
		}
		busyPct := 0.0
		if span := s.EndCycle - s.StartCycle; span > 0 && len(units) > 0 {
			busyPct = 100 * float64(busy) / float64(span*uint64(len(units)))
		}
		top, topN := "-", uint64(0)
		for r, n := range s.Stalls {
			if n > topN && core.StallReason(r) != core.StallNone {
				top, topN = core.StallReason(r).String(), n
			}
		}
		topCol := "-"
		if topN > 0 {
			topCol = fmt.Sprintf("%s (%d)", top, topN)
		}
		if _, err := fmt.Fprintf(w, "%6d-%6d %8d %8.3f %6.1f %6d  %s\n",
			s.StartCycle, s.EndCycle, s.Issued, s.IPC, busyPct, s.SlotsBound, topCol); err != nil {
			return err
		}
	}
	return nil
}
