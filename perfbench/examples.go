package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"hirata"
	"hirata/internal/asm"
	"hirata/internal/core"
	"hirata/internal/exec"
	"hirata/internal/lint"
	"hirata/internal/mem"
	"hirata/internal/minc"
	"hirata/internal/obs"
	"hirata/internal/runledger"
	"hirata/internal/workload"
)

// The examples workload is the `hirata-sim -static-check -cpi-stack
// -record` pipeline: every job assembles or compiles its program, lints
// it (inter-thread and deadlock checks), computes the static bound, runs
// it with a Collector, builds the CPI stack and records the run to a
// fresh ledger file. The programs are examples/programs/* at their
// documented shapes, a seeded MinC radiosity gather and seeded
// concurrent-MT kernels with remote memory.

// exProgram is one shipped example at one machine shape.
type exProgram struct {
	file        string
	slots, ls   int
	interpreted bool // single-threaded: also checked against internal/exec
}

// Shapes at which each example terminates; sort.s and pipeline.s spin at
// other slot counts.
var exPrograms = []exProgram{
	{file: "fib.s", slots: 1, ls: 1, interpreted: true},
	{file: "dotprod.s", slots: 4, ls: 2},
	{file: "pipeline.s", slots: 3, ls: 1},
	{file: "sort.s", slots: 4, ls: 1},
	{file: "mandel.mc", slots: 1, ls: 2},
	{file: "mandel.mc", slots: 4, ls: 2},
	{file: "mandel.mc", slots: 8, ls: 2},
	{file: "matmul.mc", slots: 4, ls: 1},
}

const (
	radiosityVariants = 32 // recorded scenes; the seed picks one
	radiosityPatches  = 12
	radiositySweeps   = 2
	exRemoteJobs      = 3 // remote-mt variants per pass, alternating remoteShapes[1] and [5]; 13 jobs in all
)

var radiositySlots = []int{1, 4}

// exJob is one pipeline job. build produces the program, image its
// memory; verify, when set, checks the final memory against a reference
// computed in Go.
type exJob struct {
	key         string
	cfg         core.Config
	threads     int
	interpreted bool
	build       func(e *env) (*asm.Program, error)
	image       func(e *env, p *asm.Program) (*mem.Memory, error)
	verify      func(m *mem.Memory) error
}

type examples struct {
	radiosity int
	remote    []remoteSpec
	jobs      []exJob
	ledgerDir string
	ledgers   int
}

func newExamples(seed int64) *examples {
	rng := rand.New(rand.NewSource(seed))
	w := &examples{radiosity: rng.Intn(radiosityVariants)}
	for i := 0; i < exRemoteJobs; i++ {
		k := []int{1, 5}[i%2]
		w.remote = append(w.remote, remoteVariant(k, rng.Intn(remoteVariants)))
	}
	return w
}

func (w *examples) setup(e *env) error {
	sources := map[string]string{}
	for _, ex := range exPrograms {
		b, err := os.ReadFile(filepath.Join(e.root, "examples", "programs", ex.file))
		if err != nil {
			return err
		}
		sources[ex.file] = string(b)
	}
	w.ledgerDir = filepath.Join(e.root, ".bench_build", "ledgers")
	if err := os.MkdirAll(w.ledgerDir, 0o755); err != nil {
		return err
	}

	w.jobs = nil
	for _, ex := range exPrograms {
		src := sources[ex.file]
		isMinC := filepath.Ext(ex.file) == ".mc"
		slots := ex.slots
		j := exJob{
			key:         fmt.Sprintf("examples/%s/s=%d", ex.file, slots),
			cfg:         core.Config{ThreadSlots: slots, LoadStoreUnits: ex.ls, StandbyStations: true},
			interpreted: ex.interpreted,
			build: func(e *env) (*asm.Program, error) {
				if isMinC {
					s := e.tr.begin("minc.compile")
					defer e.tr.end(s)
					return minc.Compile(src)
				}
				return e.assemble(src)
			},
			image: func(e *env, p *asm.Program) (*mem.Memory, error) {
				m, err := e.image(p, 4096)
				if err == nil && isMinC {
					minc.SetThreads(p, m, slots)
				}
				return m, err
			},
		}
		w.jobs = append(w.jobs, j)
	}

	for _, slots := range radiositySlots {
		var rd *workload.Radiosity
		w.jobs = append(w.jobs, exJob{
			key: fmt.Sprintf("examples/radiosity/v=%d/s=%d", w.radiosity, slots),
			cfg: core.Config{ThreadSlots: slots, LoadStoreUnits: 2, StandbyStations: true},
			build: func(e *env) (*asm.Program, error) {
				s := e.tr.begin("workload.build")
				defer e.tr.end(s)
				var err error
				rd, err = workload.BuildRadiosity(workload.RadiosityConfig{
					Patches: radiosityPatches, Sweeps: radiositySweeps, Seed: int64(w.radiosity) + 1,
				})
				if err != nil {
					return nil, err
				}
				return rd.Prog, nil
			},
			image: func(e *env, _ *asm.Program) (*mem.Memory, error) {
				s := e.tr.begin("mem.image")
				defer e.tr.end(s)
				return rd.NewMemory(slots)
			},
			verify: func(m *mem.Memory) error {
				got, want := rd.Result(m), rd.Expected()
				for i := range want {
					if math.Abs(got[i]-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
						return fmt.Errorf("radiosity B[%d] = %g, Go reference %g", i, got[i], want[i])
					}
				}
				return nil
			},
		})
	}

	for i := range w.remote {
		sp := &w.remote[i]
		w.jobs = append(w.jobs, exJob{
			key:     sp.key,
			cfg:     sp.config(),
			threads: sp.shape.frames,
			build:   func(e *env) (*asm.Program, error) { return e.assemble(remoteKernel) },
			image:   sp.image,
		})
	}
	return nil
}

func (w *examples) pass(e *env) {
	for i := range w.jobs {
		j := &w.jobs[i]
		e.job(j.key, func() error { return w.run(e, j) })
	}
}

// run takes one job through every stage of the pipeline.
func (w *examples) run(e *env, j *exJob) error {
	p, err := j.build(e)
	if err != nil {
		return err
	}
	m, err := j.image(e, p)
	if err != nil {
		return err
	}
	pcs := make([]int64, max(j.threads, 1))

	s := e.tr.begin("lint.analyze")
	ds := lint.AnalyzeProgram(p, lint.Config{
		QueueDepth:  j.cfg.QueueDepth,
		ThreadSlots: j.cfg.ThreadSlots,
		InterThread: true,
		Deadlock:    true,
		MemWords:    m.Size(),
	})
	e.tr.end(s)
	e.c.lintFindings += uint64(len(ds))
	for _, d := range ds {
		switch d.Code {
		case "L015", "L016", "L017":
			return fmt.Errorf("static check refuses to run: %s", d)
		}
	}
	s = e.tr.begin("lint.bound")
	bound := hirata.StaticBounds(j.cfg, p.Text, pcs...)
	e.tr.end(s)

	var ref *mem.Memory
	if j.interpreted {
		if ref, err = j.image(e, p); err != nil {
			return err
		}
	}
	cfg := j.cfg
	cfg.MaxCycles = e.maxCycles(j.key)
	s = e.tr.begin("runledger.begin")
	pend := runledger.Begin(cfg, p.Text, m, pcs)
	e.tr.end(s)

	col := obs.NewCollector(cfg, obs.Options{})
	res, err := e.runCore(cfg, p.Text, m, pcs, col)
	if err != nil {
		return err
	}
	s = e.tr.begin("obs.finalize")
	col.Finalize(res)
	e.tr.end(s)
	s = e.tr.begin("obs.cpistack")
	st := col.CPIStack()
	var table bytes.Buffer
	err = st.WriteCPITable(&table)
	e.tr.end(s)
	if err != nil {
		return err
	}
	e.c.obsDropped += col.Dropped()

	if err := e.checkBound(bound, res.Cycles); err != nil {
		return err
	}

	if err := w.recordRun(e, pend, j.key, res, st, bound); err != nil {
		return err
	}

	got := outcome{Cycles: res.Cycles, Instr: res.Instructions, Mem: memDigest(m)}
	if ref != nil {
		s = e.tr.begin("exec.interp")
		ip := exec.NewInterp(p.Text, ref)
		err := ip.Run()
		e.tr.end(s)
		if err != nil {
			return fmt.Errorf("interpreter: %w", err)
		}
		if d := memDigest(ref); d != got.Mem || ip.Steps() != res.Instructions {
			return fmt.Errorf("interpreter ran %d instructions to memory %s; core ran %d to %s",
				ip.Steps(), d, res.Instructions, got.Mem)
		}
	}
	if j.verify != nil {
		if err := j.verify(m); err != nil {
			return err
		}
	}
	return e.check(j.key, got)
}

// recordRun appends the run, with its exact CPI stack and static bound,
// to a fresh ledger file, as `hirata-sim -record` does.
func (w *examples) recordRun(e *env, pend *runledger.Pending, tag string, res core.Result, st obs.CPIStack, b lint.Bounds) error {
	w.ledgers++
	path := filepath.Join(w.ledgerDir, fmt.Sprintf("run-%d.ledger", w.ledgers))
	s := e.tr.begin("runledger.append")
	rec := pend.Finish(res, tag)
	if st.Cycles == res.Cycles {
		names := make([]string, obs.NumCPIBuckets)
		for i := range names {
			names[i] = obs.CPIBucket(i).String()
		}
		rows := make([][]int64, len(st.Slots))
		for i, sl := range st.Slots {
			for _, c := range sl.Cycles {
				rows[i] = append(rows[i], int64(c))
			}
		}
		rec.SetExactCPI(names, rows)
	}
	rec.SetBounds(b.DepBound, b.ResourceBound, b.IssueBound, b.Bound, b.Unbounded)
	led, err := runledger.Open(path)
	if err == nil {
		_, _, err = led.Append(rec)
	}
	e.tr.end(s)
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	e.c.ledgerBytes += fi.Size()
	return os.Remove(path)
}
