package main

import (
	"fmt"
	"math/rand"

	"hirata"
	"hirata/internal/asm"
	"hirata/internal/core"
	"hirata/internal/lint"
	"hirata/internal/mem"
)

// The remote-mt workload is §2.1.3 concurrent multithreading: 1–2 thread
// slots, more context frames than slots, one thread per frame walking a
// seeded chain of remote loads. Most simulated cycles have no running
// slot, so the event horizon jumps them; jobs are short, so per-job
// core.New and memory-image costs show.

// remoteKernel walks this thread's chain: lens[tid] dependent remote
// loads from heads[tid], with work[tid] ALU steps after each, and stores
// a checksum of the visited addresses to sums[tid].
const remoteKernel = `
	.data
	.org 8
heads:	.space 8
lens:	.space 8
work:	.space 8
sums:	.space 8
	.text
	tid  r1
	la   r2, heads
	add  r2, r2, r1
	lw   r3, 0(r2)
	la   r2, lens
	add  r2, r2, r1
	lw   r4, 0(r2)
	la   r2, work
	add  r2, r2, r1
	lw   r7, 0(r2)
	li   r5, 0
link:	lw   r3, 0(r3)
	add  r5, r5, r3
	mov  r6, r7
spin:	slli r8, r5, 1
	xor  r5, r5, r8
	addi r6, r6, -1
	bnez r6, spin
	addi r4, r4, -1
	bnez r4, link
	la   r2, sums
	add  r2, r2, r1
	sw   r5, 0(r2)
	halt
`

const (
	remoteBase     = 256 // first remote word; the kernel's data fits below
	remoteBlock    = 16  // remote words per thread's chain
	remoteVariants = 96  // recorded variants per shape
	remotePerShape = 32  // variants per shape in one pass
)

type remoteShape struct{ slots, frames int }

var remoteShapes = []remoteShape{{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {2, 6}}

// remoteSpec is one remote-mt job: a machine shape and a seeded memory
// image, one thread per context frame.
type remoteSpec struct {
	key     string
	shape   remoteShape
	latency int
	heads   []int64
	lens    []int64
	work    []int64
	chains  []int64 // remote words, from remoteBase
}

// remoteVariant derives variant v of shape k; the same (k, v) always
// gives the same job.
func remoteVariant(k, v int) remoteSpec {
	sh := remoteShapes[k]
	rng := rand.New(rand.NewSource(int64(k)*1_000_003 + int64(v) + 1))
	sp := remoteSpec{
		key:     fmt.Sprintf("remote-mt/k=%d/v=%d", k, v),
		shape:   sh,
		latency: 100 + rng.Intn(201),
		chains:  make([]int64, sh.frames*remoteBlock),
	}
	for t := 0; t < sh.frames; t++ {
		base := int64(remoteBase + t*remoteBlock)
		perm := rng.Perm(remoteBlock)
		for i, at := range perm {
			sp.chains[t*remoteBlock+at] = base + int64(perm[(i+1)%remoteBlock])
		}
		sp.heads = append(sp.heads, base+int64(perm[0]))
		sp.lens = append(sp.lens, 4+int64(rng.Intn(9)))
		sp.work = append(sp.work, 1+int64(rng.Intn(2)))
	}
	return sp
}

func (sp *remoteSpec) config() core.Config {
	return core.Config{ThreadSlots: sp.shape.slots, ContextFrames: sp.shape.frames, StandbyStations: true}
}

func (sp *remoteSpec) pcs() []int64 { return make([]int64, sp.shape.frames) }

// image builds the job's memory: the kernel's data, the per-thread
// parameters and the remote chains.
func (sp *remoteSpec) image(e *env, p *asm.Program) (*mem.Memory, error) {
	s := e.tr.begin("mem.image")
	defer e.tr.end(s)
	m := mem.NewMemoryWithRemote(remoteBase+len(sp.chains), remoteBase, sp.latency)
	if err := p.InitMemory(m); err != nil {
		return nil, err
	}
	heads, lens, work := p.MustSymbol("heads"), p.MustSymbol("lens"), p.MustSymbol("work")
	for t := range sp.heads {
		m.SetInt(heads+int64(t), sp.heads[t])
		m.SetInt(lens+int64(t), sp.lens[t])
		m.SetInt(work+int64(t), sp.work[t])
	}
	for i, v := range sp.chains {
		m.SetInt(remoteBase+int64(i), v)
	}
	return m, nil
}

type remoteMT struct {
	pick   [][]int // per shape, the variants one pass runs
	prog   *asm.Program
	bounds map[remoteShape]lint.Bounds
	jobs   []remoteSpec
}

func newRemoteMT(seed int64) *remoteMT {
	rng := rand.New(rand.NewSource(seed))
	w := &remoteMT{}
	for range remoteShapes {
		w.pick = append(w.pick, rng.Perm(remoteVariants)[:remotePerShape])
	}
	return w
}

func (w *remoteMT) setup(e *env) error {
	p, err := e.assemble(remoteKernel)
	if err != nil {
		return err
	}
	w.prog = p
	s := e.tr.begin("lint.analyze")
	ds := lint.AnalyzeProgram(p, lint.Config{InterThread: true, ThreadSlots: 2, MemWords: remoteBase})
	e.tr.end(s)
	if err := lintClean(ds); err != nil {
		return err
	}
	w.bounds = map[remoteShape]lint.Bounds{}
	s = e.tr.begin("lint.bound")
	for _, sh := range remoteShapes {
		sp := remoteSpec{shape: sh}
		w.bounds[sh] = hirata.StaticBounds(sp.config(), p.Text, sp.pcs()...)
	}
	e.tr.end(s)

	s = e.tr.begin("workload.build")
	for k, vs := range w.pick {
		for _, v := range vs {
			w.jobs = append(w.jobs, remoteVariant(k, v))
		}
	}
	e.tr.end(s)
	return nil
}

func (w *remoteMT) pass(e *env) {
	for i := range w.jobs {
		sp := &w.jobs[i]
		e.job(sp.key, func() error {
			m, err := sp.image(e, w.prog)
			if err != nil {
				return err
			}
			cfg := sp.config()
			cfg.MaxCycles = e.maxCycles(sp.key)
			res, err := e.runCore(cfg, w.prog.Text, m, sp.pcs(), nil)
			if err != nil {
				return err
			}
			if err := e.checkBound(w.bounds[sp.shape], res.Cycles); err != nil {
				return err
			}
			return e.check(sp.key, outcome{Cycles: res.Cycles, Instr: res.Instructions, Mem: memDigest(m)})
		})
	}
}
