package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// recordAll runs every job of every workload pool once and writes the
// outcomes to expectedFile. A job recorded twice (the examples workload
// reuses remote-mt variants and runs the shipped programs once per
// radiosity scene) must give the same outcome both times.
func recordAll(root string) error {
	e := &env{root: root, tr: newTracer(false), record: expectations{}}
	run := func(w bench) error {
		if err := w.setup(e); err != nil {
			return err
		}
		e.c = counts{}
		w.pass(e)
		if e.c.failed > 0 {
			return fmt.Errorf("%d jobs failed: %v", e.c.failed, e.errs)
		}
		return nil
	}
	for scene := 0; scene < table2Scenes; scene++ {
		if err := run(&table2{scene: scene}); err != nil {
			return err
		}
	}
	all := &remoteMT{}
	for range remoteShapes {
		var vs []int
		for v := 0; v < remoteVariants; v++ {
			vs = append(vs, v)
		}
		all.pick = append(all.pick, vs)
	}
	if err := run(all); err != nil {
		return err
	}
	for v := 0; v < radiosityVariants; v++ {
		ex := newExamples(int64(v))
		ex.radiosity = v
		if err := run(ex); err != nil {
			return err
		}
	}
	return writeExpectations(filepath.Join(root, expectedFile), e.record)
}

// writeExpectations writes one job per line, sorted by key, so a
// re-recording diffs line by line.
func writeExpectations(path string, exp expectations) error {
	keys := make([]string, 0, len(exp))
	for k := range exp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, `{"jobs": {`)
	for i, k := range keys {
		kb, _ := json.Marshal(k) // strings always marshal
		vb, _ := json.Marshal(exp[k])
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(bw, "%s: %s%s\n", kb, vb, sep)
	}
	fmt.Fprintln(bw, "}}")
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
