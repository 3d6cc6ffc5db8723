package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden")

// goldenSizes shrink the workloads so that every golden run takes a
// fraction of a second.
var goldenSizes = []string{"-rays", "16", "-spheres", "4", "-n", "24", "-nodes", "24"}

// TestOutputGolden pins hirata-bench's stdout for the default run, -json,
// -curve and -explore at small workload sizes, each at one and at four
// sweep workers: every runner must assemble its cells in cell order, so
// the worker count cannot change a byte. After an intentional change of
// the output,
//
//	go test ./cmd/hirata-bench -run TestOutputGolden -update
//
// rewrites the files; review the diff.
func TestOutputGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"default", nil},
		{"json", []string{"-json"}},
		{"curve", []string{"-curve"}},
		{"explore", []string{"-explore"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", tc.name+".golden")
			for _, parallel := range []string{"1", "4"} {
				args := append(append([]string{"-parallel", parallel}, goldenSizes...), tc.args...)
				stdout, stderr, code := bench(t, args...)
				if code != 0 || stderr != "" {
					t.Fatalf("-parallel %s: exit %d, stderr %q", parallel, code, stderr)
				}
				if *update && parallel == "1" {
					if err := os.WriteFile(path, []byte(stdout), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (record it with -update)", err)
				}
				if stdout != string(want) {
					t.Errorf("-parallel %s: output differs from %s:\n%s", parallel, path, stdout)
				}
			}
		})
	}
}
