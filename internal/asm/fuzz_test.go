package asm

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hirata/internal/mem"
)

// oversizedSources place data far past mem.MaxWords: a huge .space, and an
// .org near 2^63 whose next .word would wrap the location counter negative.
var oversizedSources = []string{
	"\t.data\n\t.space 9000000000000000\n",
	"\t.org 9223372036854775807\n\t.word 1\n",
}

// TestOversizedDataIsAnError: data that would lie past mem.MaxWords is a
// positioned assembler error, and Program.NewMemory refuses a negative
// headroom or an oversized total before allocating anything.
func TestOversizedDataIsAnError(t *testing.T) {
	limit := strconv.Itoa(mem.MaxWords)
	for _, src := range append(oversizedSources,
		"\t.org "+limit+"\n\t.word 1\n",
		"\t.org "+strconv.Itoa(mem.MaxWords+1)+"\n",
		"\t.org 4\n\t.space "+limit+"\n",
	) {
		p, err := Assemble(src)
		if err == nil || p != nil {
			t.Errorf("%q: got program %v, error %v; want only an error", src, p != nil, err)
			continue
		}
		if !strings.Contains(err.Error(), "line ") || !strings.Contains(err.Error(), limit) {
			t.Errorf("%q: error %q does not give the line and the limit", src, err)
		}
	}

	// The last word below the limit still assembles.
	p, err := Assemble("\t.org " + strconv.Itoa(mem.MaxWords-1) + "\n\t.word 7\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, headroom := range []int64{-1, 1, 9000000000000000} {
		if m, err := p.NewMemory(headroom); err == nil || m != nil {
			t.Errorf("NewMemory(%d) on a %d-word image: got memory %v, error %v; want only an error",
				headroom, p.DataEnd, m != nil, err)
		}
	}
}

// FuzzAssemble: any source text yields either a program or an error, never
// both, and never a panic. The seeds are the shipped example programs and
// the oversized-data sources.
func FuzzAssemble(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.s"))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no example programs to seed from")
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, src := range oversizedSources {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if (p == nil) == (err == nil) {
			t.Errorf("Assemble returned program %v and error %v; want exactly one", p != nil, err)
		}
	})
}
