// Package buildinfo surfaces the binary's own build identity — VCS
// revision, dirty flag and Go toolchain version from
// debug.ReadBuildInfo — so every exposition path (hirata_build_info on
// /metrics and /hostmetrics, the -version flag of the CLIs, and each
// run-ledger record) reports the same provenance for a measurement.
package buildinfo

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// Info is the build identity of the running binary.
type Info struct {
	Revision  string `json:"revision"`   // VCS revision, "unknown" when unstamped
	Dirty     bool   `json:"dirty"`      // working tree had uncommitted changes
	GoVersion string `json:"go_version"` // toolchain that built the binary
	Main      string `json:"main"`       // main module path ("" outside module builds)
}

var (
	once   sync.Once
	cached Info
	// testOverride pins the info for byte-stable goldens (SetForTest).
	testOverride *Info
	testMu       sync.RWMutex
)

// Get returns the build identity, reading debug.ReadBuildInfo once. Values
// degrade gracefully: binaries built without VCS stamping (go run from a
// non-repo directory, stripped builds) report revision "unknown".
func Get() Info {
	testMu.RLock()
	if testOverride != nil {
		defer testMu.RUnlock()
		return *testOverride
	}
	testMu.RUnlock()
	once.Do(func() {
		cached = Info{Revision: "unknown"}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		cached.GoVersion = bi.GoVersion
		cached.Main = bi.Main.Path
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				cached.Revision = s.Value
			case "vcs.modified":
				cached.Dirty = s.Value == "true"
			}
		}
	})
	return cached
}

// String renders the identity for -version output: "rev abc1234 (go1.22.0)"
// with a "+dirty" suffix when the tree was modified.
func (i Info) String() string {
	rev := i.Revision
	if len(rev) > 12 {
		rev = rev[:12]
	}
	dirty := ""
	if i.Dirty {
		dirty = "+dirty"
	}
	return fmt.Sprintf("rev %s%s (%s)", rev, dirty, i.GoVersion)
}

// ShortRevision returns the revision truncated to 12 characters, the form
// run-ledger records and the hirata_build_info metric carry.
func (i Info) ShortRevision() string {
	if len(i.Revision) > 12 {
		return i.Revision[:12]
	}
	return i.Revision
}

// SetForTest pins Get to a fixed identity so goldens containing
// hirata_build_info stay byte-stable across toolchains and checkouts.
// Passing nil restores the real identity.
func SetForTest(i *Info) {
	testMu.Lock()
	testOverride = i
	testMu.Unlock()
}
