// Package buildinfo identifies the running binary — VCS revision and
// Go toolchain — so -version, health probes and /metrics can
// attribute what they report to a build. It reads what the Go linker already
// embeds (runtime/debug.ReadBuildInfo), so no ldflags plumbing is
// needed; a binary built outside a git checkout reports "unknown".
package buildinfo

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// Info describes the running binary.
type Info struct {
	// Revision is the VCS commit hash the binary was built from, or
	// "unknown" when the build had no VCS metadata (e.g. go test
	// binaries, builds from an exported tarball).
	Revision string `json:"revision"`
	// Modified reports uncommitted changes in the build's working tree.
	Modified bool `json:"modified,omitempty"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
}

// Get reads the binary's embedded build metadata.
func Get() Info {
	info := Info{Revision: "unknown", GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			if s.Value != "" {
				info.Revision = s.Value
			}
		case "vcs.modified":
			info.Modified = s.Value == "true"
		}
	}
	return info
}

// String is the compact single-token form used in headers and -version
// output: "<rev12>[-dirty]/<goversion>".
func (i Info) String() string {
	rev := i.Revision
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if i.Modified {
		rev += "-dirty"
	}
	return fmt.Sprintf("%s/%s", rev, i.GoVersion)
}
