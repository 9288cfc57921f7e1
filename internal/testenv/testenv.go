// Package testenv answers what a test needs to know about how its binary
// was built. Tests import it; nothing else does.
package testenv

import "runtime/debug"

// Race reports whether the binary was built with -race. Allocation guards
// skip under it: the detector allocates on its own account, and sync.Pool
// drops a quarter of its Puts, so a count pinned without it does not hold.
func Race() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
