// Package profutil wires the standard -cpuprofile/-memprofile flags into
// the long-running commands (vc2m-paper, vc2m-sim). It exists
// so each main wires profiling in two lines instead of repeating the
// runtime/pprof boilerplate.
package profutil

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling to cpuPath (when non-empty) and returns a
// stop function that ends the CPU profile and writes a heap profile to
// memPath (when non-empty). Call stop exactly once, on the command's
// success path — profiles are analysis artifacts, not crash dumps, so
// error exits may skip it.
//
// Either path may be empty to disable that profile; with both empty the
// returned stop is a no-op.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profutil: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			_ = cpuFile.Close()
			return nil, fmt.Errorf("profutil: start cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("profutil: close cpu profile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("profutil: %w", err)
			}
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				_ = f.Close()
				return fmt.Errorf("profutil: write heap profile: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("profutil: close heap profile: %w", err)
			}
		}
		return nil
	}, nil
}
