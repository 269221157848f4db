package lint_test

import (
	"testing"

	"vc2m/internal/lint"
	"vc2m/internal/lintkit/linttest"
)

// TestNilSafeGolden drives the interface-registry path: fixture types
// implementing the real provenance.Sink.
func TestNilSafeGolden(t *testing.T) {
	linttest.RunGolden(t, "testdata/src/nilsafe", lint.NilSafe)
}

// TestNilSafeConcreteHookGolden drives the concrete-type registry path
// (the one that covers metrics.Recorder, obs.Span and obs.Logger on the
// real tree) against a fixture registry mirroring those hook shapes.
func TestNilSafeConcreteHookGolden(t *testing.T) {
	analyzer := lint.NewNilSafe([]lint.HookSpec{
		{Pkg: "vc2m/internal/lint/testdata/src/nilsafehooks", Type: "Recorder"},
		{Pkg: "vc2m/internal/lint/testdata/src/nilsafehooks", Type: "Span"},
		{Pkg: "vc2m/internal/lint/testdata/src/nilsafehooks", Type: "Logger"},
	})
	linttest.RunGolden(t, "testdata/src/nilsafehooks", analyzer)
}
