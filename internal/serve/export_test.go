package serve

import (
	"testing"

	"hydra/internal/pipeline"
)

// FixtureBundle hands the shared fixture's bundle to the external test
// package: the front-end parity table needs the router, which imports
// this package.
func FixtureBundle(t *testing.T) *pipeline.Bundle { return getEnv(t).bundle }
