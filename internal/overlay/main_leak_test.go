package overlay

import (
	"testing"

	"dlpt/internal/leakcheck"
)

// TestMain fails the binary if a sweeper, a hop still being served or
// an originator outlives the tests: Halt must release every one.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
