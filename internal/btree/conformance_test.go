package btree

import (
	"testing"

	"ptsbench/internal/kvtest"
	"ptsbench/internal/sim"
)

// TestEngineConformance runs the shared engine-conformance suite (see
// internal/kvtest) over the B+Tree: the same put/get/scan/recovery
// contract the LSM and Bε-tree are held to.
func TestEngineConformance(t *testing.T) {
	kvtest.Run(t, conformanceStack)
}

// TestMixedKeyLengths runs the mixed-key-length model check (see
// kvtest.RunMixedKeys): keys that are not KeySize bytes long take the
// byte-compare fallback of the inline-word key path, and nil and empty
// content values must stay distinct.
func TestMixedKeyLengths(t *testing.T) {
	kvtest.RunMixedKeys(t, conformanceStack)
}

// conformanceStack opens a small-page tree for the shared suites.
func conformanceStack(t *testing.T, content bool) *kvtest.Stack {
	tr, dev, fs := testEnv(t, 32, content, func(c *Config) {
		c.LeafPageBytes = 2 << 10 // small pages: splits participate
		c.JournalSync = true
	})
	return &kvtest.Stack{
		Engine: tr,
		Dev:    dev,
		Reopen: func(now sim.Duration) (kvtest.Engine, sim.Duration, error) {
			re, rnow, err := Recover(fs, tr.cfg, now)
			if err != nil {
				return nil, rnow, err
			}
			return re, rnow, nil
		},
	}
}
