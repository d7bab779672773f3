package netsim_test

import (
	"testing"

	"repro/internal/ispnet"
	"repro/internal/netsim"
)

// TestArenaPathsMatchGreedyWalk checks every router pair of the small and
// paper worlds, in both directions: the arena path equals the greedy walk
// from the lower ID, read backwards from the higher one.
func TestArenaPathsMatchGreedyWalk(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ispnet.Config
	}{
		{"small", ispnet.SmallConfig()},
		{"paper-2018", ispnet.DefaultConfig()},
	} {
		n := ispnet.NewWorld(tc.cfg).Net
		rs := n.Routers()
		connected := 0
		for a := range rs {
			for b := a + 1; b < len(rs); b++ {
				ref := n.ReferencePath(a, b)
				fwd, rev := n.PathRouters(rs[a], rs[b]), n.PathRouters(rs[b], rs[a])
				if ref == nil {
					if fwd != nil || rev != nil {
						t.Fatalf("%s: %s-%s disconnected, got paths %d/%d", tc.name, rs[a].Name, rs[b].Name, len(fwd), len(rev))
					}
					continue
				}
				connected++
				if !samePath(fwd, ref, false) || !samePath(rev, ref, true) {
					t.Fatalf("%s: %s-%s: arena %v / %v, greedy walk %v", tc.name, rs[a].Name, rs[b].Name, ids(fwd), ids(rev), ref)
				}
			}
		}
		if connected == 0 {
			t.Fatalf("%s: no connected pairs", tc.name)
		}
	}
}

// samePath compares a router path with reference IDs, read backwards when
// reversed.
func samePath(path []*netsim.Router, ref []int32, reversed bool) bool {
	if len(path) != len(ref) {
		return false
	}
	for i, r := range path {
		j := i
		if reversed {
			j = len(ref) - 1 - i
		}
		if int32(r.ID) != ref[j] {
			return false
		}
	}
	return true
}

func ids(path []*netsim.Router) []int {
	out := make([]int, len(path))
	for i, r := range path {
		out[i] = r.ID
	}
	return out
}
