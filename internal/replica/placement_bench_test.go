package replica

import (
	"testing"

	"repro/internal/protocol"
)

// BenchmarkPlacement guards the hot-path cost of placement, the cluster
// default: the FNV hash of the logical name is computed inline, with no
// hasher and no allocation.
func BenchmarkPlacement(b *testing.B) {
	sites := []protocol.SiteID{"s0", "s1", "s2", "s3", "s4"}
	place := Placement(sites)
	items := make([]string, 0, 64*3)
	for i := 0; i < 64; i++ {
		for r := 0; r < 3; r++ {
			items = append(items, Name("acct"+string(rune('a'+i%26))+string(rune('a'+i/26)), r))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		place(items[i%len(items)])
	}
}
