package mpc

import "testing"

// BenchmarkChargeLoads measures one round charged from its loads, shaped
// like a direct round of the matching simulation on 2¹³ vertices:
// ⌈√n⌉+1 = 92 machines each send one share to the next machine of a
// ring.
func BenchmarkChargeLoads(b *testing.B) {
	const machines = 92
	const words = 2 * 40000 // one word each way per active edge
	c, err := NewCluster(Config{Machines: machines})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, in := c.Loads()
		for j := 0; j < machines; j++ {
			w := int64(words / machines)
			if j < words%machines {
				w++
			}
			out[j] = w
			in[(j+1)%machines] = w
		}
		if err := c.ChargeLoads(out, in); err != nil {
			b.Fatal(err)
		}
	}
}
