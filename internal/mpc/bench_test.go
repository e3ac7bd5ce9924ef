package mpc

import (
	"fmt"
	"testing"

	"mpcgraph/internal/rng"
)

// BenchmarkExchange measures one synchronous MPC round: every machine
// sends a message to a pseudo-random subset of peers, exercising the
// validate/tally, cursor, and delivery passes of the round body.
func BenchmarkExchange(b *testing.B) {
	const machines = 256
	const fanout = 64
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c, err := NewCluster(Config{Machines: machines, Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			out := make([][]Message, machines)
			for i := range out {
				for k := 0; k < fanout; k++ {
					to := int(rng.Hash(uint64(i), uint64(k)) % machines)
					if to == i {
						to = (to + 1) % machines
					}
					out[i] = append(out[i], Message{To: to, Words: 3})
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Exchange(out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChargeLoads measures one round charged from its loads, shaped
// like a direct round of the matching simulation on 2¹³ vertices:
// ⌈√n⌉+1 = 92 machines each send one share to the next machine of a
// ring.
func BenchmarkChargeLoads(b *testing.B) {
	const machines = 92
	const words = 2 * 40000 // one word each way per active edge
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c, err := NewCluster(Config{Machines: machines, Workers: workers})
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
		})
	}
}
