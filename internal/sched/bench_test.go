package sched

import (
	"testing"
	"time"

	"etrain/internal/profile"
	"etrain/internal/workload"
)

// benchSink keeps the benchmarked sums live.
var benchSink float64

// BenchmarkQueuesSlot measures the queue work of one eTrain slot over a
// 3-app, 40-packet backlog: the Len emptiness check, P(t) (Eq. 6) and the
// per-app speculative costs P̄_i(t) the Eq. 9 greedy fixes for the slot.
func BenchmarkQueuesSlot(b *testing.B) {
	profiles := []profile.Profile{
		profile.Mail(3 * time.Minute),
		profile.Weibo(90 * time.Second),
		profile.Cloud(5 * time.Minute),
	}
	apps := []string{"mail", "weibo", "cloud"}
	q := NewQueues()
	for j := 0; j < 40; j++ {
		q.Add(workload.Packet{
			ID: j, App: apps[j%len(apps)], ArrivedAt: time.Duration(j) * 5 * time.Second,
			Size: 2048, Profile: profiles[j%len(profiles)],
		})
	}
	now := 240 * time.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if q.Len() == 0 {
			b.Fatal("empty queues")
		}
		sum := q.CostAt(now)
		for a := 0; a < q.NumApps(); a++ {
			for _, p := range q.AppView(a) {
				sum += p.Cost(now + time.Second)
			}
		}
		benchSink = sum
	}
}
