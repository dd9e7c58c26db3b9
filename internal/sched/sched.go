// Package sched defines the scheduling substrate shared by eTrain and the
// baseline strategies: per-app waiting queues (the Q_i of the paper), the
// slot context a strategy observes, and the Strategy interface the
// simulation engine drives.
package sched

import (
	"fmt"
	"time"

	"etrain/internal/heartbeat"
	"etrain/internal/workload"
)

// Queues is the set of per-cargo-app waiting queues Q_i. Apps are kept in
// a slice in registration order, so iteration is deterministic and per-slot
// loops address an app by its position instead of hashing its name. A
// device carries a handful of apps, so name lookups are linear scans.
type Queues struct {
	apps []appQueue
	n    int // total queued packets, kept current by every mutation
}

// appQueue is one app's queue, packets in arrival order.
type appQueue struct {
	name string
	pkts []workload.Packet
}

// NewQueues returns an empty queue set.
func NewQueues() *Queues { return &Queues{} }

// index returns app's position in registration order, or -1.
func (q *Queues) index(app string) int {
	for i := range q.apps {
		if q.apps[i].name == app {
			return i
		}
	}
	return -1
}

// Add enqueues a packet into its app's queue, registering the app on first
// use. Packets must be added in arrival order per app.
//
//etrain:hotpath
func (q *Queues) Add(p workload.Packet) {
	i := q.index(p.App)
	if i < 0 {
		i = len(q.apps)
		q.apps = append(q.apps, appQueue{name: p.App})
	}
	q.apps[i].pkts = append(q.apps[i].pkts, p)
	q.n++
}

// Apps returns the registered app names in registration order.
func (q *Queues) Apps() []string {
	out := make([]string, len(q.apps))
	for i := range q.apps {
		out[i] = q.apps[i].name
	}
	return out
}

// Len returns the total number of queued packets.
func (q *Queues) Len() int { return q.n }

// NumApps returns the number of registered apps. Positions 0..NumApps()-1
// address them in registration order; a position stays valid for the
// queue set's lifetime, because apps are never unregistered.
func (q *Queues) NumApps() int { return len(q.apps) }

// AppName returns the name of the app at position i.
func (q *Queues) AppName(i int) string { return q.apps[i].name }

// AppView returns the queue of the app at position i in arrival order
// without copying. Like View, it is read-only and valid only until the
// next mutation of the queue set.
func (q *Queues) AppView(i int) []workload.Packet { return q.apps[i].pkts }

// AppLen returns the number of packets queued for app.
func (q *Queues) AppLen(app string) int { return len(q.View(app)) }

// Packets returns a copy of app's queue in arrival order.
func (q *Queues) Packets(app string) []workload.Packet {
	src := q.View(app)
	out := make([]workload.Packet, len(src))
	copy(out, src)
	return out
}

// View returns app's queue in arrival order without copying. The returned
// slice is read-only and valid only until the next mutation of the queue
// set — it is the allocation-free variant of Packets.
func (q *Queues) View(app string) []workload.Packet {
	if i := q.index(app); i >= 0 {
		return q.apps[i].pkts
	}
	return nil
}

// Each calls fn for every queued packet in deterministic order (apps in
// registration order, packets in arrival order).
func (q *Queues) Each(fn func(p workload.Packet)) {
	for i := range q.apps {
		for _, p := range q.apps[i].pkts {
			fn(p)
		}
	}
}

// RemoveAt removes and returns packet j of the app at position i.
// Removal compacts the queue in place, reusing its backing array —
// Packets hands out copies, so no caller observes the shift.
//
//etrain:hotpath
func (q *Queues) RemoveAt(i, j int) workload.Packet {
	pkts := q.apps[i].pkts
	p := pkts[j]
	copy(pkts[j:], pkts[j+1:])
	pkts[len(pkts)-1] = workload.Packet{}
	q.apps[i].pkts = pkts[:len(pkts)-1]
	q.n--
	return p
}

// PopByID removes and returns the packet with the given ID from app's
// queue. ok is false if no such packet is queued.
//
//etrain:hotpath
func (q *Queues) PopByID(app string, id int) (workload.Packet, bool) {
	i := q.index(app)
	if i < 0 {
		return workload.Packet{}, false
	}
	for j, p := range q.apps[i].pkts {
		if p.ID == id {
			return q.RemoveAt(i, j), true
		}
	}
	return workload.Packet{}, false
}

// PopHead removes and returns the head-of-line packet of app.
//
//etrain:hotpath
func (q *Queues) PopHead(app string) (workload.Packet, bool) {
	i := q.index(app)
	if i < 0 || len(q.apps[i].pkts) == 0 {
		return workload.Packet{}, false
	}
	return q.RemoveAt(i, 0), true
}

// CostAt returns P(t): the summed delay cost of every queued packet at
// instant now (paper Eq. 6).
func (q *Queues) CostAt(now time.Duration) float64 {
	total := 0.0
	for i := range q.apps {
		for _, p := range q.apps[i].pkts {
			total += p.Cost(now)
		}
	}
	return total
}

// AppCostAt returns P_i(t) for one app. Evaluated at the next slot's start
// it is P̄_i(t), the speculative cost of the paper's drift objective.
func (q *Queues) AppCostAt(app string, now time.Duration) float64 {
	total := 0.0
	for _, p := range q.View(app) {
		total += p.Cost(now)
	}
	return total
}

// OldestAt returns the position (app i, packet j) of the earliest-arrived
// packet across all queues; ties go to the first in iteration order.
func (q *Queues) OldestAt() (i, j int, ok bool) {
	var oldest time.Duration
	for a := range q.apps {
		for b, p := range q.apps[a].pkts {
			if !ok || p.ArrivedAt < oldest {
				i, j, ok = a, b, true
				oldest = p.ArrivedAt
			}
		}
	}
	return i, j, ok
}

// PopOldest removes and returns the earliest-arrived packet across all
// queues.
//
//etrain:hotpath
func (q *Queues) PopOldest() (workload.Packet, bool) {
	i, j, ok := q.OldestAt()
	if !ok {
		return workload.Packet{}, false
	}
	return q.RemoveAt(i, j), true
}

// SlotContext is everything a strategy may observe when deciding slot t.
type SlotContext struct {
	// Now is the slot's start instant.
	Now time.Duration
	// SlotLength is the strategy's decision period.
	SlotLength time.Duration
	// HeartbeatNow reports whether at least one train departs this slot
	// (t = t_s(h) for some h ∈ H).
	HeartbeatNow bool
	// Beats lists the train departures of this slot (the observations the
	// heartbeat monitor would deliver); empty when HeartbeatNow is false.
	Beats []heartbeat.Beat
	// Queues is the live waiting-queue set; strategies remove the packets
	// they select.
	Queues *Queues
	// EstimateBandwidth returns the strategy-visible channel estimate in
	// bytes/second. It is nil for channel-oblivious operation; eTrain
	// never calls it, PerES and eTime depend on it.
	EstimateBandwidth func() float64
	// MeanBandwidth is the long-run average bandwidth in bytes/second,
	// which channel-aware strategies use as their quality reference.
	MeanBandwidth float64
}

// Strategy decides, slot by slot, which queued packets to hand to the radio.
type Strategy interface {
	// Name identifies the strategy in results and traces.
	Name() string
	// SlotLength returns the decision period (1 s for eTrain and PerES,
	// 60 s for eTime).
	SlotLength() time.Duration
	// Schedule removes from ctx.Queues the packets to transmit this slot
	// and returns them in transmission order (the Q*(t) of the paper).
	Schedule(ctx *SlotContext) []workload.Packet
}

// ValidateSelection verifies a strategy's bookkeeping in tests: every
// returned packet must be distinct.
func ValidateSelection(selected []workload.Packet) error {
	seen := make(map[int]bool, len(selected))
	for _, p := range selected {
		if seen[p.ID] {
			return fmt.Errorf("sched: packet %d selected twice", p.ID)
		}
		seen[p.ID] = true
	}
	return nil
}
