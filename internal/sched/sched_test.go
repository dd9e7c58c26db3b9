package sched

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"etrain/internal/profile"
	"etrain/internal/workload"
)

func pkt(id int, app string, arrived time.Duration) workload.Packet {
	return workload.Packet{
		ID:        id,
		App:       app,
		ArrivedAt: arrived,
		Size:      1000,
		Profile:   profile.Weibo(30 * time.Second),
	}
}

func TestAddAndLen(t *testing.T) {
	q := NewQueues()
	q.Add(pkt(1, "a", 0))
	q.Add(pkt(2, "b", time.Second))
	q.Add(pkt(3, "a", 2*time.Second))
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	if q.AppLen("a") != 2 || q.AppLen("b") != 1 {
		t.Fatalf("AppLen a=%d b=%d", q.AppLen("a"), q.AppLen("b"))
	}
}

func TestAppsRegistrationOrder(t *testing.T) {
	q := NewQueues()
	q.Add(pkt(1, "zeta", 0))
	q.Add(pkt(2, "alpha", 0))
	q.Add(pkt(3, "zeta", 0))
	apps := q.Apps()
	if len(apps) != 2 || apps[0] != "zeta" || apps[1] != "alpha" {
		t.Fatalf("Apps = %v, want [zeta alpha] (registration order)", apps)
	}
}

func TestEachDeterministicOrder(t *testing.T) {
	q := NewQueues()
	q.Add(pkt(1, "b", 0))
	q.Add(pkt(2, "a", 0))
	q.Add(pkt(3, "b", time.Second))
	var ids []int
	q.Each(func(p workload.Packet) { ids = append(ids, p.ID) })
	want := []int{1, 3, 2}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("Each order = %v, want %v", ids, want)
		}
	}
}

func TestPopByID(t *testing.T) {
	q := NewQueues()
	q.Add(pkt(1, "a", 0))
	q.Add(pkt(2, "a", time.Second))
	q.Add(pkt(3, "a", 2*time.Second))
	p, ok := q.PopByID("a", 2)
	if !ok || p.ID != 2 {
		t.Fatalf("PopByID = %+v ok=%v", p, ok)
	}
	if q.AppLen("a") != 2 {
		t.Fatalf("AppLen after pop = %d", q.AppLen("a"))
	}
	if _, ok := q.PopByID("a", 2); ok {
		t.Fatal("popped packet 2 twice")
	}
	if _, ok := q.PopByID("missing", 1); ok {
		t.Fatal("popped from unknown app")
	}
	// Remaining order preserved.
	pkts := q.Packets("a")
	if pkts[0].ID != 1 || pkts[1].ID != 3 {
		t.Fatalf("remaining order = %v, %v", pkts[0].ID, pkts[1].ID)
	}
}

func TestPopHead(t *testing.T) {
	q := NewQueues()
	if _, ok := q.PopHead("a"); ok {
		t.Fatal("popped from empty queue")
	}
	q.Add(pkt(1, "a", 0))
	q.Add(pkt(2, "a", time.Second))
	p, ok := q.PopHead("a")
	if !ok || p.ID != 1 {
		t.Fatalf("PopHead = %+v", p)
	}
}

func TestPacketsReturnsCopy(t *testing.T) {
	q := NewQueues()
	q.Add(pkt(1, "a", 0))
	pkts := q.Packets("a")
	pkts[0].ID = 999
	if q.Packets("a")[0].ID == 999 {
		t.Fatal("Packets leaked internal state")
	}
}

func TestCostAt(t *testing.T) {
	q := NewQueues()
	// Weibo profile: cost = d/30s up to 1.
	q.Add(pkt(1, "a", 0))
	q.Add(pkt(2, "b", 0))
	got := q.CostAt(15 * time.Second)
	if math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("CostAt = %v, want 1.0 (2 × 0.5)", got)
	}
	if got := q.AppCostAt("a", 15*time.Second); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("AppCostAt = %v, want 0.5", got)
	}
}

func TestSpeculativeCost(t *testing.T) {
	q := NewQueues()
	q.Add(pkt(1, "a", 0))
	spec := q.AppCostAt("a", 16*time.Second)
	now := q.AppCostAt("a", 15*time.Second)
	if spec <= now {
		t.Fatalf("speculative cost %v should exceed current %v", spec, now)
	}
}

func TestOldest(t *testing.T) {
	q := NewQueues()
	if _, _, ok := q.OldestAt(); ok {
		t.Fatal("OldestAt on empty queues")
	}
	q.Add(pkt(1, "a", 5*time.Second))
	q.Add(pkt(2, "b", 2*time.Second))
	q.Add(pkt(3, "a", 9*time.Second))
	i, j, ok := q.OldestAt()
	if !ok || q.AppView(i)[j].ID != 2 {
		t.Fatalf("OldestAt = (%d, %d, %v)", i, j, ok)
	}
}

// The index API addresses apps in registration order; PopOldest takes the
// first strict minimum of ArrivedAt in iteration order.
func TestIndexAPIAndPopOldest(t *testing.T) {
	q := NewQueues()
	q.Add(pkt(1, "b", 3*time.Second))
	q.Add(pkt(2, "a", 1*time.Second))
	q.Add(pkt(3, "b", 1*time.Second))
	q.Add(pkt(4, "a", 2*time.Second))
	if q.NumApps() != 2 || q.AppName(0) != "b" || q.AppName(1) != "a" {
		t.Fatalf("apps = %d %v, want [b a]", q.NumApps(), q.Apps())
	}
	if i, j, ok := q.OldestAt(); !ok || i != 0 || j != 1 {
		t.Fatalf("OldestAt = (%d, %d, %v), want (0, 1, true): ties go to the first app", i, j, ok)
	}
	if p := q.RemoveAt(1, 1); p.ID != 4 || q.Len() != 3 {
		t.Fatalf("RemoveAt(1, 1) = %d, Len %d", p.ID, q.Len())
	}
	var order []int
	for {
		p, ok := q.PopOldest()
		if !ok {
			break
		}
		order = append(order, p.ID)
	}
	if len(order) != 3 || order[0] != 3 || order[1] != 2 || order[2] != 1 {
		t.Fatalf("PopOldest order = %v, want [3 2 1]", order)
	}
	if q.Len() != 0 || q.NumApps() != 2 {
		t.Fatalf("drained: Len %d, apps %d", q.Len(), q.NumApps())
	}
}

func TestValidateSelection(t *testing.T) {
	good := []workload.Packet{pkt(1, "a", 0), pkt(2, "a", 0)}
	if err := ValidateSelection(good); err != nil {
		t.Fatal(err)
	}
	dup := []workload.Packet{pkt(1, "a", 0), pkt(1, "a", 0)}
	if err := ValidateSelection(dup); err == nil {
		t.Fatal("duplicate selection validated")
	}
}

// Property: packets added then popped one by one conserve the population,
// and under any interleaving of Add, PopByID, PopHead, RemoveAt and
// PopOldest over several apps the stored Len stays equal to the sum of
// the per-app queue lengths.
func TestConservationProperty(t *testing.T) {
	prop := func(ids []uint8) bool {
		q := NewQueues()
		seen := make(map[int]bool)
		added := 0
		for _, raw := range ids {
			id := int(raw)
			if seen[id] {
				continue
			}
			seen[id] = true
			q.Add(pkt(id, "app", time.Duration(id)*time.Second))
			added++
		}
		popped := 0
		for {
			if _, ok := q.PopHead("app"); !ok {
				break
			}
			popped++
		}
		return popped == added && q.Len() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}

	apps := []string{"a", "b", "c"}
	countMatches := func(q *Queues) bool {
		sum := 0
		for i := 0; i < q.NumApps(); i++ {
			sum += len(q.AppView(i))
		}
		return q.Len() == sum
	}
	mixed := func(ops []uint16) bool {
		q := NewQueues()
		nextID, live := 0, 0
		for _, op := range ops {
			app := apps[int(op>>3)%len(apps)]
			switch op % 5 {
			case 0, 1:
				q.Add(pkt(nextID, app, time.Duration(nextID)*time.Second))
				nextID++
				live++
			case 2:
				if _, ok := q.PopByID(app, int(op>>5)%(nextID+1)); ok {
					live--
				}
			case 3:
				if _, ok := q.PopHead(app); ok {
					live--
				}
			case 4:
				if i := int(op>>3) % (q.NumApps() + 1); i < q.NumApps() && len(q.AppView(i)) > 0 {
					q.RemoveAt(i, int(op>>5)%len(q.AppView(i)))
					live--
				} else if _, ok := q.PopOldest(); ok {
					live--
				}
			}
			if !countMatches(q) || q.Len() != live {
				return false
			}
		}
		return true
	}
	if err := quick.Check(mixed, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
