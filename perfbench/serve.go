package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"etrain/internal/client"
	"etrain/internal/fleet"
	"etrain/internal/radio"
	"etrain/internal/server"
	"etrain/internal/stats"
	"etrain/internal/wire"
	"etrain/internal/workload"
)

// serveConns is the closed loop's connection count: each connection's
// next session starts only once its previous session's StatsSnapshot has
// arrived, as in etrain-load.
const serveConns = 2

// serveHorizon is each replayed device's simulated span, etrain-load's
// default.
const serveHorizon = 10 * time.Minute

// servePool is the serve workload's set-up: every device and its wire
// replay, synthesized before the measured phase.
type servePool struct {
	seed     int64
	devs     []fleet.Device
	sessions []server.Session
}

// setupServe synthesizes the session pool; tr, when non-nil, records a
// span around each device's synthesis.
func setupServe(seed int64, size int, tr *tracer) (*servePool, error) {
	pop, err := workload.NewPopulation(workload.DefaultMix())
	if err != nil {
		return nil, err
	}
	p := &servePool{seed: seed, devs: make([]fleet.Device, size), sessions: make([]server.Session, size)}
	for i := range size {
		sp := tr.begin("serve.synth", i, -1)
		dev, err := fleet.SynthesizeDevice(seed, pop, i, serveHorizon)
		if err == nil {
			p.devs[i] = dev
			p.sessions[i], err = server.SessionFromDevice(dev, benchTheta, fleet.DefaultK)
		}
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("device %d: %w", i, err)
		}
	}
	return p, nil
}

// sessionRun is what one replayed session produced.
type sessionRun struct {
	latency  time.Duration
	stats    wire.StatsSnapshot
	entries  int  // decision entries received
	healed   bool // needed a reconnect, resume or replay
	degraded bool // fell back to local scheduling
	err      error
}

// failed reports whether the session counts against success_ratio.
func (r sessionRun) failed() bool { return r.err != nil || r.healed || r.degraded }

// replay runs session i through client.Run against srv over an
// in-process net.Pipe and times it from the client's side.
func (p *servePool) replay(srv *server.Server, i int) sessionRun {
	var serving sync.WaitGroup
	cfg := client.Config{
		Dial: func() (net.Conn, error) {
			c, s := net.Pipe()
			serving.Add(1)
			go func() {
				defer serving.Done()
				_ = srv.ServeConn(s) // a failed session surfaces in client.Run's outcome
			}()
			return c, nil
		},
		Seed: p.seed + int64(i),
		//lint:ignore notime benchmark boundary: real reconnect backoff against a real transport, as in etrain-load
		Sleep:       time.Sleep,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  250 * time.Millisecond,
	}
	t0 := wallNow()
	out, err := client.Run(cfg, p.sessions[i])
	run := sessionRun{latency: wallNow().Sub(t0), err: err}
	serving.Wait()
	if err != nil {
		return run
	}
	run.stats = out.Stats
	for _, d := range out.Decisions {
		run.entries += len(d.Entries)
	}
	run.healed = out.Reconnects+out.Resumes+out.Replays > 0
	run.degraded = out.Degraded
	return run
}

// pass replays every session of the pool once over serveConns closed-loop
// connections and returns the runs in pool order. each, when non-nil, is
// called on the connection's goroutine after every session.
func (p *servePool) pass(srv *server.Server, each func(i int)) []sessionRun {
	runs := make([]sessionRun, len(p.sessions))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range serveConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(runs) {
					return
				}
				runs[i] = p.replay(srv, i)
				if each != nil {
					each(i)
				}
			}
		}()
	}
	wg.Wait()
	return runs
}

// servePhase is a measured phase of whole passes over the pool. It keeps
// the first pass's outcomes for the check against the direct runs, and
// compares every later pass with the first as it completes, so its memory
// does not grow with the number of passes.
type servePhase struct {
	first       []sessionRun
	passes      int
	repeatDiffs []string  // sessions of later passes whose outcome differs from the first pass
	failed      int       // sessions that count against success_ratio
	firstTry    int       // sessions that needed no reconnect, resume or replay
	perCPUS     []float64 // sessions per CPU-second, one per pass
	latenciesMs []float64 // every session of every pass
	counters    server.Counters
}

func (ph *servePhase) sessions() int { return len(ph.latenciesMs) }

// add folds one completed pass into the phase.
func (ph *servePhase) add(runs []sessionRun) {
	ph.passes++
	if ph.first == nil {
		ph.first = runs
	} else {
		for i, r := range runs {
			f := ph.first[i]
			if r.err == nil && f.err == nil && (r.stats != f.stats || r.entries != f.entries) {
				ph.repeatDiffs = append(ph.repeatDiffs, fmt.Sprintf("pass %d session %d: outcome differs from pass 1", ph.passes, i))
			}
		}
	}
	for _, r := range runs {
		ph.latenciesMs = append(ph.latenciesMs, ms(r.latency))
		if r.failed() {
			ph.failed++
		}
		if r.err == nil && !r.healed {
			ph.firstTry++
		}
	}
}

// measure replays whole passes of the pool, at least one and until
// budget has passed, against a fresh server.
func (p *servePool) measure(budget time.Duration, each func(i int)) (*servePhase, error) {
	srv := server.New(server.Config{})
	ph := &servePhase{}
	start := wallNow()
	for ph.first == nil || wallNow().Sub(start) < budget {
		c0 := cpuTime()
		runs := p.pass(srv, each)
		ph.perCPUS = append(ph.perCPUS, float64(len(runs))/(cpuTime()-c0).Seconds())
		ph.add(runs)
	}
	ph.counters = srv.Stats()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return nil, fmt.Errorf("server shutdown: %w", err)
	}
	return ph, nil
}

// serveTruth is the direct simulation of every pool device: the snapshot
// each session must report, and the baseline energy its saving is
// measured against.
type serveTruth struct {
	snaps    []wire.StatsSnapshot
	withoutJ []float64
}

// directRuns simulates every pool device with eTrain and with the
// transmit-on-arrival baseline through sim.Run, off the wire.
func (p *servePool) directRuns() (*serveTruth, error) {
	t := &serveTruth{snaps: make([]wire.StatsSnapshot, len(p.devs)), withoutJ: make([]float64, len(p.devs))}
	for i, dev := range p.devs {
		base, err := dev.SimConfig()
		if err != nil {
			return nil, err
		}
		without, err := runBaseline(base)
		if err != nil {
			return nil, fmt.Errorf("device %d without eTrain: %w", i, err)
		}
		t.withoutJ[i] = without.EnergyJ
		m, err := runETrain(base, benchTheta, fleet.DefaultK)
		if err != nil {
			return nil, fmt.Errorf("device %d with eTrain: %w", i, err)
		}
		t.snaps[i] = wire.StatsSnapshot{
			DeviceID:       uint64(dev.Index),
			EnergyJ:        m.EnergyJ,
			AvgDelayS:      m.AvgDelayS,
			ViolationRatio: m.ViolationRatio,
			DataPackets:    uint64(m.DataPackets),
			Heartbeats:     uint64(m.Heartbeats),
			ForcedFlush:    uint64(m.ForcedFlush),
		}
	}
	return t, nil
}

// checkServe reports every session of a pass whose snapshot or decision
// count differs from the direct simulation of its device. Failed sessions
// are counted, not checked.
func checkServe(runs []sessionRun, truth *serveTruth) []string {
	var problems []string
	for i, r := range runs {
		if r.err != nil {
			continue
		}
		if r.stats != truth.snaps[i] {
			problems = append(problems, fmt.Sprintf("session %d: snapshot %+v, direct sim.Run %+v", i, r.stats, truth.snaps[i]))
		}
		if uint64(r.entries) != truth.snaps[i].DataPackets {
			problems = append(problems, fmt.Sprintf("session %d: %d decision entries, direct sim.Run sent %d packets", i, r.entries, truth.snaps[i].DataPackets))
		}
	}
	return problems
}

// modelSession replays session i's frames in memory, timing each layer
// the live session crosses: the server's Replayer, then the wire codec
// over both directions' frames. It returns the encoded inbound bytes.
func (p *servePool) modelSession(i int, tr *tracer) (int, error) {
	sess := p.sessions[i]
	root := tr.begin("serve.model", i, -1)
	defer tr.end(root)

	inbound := make([]wire.Message, 0, len(sess.Events)+2)
	inbound = append(inbound, sess.Hello)
	inbound = append(inbound, sess.Events...)
	inbound = append(inbound, wire.Ack{Seq: uint64(len(sess.Events)) + 1})
	var outbound []wire.Message

	sp := tr.begin("server.replay", i, root)
	rp, err := server.NewReplayer(sess.Hello, radio.GalaxyS43G(), func(m wire.Message) error {
		outbound = append(outbound, m)
		return nil
	})
	for _, m := range inbound[1:] {
		if err != nil {
			break
		}
		err = rp.Apply(m)
	}
	tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("session %d replay: %w", i, err)
	}

	frames := append(inbound, outbound...)
	var buf bytes.Buffer
	sp = tr.begin("wire.encode", i, root)
	w := wire.NewWriter(&buf)
	bytesIn := 0
	for k, m := range frames {
		if err = w.Write(m); err != nil {
			break
		}
		if k == len(inbound)-1 {
			bytesIn = buf.Len()
		}
	}
	tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("session %d encode: %w", i, err)
	}

	sp = tr.begin("wire.decode", i, root)
	r := wire.NewReader(&buf)
	decoded := 0
	for {
		if _, err = r.Next(); err != nil {
			break
		}
		decoded++
	}
	tr.end(sp)
	if err != io.EOF || decoded != len(frames) {
		return 0, fmt.Errorf("session %d decode: %d of %d frames: %v", i, decoded, len(frames), err)
	}
	return bytesIn, nil
}

// run measures the serve workload. Untraced, it returns the
// end-to-end metrics; traced, it spends half the budget on an untraced
// phase and then models every session of one traced pass layer by layer.
func (p *servePool) run(budget time.Duration, tr *tracer) (*result, error) {
	if _, err := p.measure(0, nil); err != nil { // warm-up: one pass
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if tr != nil {
		budget /= 2
	}
	mem0 := sampleMem()
	ph, err := p.measure(budget, nil)
	if err != nil {
		return nil, err
	}
	mem := mem0.to(sampleMem(), ph.sessions())
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}

	var traced *servePhase
	bytesIn := make([]int, len(p.sessions))
	modelErrs := make([]error, len(p.sessions))
	if tr != nil {
		traced, err = p.measure(0, func(i int) {
			bytesIn[i], modelErrs[i] = p.modelSession(i, tr)
		})
		if err != nil {
			return nil, err
		}
	}

	truth, err := p.directRuns()
	if err != nil {
		return nil, err
	}
	problems := append(checkServe(ph.first, truth), ph.repeatDiffs...)
	if traced != nil {
		problems = append(problems, checkServe(traced.first, truth)...)
	}
	for _, e := range modelErrs {
		if e != nil {
			problems = append(problems, e.Error())
		}
	}
	for _, pr := range problems {
		fmt.Fprintln(os.Stderr, "check failed:", pr)
	}

	res := &result{Correct: len(problems) == 0, Attempted: ph.sessions(), Failed: ph.failed, Metrics: map[string]metric{}}

	if tr == nil {
		var saving, violation stats.Moments
		delays := make([]float64, len(truth.snaps))
		for i, s := range truth.snaps {
			if truth.withoutJ[i] > 0 {
				saving.Add(1 - s.EnergyJ/truth.withoutJ[i])
			} else {
				saving.Add(0)
			}
			delays[i] = s.AvgDelayS
			violation.Add(s.ViolationRatio)
		}
		res.set("devices_per_s", median(ph.perCPUS))
		res.set("session_p50_ms", median(ph.latenciesMs))
		res.set("peak_rss_mb", rss)
		res.set("energy_saving", saving.Mean())
		res.set("delay_p50_s", median(delays))
		res.set("violation_ratio", violation.Mean())
		res.set("success_ratio", float64(res.Attempted-res.Failed)/float64(res.Attempted))
		return res, nil
	}

	layers := tr.selfTimes()
	n := float64(len(p.sessions))
	codec := 0.0
	for _, name := range []string{"wire.encode", "wire.decode", "server.replay", "serve.synth"} {
		res.set(name+"_us", layers[name].meanUs())
		if name != "serve.synth" {
			codec += layers[name].meanUs()
		}
	}
	untracedMs := mean(ph.latenciesMs)
	res.set("serve.transport_us", untracedMs*usPerMs-codec)
	res.set("trace.overhead_pct", 100*(mean(traced.latenciesMs)/untracedMs-1))
	res.set("serve.session_p99_ms", quantile(ph.latenciesMs, 0.99))
	var events, data, heartbeats, forced, inBytes float64
	for i, s := range truth.snaps {
		events += float64(s.Heartbeats + s.DataPackets)
		data += float64(s.DataPackets)
		heartbeats += float64(s.Heartbeats)
		forced += float64(s.ForcedFlush)
		inBytes += float64(bytesIn[i])
	}
	res.set("sim.events_per_device", events/n)
	res.set("sim.data_packets_per_device", data/n)
	res.set("sim.heartbeats_per_device", heartbeats/n)
	res.set("sim.forced_flush_per_device", forced/n)
	sessions := float64(ph.sessions())
	res.set("wire.frames_in_per_session", float64(ph.counters.FramesIn)/sessions)
	res.set("wire.frames_out_per_session", float64(ph.counters.FramesOut)/sessions)
	res.set("wire.bytes_in_per_session", inBytes/n)
	res.set("server.decisions_per_session", float64(ph.counters.Decisions)/sessions)
	res.set("client.first_try_ratio", float64(ph.firstTry)/sessions)
	res.set("serve.allocs_per_session", mem.allocsPerUnit)
	res.set("serve.alloc_kb_per_session", mem.allocKBPerUnit)
	res.set("gc.cpu_fraction", mem.gcCPUFraction)
	return res, nil
}
