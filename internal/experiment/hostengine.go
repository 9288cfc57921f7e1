package experiment

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/id"
	"repro/internal/livenet"
	"repro/internal/newscast"
	"repro/internal/peer"
	"repro/internal/sampling"
	"repro/internal/transport"
)

// DrainBudget bounds how long a socket trial waits, tick sources stopped,
// for its traffic counters to settle before it reads the final Stats.
const DrainBudget = 15 * time.Second

// hostEngine runs a trial on the goroutine host runtime (internal/host):
// wall-clock cycles, a livenet.Scenario as the fault plan. It is opened
// over livenet's in-memory link or over transport's sockets and beyond
// that knows the link only by two optional capabilities.
type hostEngine struct {
	population
	p  LiveParams
	rt *host.Runtime
	// quiesce is nil on the in-memory link, whose Close already drains to
	// exact conservation.
	quiesce func(timeout time.Duration) bool
	// writeStats is nil on the in-memory link: frames handed to the
	// kernel and the Write calls that carried them.
	writeStats func() (frames, writes int64)

	schedule []livenet.Event
	plans    map[int][]fault
	warmup   time.Duration
	// killed and respawned count lifecycle events applied to local hosts.
	killed, respawned int
}

// fault is one scenario event resolved for execution: explicit global
// addresses instead of a fraction, so every process of a sharded campaign
// — expanding the schedule independently from the same seed — executes the
// identical plan without coordination.
type fault struct {
	livenet.Event
	addrs []int // OpKill, OpRespawn: the hosts affected, in execution order
}

// openHostEngine builds this process's share of the trial: the network,
// one member per node of the whole campaign (hosts and protocol state only
// for the local ones), the global membership oracle and the resolved fault
// plan. The derivations are one set for both links — ids seed+0x11, oracle
// seed+0x1234, and a single stream seed+0x9e3779b9 drawing the attach
// offsets in member order and then the kill victims in event order. Every
// process draws the whole stream over all N members, so offsets and
// victims do not depend on how the campaign is sharded.
func openHostEngine(p LiveParams, seed int64) (*hostEngine, error) {
	e := &hostEngine{p: p}
	if s := p.Sockets; s != nil {
		net, err := transport.New(transport.Config{
			Seed: seed, N: p.N, Drop: p.Drop,
			Procs: s.Procs, Proc: s.Proc, BasePort: s.BasePort,
		})
		if err != nil {
			return nil, err
		}
		e.rt, e.quiesce, e.writeStats = net.Runtime, net.Quiesce, net.WriteStats
	} else {
		net := livenet.New(livenet.Config{Seed: seed, Drop: p.Drop})
		for i := 0; i < p.N; i++ {
			net.AddHost()
		}
		e.rt = net.Runtime
	}
	e.rt.SetLatency(p.MinLatency, p.MaxLatency)
	if err := e.wire(seed); err != nil {
		e.rt.Close()
		return nil, err
	}
	return e, nil
}

func (e *hostEngine) wire(seed int64) error {
	p := e.p
	ids := id.Unique(p.N, seed+0x11)
	descs := make([]peer.Descriptor, p.N)
	e.members = make([]*member, p.N)
	for i := range descs {
		descs[i] = peer.Descriptor{ID: ids[i], Addr: peer.Addr(i)}
		e.members[i] = &member{desc: descs[i], alive: true}
	}
	for _, h := range e.rt.LocalHosts() {
		e.members[h.Addr()].host = h
	}
	e.oracle = sampling.NewOracle(descs, seed+0x1234)
	rng := rand.New(rand.NewSource(seed + 0x9e3779b9))
	e.cfg = p.Config
	e.cfg.Arena = peer.NewDescriptorArena()
	if p.Sampler == SamplerNewscast {
		e.warmup = time.Duration(p.WarmupCycles) * p.Period
	}
	for i, m := range e.members {
		if m.host == nil {
			rng.Int63n(int64(p.Period)) // another process attaches it; keep the stream aligned
			continue
		}
		// Each node samples through its own handle — an oracle Stream or
		// a newscast Sampler — so the per-tick sample path never takes a
		// shared lock: concurrent hosts do not contend.
		var svc sampling.Service
		if p.Sampler != SamplerNewscast {
			svc = e.oracle.Stream(int64(i))
		} else {
			m.nc = newscast.New(m.desc, e.oracle.Sample(5), newscast.DefaultViewSize)
			ncOffset := time.Duration(rng.Int63n(int64(p.Period)))
			if err := m.host.Attach(newscast.ProtoID, m.nc, p.Period, ncOffset); err != nil {
				return fmt.Errorf("attach newscast: %w", err)
			}
			svc = newscast.NewSampler(m.nc, seed+0x51*int64(i+1))
		}
		node, err := core.NewNode(m.desc, e.cfg, svc)
		if err != nil {
			return err
		}
		m.boot = node
		// The bootstrap binding's offset delays its first tick past the
		// warmup window, which the NEWSCAST layer gossips through alone.
		offset := e.warmup + time.Duration(rng.Int63n(int64(p.Period)))
		if err := m.host.Attach(core.ProtoID, node, p.Period, offset); err != nil {
			return fmt.Errorf("attach bootstrap: %w", err)
		}
	}
	e.schedule = p.Scenario.Events(seed, p.N, p.Cycles)
	var err error
	e.plans, err = expandSchedule(e.schedule, p.N, rng)
	return err
}

// expandSchedule resolves a scenario schedule into per-cycle faults. Kill
// victims are drawn from rng over the simulated alive set in ascending
// address order, so the same inputs yield the same victims on every
// process.
func expandSchedule(schedule []livenet.Event, n int, rng *rand.Rand) (map[int][]fault, error) {
	plans := make(map[int][]fault)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	for _, ev := range schedule {
		f := fault{Event: ev}
		switch ev.Op {
		case livenet.OpKill:
			var up []int
			for addr, a := range alive {
				if a {
					up = append(up, addr)
				}
			}
			k := int(ev.Frac * float64(len(up)))
			if k == 0 && ev.Frac > 0 {
				k = 1
			}
			// Never kill the whole network: keep at least two hosts so the
			// survivors still have someone to gossip with.
			k = min(k, len(up)-2)
			if k <= 0 {
				continue
			}
			perm := rng.Perm(len(up))
			for _, i := range perm[:k] {
				alive[up[i]] = false
				f.addrs = append(f.addrs, up[i])
			}
		case livenet.OpRespawn:
			for addr, a := range alive {
				if !a {
					alive[addr] = true
					f.addrs = append(f.addrs, addr)
				}
			}
		case livenet.OpPartition, livenet.OpHeal, livenet.OpSetDrop, livenet.OpSetLatency:
		default:
			return nil, fmt.Errorf("experiment: unknown scenario op %v", ev.Op)
		}
		plans[ev.Cycle] = append(plans[ev.Cycle], f)
	}
	return plans, nil
}

// applyFaults executes the cycle's plan. Membership bookkeeping (alive
// bits, oracle, the returned delta) is global — every process tracks all N
// nodes — while Kill and Respawn touch only local hosts.
func (e *hostEngine) applyFaults(cycle int) (added, removed []id.ID, err error) {
	for _, f := range e.plans[cycle] {
		switch f.Op {
		case livenet.OpKill:
			// Kill the wave in parallel: each Kill blocks until the victim's
			// goroutine exits, and paying those scheduler round-trips serially
			// makes a 1000-host wave take minutes on a loaded machine.
			var wg sync.WaitGroup
			for _, addr := range f.addrs {
				m := e.members[addr]
				m.alive = false
				e.oracle.Remove(m.desc.ID)
				added, removed = netDelta(added, removed, m.desc.ID)
				if m.host == nil {
					continue
				}
				e.killed++
				wg.Add(1)
				go func() {
					defer wg.Done()
					m.host.Kill()
				}()
			}
			wg.Wait()
		case livenet.OpRespawn:
			for _, addr := range f.addrs {
				m := e.members[addr]
				if m.host != nil {
					if err := m.host.Respawn(); err != nil {
						return nil, nil, err
					}
					e.respawned++
				}
				m.alive = true
				e.oracle.Add(m.desc)
				removed, added = netDelta(removed, added, m.desc.ID)
			}
		case livenet.OpPartition:
			split := peer.Addr(f.Split)
			e.rt.SetPartition(func(from, to peer.Addr) bool {
				return (from < split) != (to < split)
			})
		case livenet.OpHeal:
			e.rt.SetPartition(nil)
		case livenet.OpSetDrop:
			v := f.Value
			if v < 0 {
				v = e.p.Drop // restore the configured baseline
			}
			e.rt.SetDrop(v)
		case livenet.OpSetLatency:
			lo, hi := f.Min, f.Max
			if lo < 0 || hi < 0 {
				lo, hi = e.p.MinLatency, e.p.MaxLatency // restore the configured baseline
			}
			e.rt.SetLatency(lo, hi)
		}
	}
	return added, removed, nil
}

// netDelta moves v across a cycle's membership delta: it cancels v out of
// undo when an earlier fault of the same cycle put it there (truth.Update
// takes each ID at most once), and appends it to do otherwise.
func netDelta(undo, do []id.ID, v id.ID) (undoOut, doOut []id.ID) {
	if i := slices.Index(undo, v); i >= 0 {
		return slices.Delete(undo, i, i+1), do
	}
	return undo, append(do, v)
}

func (e *hostEngine) lastFault() int { return lastFaultCycle(e.schedule) }

// lastFaultCycle is the latest cycle a schedule touches, -1 for none.
func lastFaultCycle(schedule []livenet.Event) int {
	last := -1
	for _, ev := range schedule {
		last = max(last, ev.Cycle)
	}
	return last
}

func (e *hostEngine) advance(int) { time.Sleep(e.p.Period) }
func (e *hostEngine) freeze()     { e.rt.PauseAll() }
func (e *hostEngine) thaw()       { e.rt.ResumeAll() }

func (e *hostEngine) traffic() traffic {
	st := e.rt.Snapshot()
	return traffic{sent: st.Sent, dropped: st.Dropped}
}

// drain quiesces this process's share of a socket trial's traffic: tick
// sources off, then wait for the counters to settle.
func (e *hostEngine) drain() bool {
	e.rt.StopTicks()
	return e.quiesce(DrainBudget)
}

// finish shuts the network down and returns the final counters. The
// in-memory link is conserved exactly once Close returns; sockets are
// drained first, and a drain that misses its deadline is an error, not a
// clean result with unconserved counters.
func (e *hostEngine) finish() (host.Stats, error) {
	if e.quiesce == nil {
		e.rt.Close()
		return e.rt.Snapshot(), nil
	}
	settled := e.drain()
	st := e.rt.Snapshot()
	e.rt.Close()
	if !settled {
		return st, fmt.Errorf("experiment: socket traffic did not settle within %s: Sent − Delivered − Dropped − Overflow = %d",
			DrainBudget, st.Sent-st.Delivered-st.Dropped-st.Overflow)
	}
	return st, nil
}
