package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hetis/internal/sim"
	"hetis/internal/workload"
)

// refTokenPool is the frozen per-request decode step the batched tokenPool
// replaced: an ordered running batch whose every request advances, and is
// checked for completion, on every step, with the context sum recounted
// per launch. FuzzTokenPoolStep holds the tokenPool to it.
type refTokenPool struct {
	pipe     *stagePipeline
	fleet    *fleetCore
	running  []*request
	used     int64
	requeueQ *waitQueue
	requeued func(*sim.Simulator, *request)
	finished func(*sim.Simulator, *request)
}

// contextSum is the frozen launchDecode's context count.
func (p *refTokenPool) contextSum() int64 {
	var ctxTokens int64
	for _, r := range p.running {
		ctxTokens += int64(r.contextLen())
	}
	return ctxTokens
}

func (p *refTokenPool) afterDecode(s *sim.Simulator) {
	still := p.running[:0]
	for _, r := range p.running {
		r.generated++
		p.used++
		if r.done() {
			p.release(r)
			p.finished(s, r)
			continue
		}
		still = append(still, r)
	}
	p.running = still
	for p.used > p.pipe.tokenCap && len(p.running) > 0 {
		v := p.remove(pickVictim(p.running, p.fleet.ctl.tiered(), anyPrio))
		p.fleet.evictForRecompute(s, v, true)
		p.requeueQ.pushFront(v)
		p.requeued(s, v)
	}
}

func (p *refTokenPool) preemptFor(s *sim.Simulator, prio int, ctx int64) {
	for p.used+ctx > p.pipe.tokenCap {
		i := pickVictim(p.running, p.fleet.ctl.tiered(), prio)
		if i < 0 {
			return
		}
		v := p.remove(i)
		p.fleet.evictForRecompute(s, v, false)
		p.fleet.ctl.notePreempt(s, v)
		p.requeueQ.push(v)
		p.requeued(s, v)
	}
}

func (p *refTokenPool) remove(i int) *request {
	v := p.running[i]
	p.running = append(p.running[:i], p.running[i+1:]...)
	p.release(v)
	return v
}

func (p *refTokenPool) release(r *request) { p.used -= int64(r.contextLen()) }

func (p *refTokenPool) evacuate() []*request {
	batch := slices.Clone(p.running)
	p.running = p.running[:0]
	p.used = 0
	return batch
}

// poolSide is one pool under FuzzTokenPoolStep with its own requests, the
// log its callbacks write, and the requests an evacuate set aside.
type poolSide struct {
	reqs  map[int64]*request
	log   []string
	aside []*request
}

func (sd *poolSide) add(r request) *request {
	p := &r
	sd.reqs[r.wl.ID] = p
	return p
}

func (sd *poolSide) hook(what string) func(*sim.Simulator, *request) {
	return func(_ *sim.Simulator, r *request) {
		sd.log = append(sd.log, fmt.Sprintf("%s %d", what, r.wl.ID))
	}
}

// setAside keeps evacuated requests in seq order, as the replica set
// re-dispatches them.
func (sd *poolSide) setAside(batch []*request) []int64 {
	slices.SortFunc(batch, func(a, b *request) int { return int(a.seq - b.seq) })
	sd.aside = append(sd.aside, batch...)
	ids := make([]int64, len(batch))
	for i, r := range batch {
		ids[i] = r.wl.ID
	}
	return ids
}

// nextRejoin pops the request that re-enters the batch next: the requeue
// queue's head, else the oldest evacuated request.
func (sd *poolSide) nextRejoin(q *waitQueue) *request {
	if q.len() > 0 {
		return q.pop()
	}
	if len(sd.aside) > 0 {
		r := sd.aside[0]
		sd.aside = sd.aside[1:]
		return r
	}
	return nil
}

// inBatch reports whether r is in p's running batch.
func (p *tokenPool) inBatch(r *request) bool {
	return int(r.slot) < len(p.running) && p.running[r.slot] == r
}

// FuzzTokenPoolStep drives the batched tokenPool and the frozen
// per-request refTokenPool through the same random run — joins of fresh
// requests, decode steps with their overflow evictions, tiered preemptFor,
// evacuate, and re-joins of the victims — and requires, after every
// operation, the same finisher and victim sequence, the same used count
// and context sum, the same batch, and the same generated, restartCtx and
// evicted on every request. Byte 0 picks tiering and the cache size; each
// following triple is one op and its two arguments.
func FuzzTokenPoolStep(f *testing.F) {
	f.Add([]byte{0, 0, 10, 3, 0, 20, 5, 2, 0, 0, 2, 0, 0, 2, 0, 0, 5, 0, 0})
	f.Add([]byte{9, 0, 63, 250, 0, 1, 2, 1, 40, 100, 2, 0, 0, 6, 1, 200, 2, 0, 0, 7, 0, 0, 5, 0, 0})
	// A request finishing exactly one ring length ahead, then one that
	// grows the ring: the growth must carry the first one's bucket.
	edge := []byte{255, 0, 20, 255, 0, 30, 255}
	for i := 0; i < 70; i++ {
		edge = append(edge, 2, 0, 0)
	}
	f.Add(edge)
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 8; k++ {
		seed := make([]byte, 1+3*400)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		checkTokenPoolStep(t, data[0]&1 == 1, 48+int64(data[0]>>1)*4, data[1:min(len(data), 1+3*2000)])
	})
}

func checkTokenPoolStep(t *testing.T, tiered bool, capTokens int64, ops []byte) {
	s := sim.New()
	newFleet := func() *fleetCore {
		res := &Result{}
		fc := &fleetCore{res: res}
		if tiered {
			fc.ctl = &chaosCtl{multiTier: true, res: res}
		}
		return fc
	}
	fastSide := &poolSide{reqs: map[int64]*request{}}
	refSide := &poolSide{reqs: map[int64]*request{}}
	fast := &tokenPool{
		pipe:     &stagePipeline{tokenCap: capTokens},
		res:      &Result{},
		fleet:    newFleet(),
		requeueQ: newWaitQueue(tiered),
		requeued: fastSide.hook("requeue"),
		finished: fastSide.hook("finish"),
	}
	ref := &refTokenPool{
		pipe:     &stagePipeline{tokenCap: capTokens},
		fleet:    newFleet(),
		requeueQ: newWaitQueue(tiered),
		requeued: refSide.hook("requeue"),
		finished: refSide.hook("finish"),
	}
	join := func(rf, rr *request) {
		fast.used += int64(rf.contextLen())
		fast.join(rf)
		ref.used += int64(rr.contextLen())
		ref.running = append(ref.running, rr)
	}
	var nextID int64
	for i := 0; i+3 <= len(ops); i += 3 {
		a, b := int(ops[i+1]), int(ops[i+2])
		what := ""
		switch ops[i] % 8 {
		case 0, 1:
			out := 2 + b%24
			if b >= 232 {
				out = 40 + 2*a // past the ring's first size
			}
			r := request{
				wl:         workload.Request{ID: nextID, PromptLen: 1 + a%64, OutputLen: out},
				generated:  1 + (b>>4)%(out-1),
				restartCtx: 1 + a%64,
				prio:       (a >> 6) % 3,
				seq:        nextID,
			}
			nextID++
			join(fastSide.add(r), refSide.add(r))
			what = fmt.Sprintf("join %d", r.wl.ID)
		case 2, 3, 4:
			if len(ref.running) == 0 {
				continue
			}
			if got, want := fast.ctxSum, ref.contextSum(); got != want {
				t.Fatalf("op %d: launch context %d, oracle %d", i/3, got, want)
			}
			fast.afterDecode(s)
			ref.afterDecode(s)
			what = "step"
		case 5:
			rf, rr := fastSide.nextRejoin(fast.requeueQ), refSide.nextRejoin(ref.requeueQ)
			if (rf == nil) != (rr == nil) || rf != nil && rf.wl.ID != rr.wl.ID {
				t.Fatalf("op %d: rejoin %v, oracle %v", i/3, rf, rr)
			}
			if rf == nil {
				continue
			}
			join(rf, rr)
			what = fmt.Sprintf("rejoin %d", rf.wl.ID)
		case 6:
			fast.preemptFor(s, a%4, int64(b))
			ref.preemptFor(s, a%4, int64(b))
			what = fmt.Sprintf("preemptFor(%d, %d)", a%4, b)
		case 7:
			if a >= 64 {
				continue
			}
			got, want := fastSide.setAside(fast.evacuate()), refSide.setAside(ref.evacuate())
			if !slices.Equal(got, want) {
				t.Fatalf("op %d: evacuated %v, oracle %v", i/3, got, want)
			}
			what = "evacuate"
		}
		if !slices.Equal(fastSide.log, refSide.log) {
			t.Fatalf("op %d (%s): log\n%v\noracle\n%v", i/3, what, fastSide.log, refSide.log)
		}
		if fast.used != ref.used || fast.ctxSum != ref.contextSum() || len(fast.running) != len(ref.running) {
			t.Fatalf("op %d (%s): used %d ctx %d batch %d, oracle %d %d %d", i/3, what,
				fast.used, fast.ctxSum, len(fast.running), ref.used, ref.contextSum(), len(ref.running))
		}
		for _, rr := range ref.running {
			if rf := fastSide.reqs[rr.wl.ID]; !fast.inBatch(rf) {
				t.Fatalf("op %d (%s): request %d missing from the batch", i/3, what, rr.wl.ID)
			}
		}
		for id, rr := range refSide.reqs {
			rf := fastSide.reqs[id]
			gen := rf.generated
			if fast.inBatch(rf) {
				gen += fast.clock
			}
			if gen != rr.generated || rf.restartCtx != rr.restartCtx || rf.evicted != rr.evicted {
				t.Fatalf("op %d (%s): request %d generated %d restart %d evicted %v, oracle %d %d %v",
					i/3, what, id, gen, rf.restartCtx, rf.evicted, rr.generated, rr.restartCtx, rr.evicted)
			}
		}
	}
}
