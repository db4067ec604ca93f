package main

// hot-rmw: one client goroutine interleaves many causal sessions doing
// read-modify-write on a zipf-skewed keyspace, over an in-process network
// with no latency model. The seed fixes the interleaving, so a session's
// put often carries a context older than the key's latest writes and
// leaves siblings that a later read-modify-write resolves.

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/transport"
)

const (
	rmwKeys      = 2048
	rmwSessions  = 48
	rmwValueSize = 64
	rmwZipfS     = 1.1
	rmwRound     = 256 // ops per round
)

type hotRMW struct {
	cfg  config
	mech core.Mechanism
	tr   *tracer

	mem   *transport.Memory
	c     *cluster.Cluster
	sess  []*cluster.Session
	keys  []string
	model *rmwModel
	rng   *rand.Rand
	zipf  *rand.Zipf
	// pend[s] is the key session s has read and writes next, or -1.
	pend []int
}

func newHotRMW(cfg config, mech core.Mechanism, tr *tracer) *hotRMW {
	rng := rand.New(rand.NewSource(cfg.seed))
	h := &hotRMW{
		cfg: cfg, mech: mech, tr: tr,
		keys:  make([]string, rmwKeys),
		model: newRMWModel(rmwSessions+1, rmwKeys, rmwValueSize),
		rng:   rng,
		zipf:  rand.NewZipf(rng, rmwZipfS, 1, rmwKeys-1),
		pend:  make([]int, rmwSessions),
	}
	for k := range h.keys {
		h.keys[k] = fmt.Sprintf("k%05d", k)
	}
	for s := range h.pend {
		h.pend[s] = -1
	}
	return h
}

func (h *hotRMW) start() error {
	h.mem = transport.NewMemory(transport.MemoryConfig{Seed: h.cfg.seed})
	var tr transport.Transport = h.mem
	if h.tr != nil {
		tr = &tracedTransport{inner: h.mem, t: h.tr}
	}
	c, err := cluster.New(cluster.Config{
		Mech: h.mech, Nodes: 3, N: 3, R: 2, W: 2,
		Transport:  tr,
		ReadRepair: true,
		Seed:       h.cfg.seed,
	})
	if err != nil {
		return err
	}
	h.c = c
	for s := 0; s < rmwSessions; s++ {
		h.sess = append(h.sess, c.NewSession(dot.ID(fmt.Sprintf("w%03d", s)), cluster.RouteCoordinator))
	}
	// Preload: one blind write per key by a loader session the model
	// knows as session rmwSessions.
	loader := c.NewSession("loader", cluster.RouteCoordinator)
	for k := range h.keys {
		id, v := h.model.nextPut(k)
		if _, err := loader.Put(context.Background(), h.keys[k], v); err != nil {
			return fmt.Errorf("preload %s: %w", h.keys[k], err)
		}
		h.acked(rmwEvent{put: true, session: rmwSessions, key: k, id: id})
	}
	return nil
}

func (h *hotRMW) load(p *phase) error {
	for p.more() {
		for i := 0; i < rmwRound; i++ {
			s := h.rng.Intn(rmwSessions)
			if k := h.pend[s]; k >= 0 {
				h.put(p, s, k)
				h.pend[s] = -1
			} else {
				k = int(h.zipf.Uint64())
				h.get(p, s, k)
				h.pend[s] = k
			}
		}
	}
	return nil
}

func (h *hotRMW) get(p *phase, s, k int) {
	ctx, sp := p.startOp(opGet)
	t0 := time.Now()
	vals, _, err := h.sess[s].Get(ctx, h.keys[k])
	p.done(opGet, sp, t0, err)
	if err != nil {
		h.model.taint(k)
		return
	}
	h.acked(rmwEvent{session: s, key: k, got: vals})
}

func (h *hotRMW) put(p *phase, s, k int) {
	id, v := h.model.nextPut(k)
	ctx, sp := p.startOp(opPut)
	t0 := time.Now()
	_, err := h.sess[s].Put(ctx, h.keys[k], v)
	p.done(opPut, sp, t0, err)
	if err != nil {
		h.model.taint(k)
		return
	}
	h.acked(rmwEvent{put: true, session: s, key: k, id: id})
}

// acked feeds one acked op to the model (and to the recorded history).
func (h *hotRMW) acked(e rmwEvent) {
	if e.put {
		h.model.put(e.session, e.key, e.id)
	} else {
		h.model.get(e.session, e.key, e.got)
	}
	if h.cfg.record != nil {
		*h.cfg.record = append(*h.cfg.record, e)
	}
}

func (h *hotRMW) deployment() *deployment {
	return &deployment{nodes: h.c.Nodes, meters: []transport.Meter{h.mem}}
}

func (h *hotRMW) nodeIDs() []dot.ID  { return cluster.NodeIDs(3) }
func (h *hotRMW) keyNames() []string { return h.keys }

// verify reads every key once more through a fresh session and checks
// the model, then checks that every stored sibling's clock is a DVV with
// at most one entry per node although writers far outnumber nodes.
func (h *hotRMW) verify(r *result) {
	final := h.c.NewSession("verifier", cluster.RouteCoordinator)
	before := h.model.gets
	for k := range h.keys {
		vals, _, err := final.Get(context.Background(), h.keys[k])
		if err != nil {
			r.fail("final read of %s: %v", h.keys[k], err)
			continue
		}
		h.model.get(rmwSessions, k, vals)
	}
	if h.model.gets == before {
		r.fail("no key could be checked")
	}
	if !h.model.ok() {
		r.fail("reads disagree with the causal-history model: %d acked writes lost, %d values not predicted, over %d reads; first: %s",
			h.model.lost, h.model.extra, h.model.gets, h.model.firstBad)
	}
	if bad := dvvShapeViolations(h.c.Nodes, h.keys, h.nodeIDs()); bad != "" {
		r.fail("%s", bad)
	}
}

func (h *hotRMW) close() error {
	if h.c == nil {
		return nil
	}
	return h.c.Close()
}
