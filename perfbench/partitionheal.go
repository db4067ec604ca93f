package main

// partition-heal: three nodes on a fault-injecting network over the
// in-process one. Each cycle severs one node from its peers, reads and
// rewrites a share of the keys through coordinators on the connected
// side (W=2 is still met), heals, drives anti-entropy between every node
// pair round by round until every Merkle root agrees, and times
// converged anti-entropy ticks.

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/transport"
)

const (
	phKeys      = 4096
	phValueSize = 64
	phShare     = 16 // a cycle rewrites 1/phShare of the keys
	phTicks     = 3  // converged tick rounds per cycle (each over every pair)
)

type partitionHeal struct {
	cfg  config
	mech core.Mechanism
	tr   *tracer

	mem   *transport.Memory
	chaos *transport.Chaos
	c     *cluster.Cluster
	sess  *cluster.Session
	ids   []dot.ID
	keys  []string
	rng   *rand.Rand
	// eligible[i] lists the keys whose coordinator is not node i.
	eligible [][]int
	ver      []int  // version of each key's last acked write
	buf      []byte // scratch: the value a get must return
	cycle    int

	nbad int
	bad  string
}

func newPartitionHeal(cfg config, mech core.Mechanism, tr *tracer) *partitionHeal {
	p := &partitionHeal{cfg: cfg, mech: mech, tr: tr, ids: cluster.NodeIDs(3),
		keys: make([]string, phKeys), ver: make([]int, phKeys),
		rng: rand.New(rand.NewSource(cfg.seed))}
	for k := range p.keys {
		p.keys[k] = fmt.Sprintf("p%05d", k)
	}
	return p
}

func (h *partitionHeal) start() error {
	h.mem = transport.NewMemory(transport.MemoryConfig{Seed: h.cfg.seed})
	h.chaos = transport.NewChaos(h.mem, h.cfg.seed)
	var tr transport.Transport = h.chaos
	if h.tr != nil {
		tr = &tracedTransport{inner: h.chaos, t: h.tr}
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
	h.sess = c.NewSession("client", cluster.RouteCoordinator)
	h.eligible = make([][]int, len(h.ids))
	for k, key := range h.keys {
		coord, _ := c.Ring.Coordinator(key)
		for i, id := range h.ids {
			if id != coord {
				h.eligible[i] = append(h.eligible[i], k)
			}
		}
	}
	for k := range h.keys {
		if err := h.put(nil, k); err != nil {
			return fmt.Errorf("preload %s: %w", h.keys[k], err)
		}
	}
	return nil
}

// value is the payload of version ver of key k, freshly allocated: the
// store keeps the slice it is given.
func (h *partitionHeal) value(k, ver int) []byte {
	return appendValue(make([]byte, 0, phValueSize), 'p', k, ver, phValueSize)
}

func (h *partitionHeal) check(k int, got [][]byte) {
	h.buf = appendValue(h.buf[:0], 'p', k, h.ver[k], phValueSize)
	if !holdsOnly(got, h.buf) {
		h.nbad++
		if h.bad == "" {
			h.bad = fmt.Sprintf("key %d: read %d values, want exactly its last acked write", k, len(got))
		}
	}
}

func (h *partitionHeal) get(p *phase, k int) error {
	ctx, sp := p.startOp(opGet)
	t0 := time.Now()
	vals, _, err := h.sess.Get(ctx, h.keys[k])
	p.done(opGet, sp, t0, err)
	if err == nil {
		h.check(k, vals)
	}
	return err
}

func (h *partitionHeal) put(p *phase, k int) error {
	v := h.value(k, h.ver[k]+1)
	ctx, sp := p.startOp(opPut)
	t0 := time.Now()
	_, err := h.sess.Put(ctx, h.keys[k], v)
	p.done(opPut, sp, t0, err)
	if err == nil {
		h.ver[k]++
	}
	return err
}

func (h *partitionHeal) load(p *phase) error {
	for p.more() {
		sev := h.cycle % len(h.ids)
		h.cycle++
		for i, id := range h.ids {
			if i != sev {
				h.chaos.Partition(h.ids[sev], id)
			}
		}
		keys := h.eligible[sev]
		n := len(h.keys) / phShare
		for i := 0; i < n; i++ {
			j := i + h.rng.Intn(len(keys)-i) // partial shuffle: n distinct keys
			keys[i], keys[j] = keys[j], keys[i]
			k := keys[i]
			_ = h.get(p, k) // counted in the phase; the run goes on
			_ = h.put(p, k)
		}
		h.chaos.HealAll()
		p.diverged += n
		if h.cfg.skipAE {
			continue
		}
		if err := converge(p, h.deployment(), h.ids, h.tr); err != nil {
			return err
		}
		if _, err := ticks(h.c.Nodes, h.ids, phTicks, h.tr); err != nil {
			return err
		}
	}
	return nil
}

func (h *partitionHeal) deployment() *deployment {
	return &deployment{nodes: h.c.Nodes, meters: []transport.Meter{h.mem}}
}

func (h *partitionHeal) nodeIDs() []dot.ID  { return h.ids }
func (h *partitionHeal) keyNames() []string { return h.keys }

// verify checks replica agreement key by key, then reads every key
// through its coordinator: each must hold exactly its last acked write.
func (h *partitionHeal) verify(r *result) {
	if n := disagreeingKeys(h.c.Nodes, h.keys); n > 0 {
		r.fail("%d of %d keys have differing state hashes across replicas", n, len(h.keys))
	}
	for k := range h.keys {
		if err := h.get(nil, k); err != nil {
			r.fail("final read of %s: %v", h.keys[k], err)
			break
		}
	}
	if h.nbad > 0 {
		r.fail("%d reads differ from the last acked write; first: %s", h.nbad, h.bad)
	}
}

func (h *partitionHeal) close() error {
	if h.c == nil {
		return nil
	}
	return h.c.Close()
}
