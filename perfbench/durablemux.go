package main

// durable-mux: three nodes, each on its own multiplexed transport over
// loopback TCP, storing into the tiered engine behind a write-ahead log.
// The log writes every commit to the page cache but does not fsync it:
// on a disk shared with other tenants fsync latency moves by 2x between
// runs of the same code, which no bound could hold. Set-up preloads a data set several times the
// engine's memory budget. Two client goroutines, one transport each, run
// uniform 50/50 get/put over disjoint halves of the keys, each writing a
// key with the context its own previous write of it returned.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/node"
	"repro/internal/ring"
	"repro/internal/storage"
	"repro/internal/transport"
)

const (
	muxKeys      = 2048
	muxValueSize = 1024
	muxMemBudget = 512 << 10 // per node: the data set is 4x this
	muxClients   = 2
	muxRound     = 64 // ops per client per round
)

type muxClient struct {
	id   dot.ID
	tr   transport.Transport
	rng  *rand.Rand
	keys []int                // key indexes this client owns
	ctx  map[int]core.Context // context of the client's last write per key
	ver  map[int]int          // version of the client's last acked write per key
	buf  []byte               // scratch: the value a get must return
	bad  string               // first mismatch seen
	nbad int
}

type durableMux struct {
	cfg  config
	mech core.Mechanism
	tr   *tracer

	root    string
	ring    *ring.Ring
	ids     []dot.ID
	muxes   []*transport.Mux
	nodes   []*node.Node
	clients []*muxClient
	keys    []string
	timeout time.Duration
}

func newDurableMux(cfg config, mech core.Mechanism, tr *tracer) *durableMux {
	d := &durableMux{cfg: cfg, mech: mech, tr: tr, ids: cluster.NodeIDs(3), keys: make([]string, muxKeys), timeout: 10 * time.Second}
	for k := range d.keys {
		d.keys[k] = fmt.Sprintf("d%05d", k)
	}
	return d
}

// wrap returns the transport the program is handed for t.
func (d *durableMux) wrap(t *transport.Mux) transport.Transport {
	if d.tr == nil {
		return t
	}
	return &tracedTransport{inner: t, t: d.tr}
}

func (d *durableMux) start() error {
	root, err := os.MkdirTemp("", "perfbench-durable-mux-")
	if err != nil {
		return err
	}
	d.root = root
	d.ring = ring.New(0)
	for _, id := range d.ids {
		d.ring.Add(id)
	}
	for _, id := range d.ids {
		m := transport.NewMux(id, map[dot.ID]string{id: "127.0.0.1:0"})
		d.muxes = append(d.muxes, m)
		if err := m.Listen(); err != nil {
			return err
		}
	}
	for i, m := range d.muxes {
		for j, id := range d.ids {
			if i != j {
				m.SetAddr(id, d.muxes[j].Addr())
			}
		}
	}
	for i, id := range d.ids {
		n, err := node.New(node.Config{
			ID: id, Mech: d.mech, Transport: d.wrap(d.muxes[i]), Ring: d.ring,
			N: 3, R: 2, W: 2,
			Timeout:    d.timeout,
			ReadRepair: true,
			DataDir:    filepath.Join(root, string(id)),
			Engine:     storage.EngineTiered,
			MemBudget:  muxMemBudget,
			Fsync:      false,
			Seed:       d.cfg.seed + int64(i),
			Addr:       d.muxes[i].Addr(),
		})
		if err != nil {
			return err
		}
		d.nodes = append(d.nodes, n)
	}
	for c := 0; c < muxClients; c++ {
		id := dot.ID(fmt.Sprintf("client-%d", c))
		m := transport.NewMux(id, nil)
		for j, nid := range d.ids {
			m.SetAddr(nid, d.muxes[j].Addr())
		}
		d.muxes = append(d.muxes, m)
		cl := &muxClient{
			id: id, tr: d.wrap(m),
			rng: rand.New(rand.NewSource(d.cfg.seed*31 + int64(c))),
			ctx: make(map[int]core.Context), ver: make(map[int]int),
		}
		for k := c; k < muxKeys; k += muxClients {
			cl.keys = append(cl.keys, k)
		}
		d.clients = append(d.clients, cl)
	}
	// Preload every key once, both clients in parallel.
	return d.eachClient(func(_ int, cl *muxClient) error {
		for _, k := range cl.keys {
			if err := d.put(nil, cl, k); err != nil {
				return fmt.Errorf("preload %s: %w", d.keys[k], err)
			}
		}
		return nil
	})
}

// eachClient runs f once per client, concurrently, and waits for all.
func (d *durableMux) eachClient(f func(i int, cl *muxClient) error) error {
	errs := make([]error, len(d.clients))
	var wg sync.WaitGroup
	for i, cl := range d.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(i, cl)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// value is the payload of version ver of key k, freshly allocated: the
// store keeps the slice it is given.
func (d *durableMux) value(k, ver int) []byte {
	return appendValue(make([]byte, 0, muxValueSize), 'd', k, ver, muxValueSize)
}

// send makes one client request to the key's coordinator.
func (d *durableMux) send(ctx context.Context, cl *muxClient, k int, method string, body []byte) (core.ReadResult, error) {
	coord, _ := d.ring.Coordinator(d.keys[k])
	cctx, cancel := context.WithTimeout(ctx, d.timeout)
	defer cancel()
	resp, err := cl.tr.Send(cctx, cl.id, coord, transport.Request{Method: method, Body: body})
	if err == nil {
		err = transport.AppError(resp)
	}
	if err != nil {
		return core.ReadResult{}, err
	}
	return node.DecodeReadResult(d.mech, resp.Body)
}

// put writes the next version of k with the context of the client's own
// last write of it; the reply must hold exactly that value.
func (d *durableMux) put(p *phase, cl *muxClient, k int) error {
	ver := cl.ver[k] + 1
	v := d.value(k, ver)
	ctx, sp := p.startOp(opPut)
	t0 := time.Now()
	body := node.EncodePutRequest(d.mech, d.keys[k], v, cl.id, node.WriteOptions{Context: cl.ctx[k]})
	rr, err := d.send(ctx, cl, k, node.MethodPut, body)
	p.done(opPut, sp, t0, err)
	if err != nil {
		return err
	}
	cl.check(k, rr.Values, v)
	cl.ctx[k], cl.ver[k] = rr.Ctx, ver
	return nil
}

// get reads k with the client's last write as the session floor; the
// reply must hold exactly that write's value. The read's context is
// folded into the client's context for k, as a session client does.
func (d *durableMux) get(p *phase, cl *muxClient, k int) error {
	ctx, sp := p.startOp(opGet)
	t0 := time.Now()
	body := node.EncodeGetRequest(d.mech, d.keys[k], node.ReadOptions{Session: cl.ctx[k]})
	rr, err := d.send(ctx, cl, k, node.MethodGet, body)
	if err == nil {
		cl.ctx[k], err = d.mech.JoinContexts(cl.ctx[k], rr.Ctx)
	}
	p.done(opGet, sp, t0, err)
	if err != nil {
		return err
	}
	cl.buf = appendValue(cl.buf[:0], 'd', k, cl.ver[k], muxValueSize)
	cl.check(k, rr.Values, cl.buf)
	return nil
}

func (cl *muxClient) check(k int, got [][]byte, want []byte) {
	if !holdsOnly(got, want) {
		cl.nbad++
		if cl.bad == "" {
			cl.bad = fmt.Sprintf("key %d: read %d values, want exactly its last acked write", k, len(got))
		}
	}
}

func (d *durableMux) load(p *phase) error {
	shards := make([]*phase, len(d.clients))
	for i := range shards {
		shards[i] = p.shard(i == 0)
	}
	err := d.eachClient(func(i int, cl *muxClient) error {
		sp := shards[i]
		for sp.more() {
			for range muxRound {
				k := cl.keys[cl.rng.Intn(len(cl.keys))]
				if cl.rng.Intn(2) == 0 {
					_ = d.get(sp, cl, k) // counted in the phase; the run goes on
				} else {
					_ = d.put(sp, cl, k)
				}
			}
		}
		return nil
	})
	for _, sp := range shards {
		p.merge(sp)
		p.rounds = max(p.rounds, sp.rounds)
	}
	return err
}

func (d *durableMux) deployment() *deployment {
	dep := &deployment{nodes: d.nodes, muxes: d.muxes, userBytes: int64(muxKeys) * muxValueSize}
	for _, m := range d.muxes {
		dep.meters = append(dep.meters, m)
	}
	for _, id := range d.ids {
		dep.dirs = append(dep.dirs, filepath.Join(d.root, string(id)))
	}
	return dep
}

func (d *durableMux) nodeIDs() []dot.ID  { return d.ids }
func (d *durableMux) keyNames() []string { return d.keys }

// verify reads every key back through its owner and checks that the
// tiered cache stayed within its memory budget.
func (d *durableMux) verify(r *result) {
	err := d.eachClient(func(_ int, cl *muxClient) error {
		for _, k := range cl.keys {
			if err := d.get(nil, cl, k); err != nil {
				return fmt.Errorf("final read of %s: %w", d.keys[k], err)
			}
		}
		return nil
	})
	if err != nil {
		r.fail("%v", err)
	}
	for _, cl := range d.clients {
		if cl.nbad > 0 {
			r.fail("%s: %d reads or write replies differ from its last acked write; first: %s", cl.id, cl.nbad, cl.bad)
		}
	}
	for i, n := range d.nodes {
		if cb := n.Stats().CacheBytes; cb > muxMemBudget {
			r.fail("node %s holds %d cache bytes, over its %d-byte budget", d.ids[i], cb, muxMemBudget)
		}
	}
}

func (d *durableMux) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, n := range d.nodes {
		keep(n.Close())
	}
	for _, m := range d.muxes {
		keep(m.Close())
	}
	if d.root != "" {
		keep(os.RemoveAll(d.root))
	}
	return first
}
