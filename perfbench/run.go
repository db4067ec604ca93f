package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/antientropy"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/node"
)

// config selects one run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string

	// For the benchmark's own tests.
	setups    int         // > 0: set-ups per run instead of setupReps
	maxRounds int         // > 0: a fixed number of rounds instead of a deadline
	skipAE    bool        // partition-heal without any anti-entropy
	record    *[]rmwEvent // hot-rmw: record the acked history
}

var workloadNames = []string{"hot-rmw", "durable-mux", "partition-heal"}

type workload interface {
	start() error // cluster start plus preload: what setup_s times
	load(p *phase) error
	deployment() *deployment
	nodeIDs() []dot.ID
	keyNames() []string
	verify(r *result)
	close() error
}

func newWorkload(cfg config, tr *tracer) (workload, error) {
	mech := core.NewDVV()
	if tr != nil {
		mech = tracedMech{Mechanism: mech, t: tr}
	}
	switch cfg.workload {
	case "hot-rmw":
		return newHotRMW(cfg, mech, tr), nil
	case "durable-mux":
		return newDurableMux(cfg, mech, tr), nil
	case "partition-heal":
		return newPartitionHeal(cfg, mech, tr), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
}

// traceSpans bounds the spans one traced run keeps in memory.
const traceSpans = 1 << 18

// windows is how many windows an untraced timed phase is cut into; rates
// and latencies are medians over them.
const windows = 40

// finalTickRounds is how many rounds of converged ticks (each over every
// node pair) follow the load.
const finalTickRounds = 100

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

// run sets the workload up setupReps times (keeping the last cluster),
// runs the timed phase and checks the outputs.
func run(cfg config) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer(traceSpans)
	}
	reps := setupReps
	if cfg.setups > 0 {
		reps = cfg.setups
	}
	baseGoroutines := runtime.NumGoroutine()
	var setups []int64
	var w workload
	// baseHeap is the live heap before the kept cluster started: the
	// benchmark's own inputs and checker, which heap_mib leaves out.
	var baseHeap uint64
	for rep := 0; rep < reps; rep++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
			if err := settle(baseGoroutines); err != nil {
				return nil, err
			}
		}
		var err error
		if w, err = newWorkload(cfg, tr); err != nil {
			return nil, err
		}
		runtime.GC()
		baseHeap = heapAlloc()
		t0 := time.Now()
		err = w.start()
		setups = append(setups, int64(time.Since(t0)))
		if err != nil {
			w.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	closed := false
	defer func() {
		if !closed {
			w.close()
		}
	}()

	r := &result{workload: cfg.workload}
	r.add("setup_s", median(setups)/1e9, "s")
	dep := w.deployment()
	total := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.trace {
		runtime.GC()
		p := newPhase(total, total/windows, cfg.maxRounds, nil)
		s0, c0 := takeProcSnap(), takeClusterSnap(dep)
		if err := w.load(p); err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		s1, c1 := takeProcSnap(), takeClusterSnap(dep)
		r.attempted, r.failed = p.attempted, p.failed
		ops := float64(p.ops())
		timings(r, p)
		r.add("allocs_per_op", ratio(float64(s1.mallocs-s0.mallocs), ops), "count")
		r.add("wire_bytes_per_op", ratio(float64(c1.bytes-c0.bytes), ops), "B")
		p.lat, p.end = [2][]int64{}, [2][]int64{} // not part of the program's heap
		runtime.GC()
		r.add("heap_mib", (float64(heapAlloc())-float64(baseHeap))/(1<<20), "MiB")

		if err := finish(cfg, w, p, nil); err != nil {
			return nil, err
		}
		r.add("meta_bytes_per_key", metaBytesPerKey(dep.nodes), "B")
		r.add("converge_ms", median(p.converge)/1e6, "ms")
		if err := tickMetric(cfg, r, w); err != nil {
			return nil, err
		}
		if len(dep.dirs) > 0 {
			r.add("disk_bytes_per_user_byte", diskRatio(dep), "ratio")
		}
		w.verify(r)
		return r, nil
	}

	// Traced run: an untraced half for the overhead baseline and the
	// runtime metrics, then a traced stretch followed, still traced, by
	// convergence and a block of converged ticks.
	half := total / 2
	runtime.GC()
	pu := newPhase(half, half/windows, cfg.maxRounds, nil)
	s0 := takeProcSnap()
	if err := w.load(pu); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	s1 := takeProcSnap()
	timings(r, pu)
	untracedOps := float64(pu.ops()) / s1.at.Sub(s0.at).Seconds()
	kops := float64(pu.ops()) / 1e3
	r.add("gc.cycles_per_kop", ratio(float64(s1.numGC-s0.numGC), kops), "count")
	r.add("gc.pause_us_per_kop", ratio(float64(s1.pauseNs-s0.pauseNs)/1e3, kops), "us")

	runtime.GC()
	p := newPhase(total-half, 0, cfg.maxRounds, tr)
	c0 := takeClusterSnap(dep)
	tr.on.Store(true)
	if err := w.load(p); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	tracedOps := float64(p.ops()) / time.Since(p.start).Seconds()
	err := finish(cfg, w, p, tr)
	tr.on.Store(false)
	if err != nil {
		return nil, err
	}
	c1 := takeClusterSnap(dep)
	r.add("meta_bytes_per_key", metaBytesPerKey(dep.nodes), "B")
	if err := tickMetric(cfg, r, w); err != nil {
		return nil, err
	}
	r.attempted, r.failed = p.attempted, p.failed
	w.verify(r)
	if tr.dropped() > 0 {
		r.fail("trace buffer overflowed: %d spans dropped", tr.dropped())
	}
	layerMetrics(r, p, c0, c1, dep, float64(p.ops()))
	r.add("trace.overhead_pct", 100*ratio(untracedOps-tracedOps, untracedOps), "%")
	r.add("core.siblings_mean", ratio(float64(tr.sibSum.Load()), float64(tr.sibN.Load())), "count")
	r.add("core.clock_bytes_max", float64(tr.clockMax.Load()), "B")

	closed = true
	if err := w.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	st := tr.analyze()
	spanMetrics(r, &st)
	if cfg.traceDir != "" {
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.tsv", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return r, nil
}

// timings adds the rate, latency and CPU figures of an untraced phase,
// each a median over its windows.
func timings(r *result, p *phase) {
	win := p.windows()
	r.add("ops_per_s", median(win.opsPerS), "op/s")
	for op, name := range opNames {
		r.add(name+"_p50_us", median(win.p50[op])/1e3, "us")
		if len(win.p99[op]) > 0 {
			r.add(name+"_p99_us", median(win.p99[op])/1e3, "us")
		}
	}
	r.add("cpu_us_per_op", median(win.cpuPerOp), "us")
}

// finish ends a load: the replicas converge by anti-entropy (timed from
// the end of the load), then a block of converged ticks runs — traced
// when tr is, so that the ae.tree path shows in every workload's trace.
func finish(cfg config, w workload, p *phase, tr *tracer) error {
	if cfg.skipAE {
		return nil
	}
	dep := w.deployment()
	p.diverged += disagreeingKeys(dep.nodes, w.keyNames())
	if err := converge(p, dep, w.nodeIDs(), tr); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	_, err := ticks(dep.nodes, w.nodeIDs(), finalTickRounds/10, tr)
	return err
}

// tickMetric times an untraced block of converged ticks after a forced
// collection, so that no GC cycle runs under it, and reports its median.
func tickMetric(cfg config, r *result, w workload) error {
	if cfg.skipAE {
		return nil
	}
	dep := w.deployment()
	runtime.GC()
	t, err := ticks(dep.nodes, w.nodeIDs(), finalTickRounds, nil)
	if err != nil {
		return err
	}
	r.add("converged_tick_us", median(t)/1e3, "us")
	return nil
}

// converge runs AntiEntropyWith between every node pair, round by round,
// until every Merkle tree root agrees.
func converge(p *phase, dep *deployment, ids []dot.ID, tr *tracer) error {
	b0, n0 := aeCounters(dep)
	t0 := time.Now()
	rounds := 0
	for !rootsAgree(dep.nodes) {
		if rounds == 16 {
			return fmt.Errorf("replicas still differ after %d anti-entropy rounds", rounds)
		}
		rounds++
		for i := range dep.nodes {
			for j := i + 1; j < len(dep.nodes); j++ {
				if err := tr.antiEntropy(dep.nodes[i], ids[j]); err != nil {
					return fmt.Errorf("anti-entropy %s-%s: %w", ids[i], ids[j], err)
				}
			}
		}
	}
	p.converge = append(p.converge, int64(time.Since(t0)))
	p.aeRounds = append(p.aeRounds, rounds)
	b1, n1 := aeCounters(dep)
	p.aeBytes += b1 - b0
	p.aeNodes += n1 - n0
	return nil
}

// aeCounters reads the wire bytes sent and the tree nodes compared so far.
func aeCounters(dep *deployment) (bytes, treeNodes uint64) {
	for _, m := range dep.meters {
		bytes += m.BytesSent()
	}
	for _, n := range dep.nodes {
		treeNodes += n.Stats().AETreeNodes
	}
	return bytes, treeNodes
}

// ticks times rounds×pairs AntiEntropyWith calls between converged nodes.
func ticks(nodes []*node.Node, ids []dot.ID, rounds int, tr *tracer) ([]int64, error) {
	var out []int64
	for r := 0; r < rounds; r++ {
		for i := range nodes {
			for j := i + 1; j < len(nodes); j++ {
				t0 := time.Now()
				err := tr.antiEntropy(nodes[i], ids[j])
				out = append(out, int64(time.Since(t0)))
				if err != nil {
					return nil, fmt.Errorf("converged tick %s-%s: %w", ids[i], ids[j], err)
				}
			}
		}
	}
	return out, nil
}

func rootsAgree(nodes []*node.Node) bool {
	root := antientropy.TreeRootLevel()
	want := nodes[0].Store().TreeDigest(root, 0)
	for _, n := range nodes[1:] {
		if n.Store().TreeDigest(root, 0) != want {
			return false
		}
	}
	return true
}

// disagreeingKeys counts keys whose state hash differs between replicas.
func disagreeingKeys(nodes []*node.Node, keys []string) int {
	bad := 0
	for _, k := range keys {
		h := nodes[0].Store().KeyHash(k)
		for _, n := range nodes[1:] {
			if n.Store().KeyHash(k) != h {
				bad++
				break
			}
		}
	}
	return bad
}

// dvvShapeViolations checks that every stored sibling carries a dotted
// version vector whose dot and vector entries name only replica nodes —
// at most one entry per node, however many clients wrote.
func dvvShapeViolations(nodes []*node.Node, keys []string, ids []dot.ID) string {
	for ni, n := range nodes {
		for _, k := range keys {
			st, ok := n.Store().Snapshot(k)
			if !ok {
				continue
			}
			d, ok := st.(core.DVVState)
			if !ok {
				return fmt.Sprintf("node %s key %s: state is %T, not a DVV sibling set", ids[ni], k, st)
			}
			for _, v := range d {
				if !slices.Contains(ids, v.Clock.D.Node) {
					return fmt.Sprintf("node %s key %s: dot %v is not a node's", ids[ni], k, v.Clock.D)
				}
				if v.Clock.V.Len() > len(ids) {
					return fmt.Sprintf("node %s key %s: clock has %d entries for %d nodes", ids[ni], k, v.Clock.V.Len(), len(ids))
				}
				for _, e := range v.Clock.V {
					if !slices.Contains(ids, e.ID) {
						return fmt.Sprintf("node %s key %s: clock entry %s is not a node", ids[ni], k, e.ID)
					}
				}
			}
		}
	}
	return ""
}

// metaBytesPerKey is causal-metadata bytes per stored key-replica.
func metaBytesPerKey(nodes []*node.Node) float64 {
	var meta, keys int
	for _, n := range nodes {
		meta += n.Store().TotalMetadataBytes()
		keys += n.Store().Len()
	}
	return ratio(float64(meta), float64(keys))
}

// diskRatio is data-dir bytes per byte of live user data held by the
// replicas (one copy per node).
func diskRatio(dep *deployment) float64 {
	return ratio(float64(dirBytes(dep.dirs)), float64(dep.userBytes*int64(len(dep.nodes))))
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// settle waits until every goroutine a closed workload started has exited.
func settle(base int) error {
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines still running after close (started with %d)", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// layerMetrics adds the counter-based per-layer metrics of a traced window.
func layerMetrics(r *result, p *phase, c0, c1 clusterSnap, dep *deployment, ops float64) {
	d0, d1 := c0.node, c1.node
	per := func(a, b uint64) float64 { return ratio(float64(b-a), ops) }
	r.add("transport.msgs_per_op", per(c0.msgs, c1.msgs), "count")
	r.add("transport.frames_per_flush", ratio(float64(c1.muxMsgs-c0.muxMsgs), float64(c1.flushes-c0.flushes)), "count")

	r.add("node.keys_per_repl_batch", ratio(float64(d1.BatchedKeys-d0.BatchedKeys), float64(d1.ReplBatches-d0.ReplBatches)), "count")
	r.add("node.read_repairs_per_op", per(d0.ReadRepairs, d1.ReadRepairs), "count")
	r.add("node.session_waits_per_op", per(d0.SessionWaits, d1.SessionWaits), "count")
	r.add("node.session_retries_per_op", per(d0.SessionRetries, d1.SessionRetries), "count")
	r.add("node.repl_failures_per_op", per(d0.ReplFailures, d1.ReplFailures), "count")
	var rounds int
	for _, x := range p.aeRounds {
		rounds += x
	}
	r.add("node.ae_rounds", ratio(float64(rounds), float64(len(p.aeRounds))), "count")
	div := float64(max(1, p.diverged))
	r.add("node.ae_tree_nodes_per_diverged_key", float64(p.aeNodes)/div, "count")
	r.add("node.ae_bytes_per_diverged_key", float64(p.aeBytes)/div, "B")
	r.add("converge_ms", median(p.converge)/1e6, "ms")

	r.add("storage.wal_appends_per_op", per(d0.WALAppends, d1.WALAppends), "count")
	r.add("storage.cache_hit_ratio", ratio(float64(d1.CacheHits-d0.CacheHits), float64(d1.CacheHits-d0.CacheHits+d1.CacheMisses-d0.CacheMisses)), "ratio")
	r.add("storage.faults_per_op", per(d0.Faults, d1.Faults), "count")
	r.add("storage.spills_per_op", per(d0.Spills, d1.Spills), "count")
	r.add("storage.segments", float64(d1.Segments), "count")
	r.add("storage.disk_bytes", float64(dirBytes(dep.dirs)), "B")
	r.add("disk_bytes_per_user_byte", diskRatio(dep), "ratio")
}

// spanMetrics adds the span-based per-layer metrics.
func spanMetrics(r *result, st *spanStats) {
	ops := float64(st.ops)
	for c := range st.core {
		a := st.core[c]
		r.add("core."+coreNames[c]+"_ns", ratio(a.dur, float64(a.n)), "ns")
		r.add("core."+coreNames[c]+"_calls_per_op", ratio(float64(a.n), ops), "count")
	}
	for m, name := range methods[:methodOther] {
		s, h := st.send[m], st.handle[m]
		r.add("transport."+name+".sends_per_op", ratio(float64(s.n), ops), "count")
		r.add("transport."+name+".wire_us", ratio(s.self, float64(s.ok))/1e3, "us")
		r.add("node."+name+".handle_us", ratio(h.self, float64(h.n))/1e3, "us")
	}
	r.add("cluster.client_self_us", ratio(st.opSelf, ops)/1e3, "us")
	r.add("trace.residual_pct", 100*ratio(st.opDur-st.treeSelf, st.opDur), "%")
}
