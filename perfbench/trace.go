package main

// Tracing from outside the program. The benchmark hands the program two
// wrapped interfaces — the core.Mechanism (the paper's layer) and the
// transport.Transport (whose Register wrapper also times every node
// handler) — and records one span per call while tracing is on. Spans
// live in a preallocated buffer and are written to a file when the run
// ends; per-layer metrics are computed from them offline.
//
// Request ids: over transport.Memory the sender's context reaches the
// callee's handler, so a span's parent travels in the context. Over
// transport.Mux the context does not cross the socket; a handler span is
// then attached to the send span of the same method and endpoints that
// encloses it in time. Mechanism calls take no context at all and are
// attached to the latest-starting non-mechanism span that encloses them,
// on whatever goroutine it ran: where requests overlap, a call can be
// charged to another request, so self times are approximate there.

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/node"
	"repro/internal/transport"
)

// Span kinds.
const (
	kindOp     uint8 = iota // one client operation: the root of a request
	kindSend                // transport.Send
	kindHandle              // a node's request handler
	kindCore                // one core.Mechanism call
	kindAE                  // one Node.AntiEntropyWith call
)

var kindNames = [...]string{"op", "send", "handle", "core", "ae"}

// methods are the transport methods reported per layer; every other
// method is folded into "other".
var methods = [...]string{node.MethodGet, node.MethodPut, node.MethodReplBatch, node.MethodReplGet, node.MethodAETree, "other"}

const methodOther = uint8(len(methods) - 1)

func methodIndex(m string) uint8 {
	for i, name := range methods[:methodOther] {
		if name == m {
			return uint8(i)
		}
	}
	return methodOther
}

// Mechanism calls that are traced.
const (
	corePut uint8 = iota
	coreSync
	coreRead
	coreDescends
	coreJoin
	coreEncodeState
	coreDecodeState
	nCore
)

var coreNames = [nCore]string{"put", "sync", "read", "descends", "join", "encode_state", "decode_state"}

// Client operation names (kindOp spans).
var opNames = [...]string{"get", "put"}

type span struct {
	start, end int64 // ns since the tracer's epoch; end 0 = unfinished
	parent     int32 // span index, -1 = none recorded
	rid        int32 // request id: index of the request's first span
	kind, name uint8
	ok         bool
	from, to   uint16 // endpoint ids (send and handle spans)
}

type tracer struct {
	on    atomic.Bool
	epoch time.Time
	spans []span
	next  atomic.Int64

	mu    sync.RWMutex
	ids   map[dot.ID]uint16
	names []dot.ID

	// Sibling count and largest per-sibling clock of every state the
	// mechanism's Put returned while tracing.
	sibSum, sibN, clockMax atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity), ids: make(map[dot.ID]uint16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// used reports how many span slots have been handed out.
func (t *tracer) used() int { return int(min(t.next.Load(), int64(len(t.spans)))) }

// nearlyFull reports whether a traced load should stop so that what
// follows it (convergence, ticks) still fits in the buffer.
func (t *tracer) nearlyFull() bool { return t.next.Load() >= int64(len(t.spans))*3/4 }

func (t *tracer) dropped() int64 { return max(0, t.next.Load()-int64(len(t.spans))) }

func (t *tracer) id(x dot.ID) uint16 {
	t.mu.RLock()
	v, ok := t.ids[x]
	t.mu.RUnlock()
	if ok {
		return v
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if v, ok := t.ids[x]; ok {
		return v
	}
	v = uint16(len(t.names))
	t.ids[x] = v
	t.names = append(t.names, x)
	return v
}

// begin opens a span and returns its index, or -1 when the buffer is
// full. A span without a parent starts a new request (rid = its index),
// except mechanism spans, whose request is resolved offline.
func (t *tracer) begin(kind, name uint8, parent, rid int32) int32 {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return -1
	}
	s := &t.spans[i]
	s.kind, s.name, s.parent, s.rid = kind, name, parent, rid
	if parent < 0 && kind != kindCore {
		s.rid = int32(i)
	}
	s.start = t.now()
	return int32(i)
}

func (t *tracer) finish(i int32, ok bool) {
	if i < 0 {
		return
	}
	s := &t.spans[i]
	s.end = t.now()
	s.ok = ok
}

type spanKey struct{}

type spanRef struct{ idx, rid int32 }

func spanFrom(ctx context.Context) spanRef {
	if r, ok := ctx.Value(spanKey{}).(spanRef); ok {
		return r
	}
	return spanRef{-1, -1}
}

// withSpan returns ctx carrying span i as the parent of calls made under it.
func (t *tracer) withSpan(ctx context.Context, i int32) context.Context {
	if i < 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, spanRef{i, t.spans[i].rid})
}

// startOp opens the root span of one client operation (nil tracer or
// tracing off: no span).
func (t *tracer) startOp(ctx context.Context, op int) (context.Context, int32) {
	if t == nil || !t.on.Load() {
		return ctx, -1
	}
	i := t.begin(kindOp, uint8(op), -1, -1)
	return t.withSpan(ctx, i), i
}

func (t *tracer) endOp(i int32, err error) {
	if t != nil {
		t.finish(i, err == nil)
	}
}

// antiEntropy runs one Node.AntiEntropyWith call under its own span.
func (t *tracer) antiEntropy(n *node.Node, peer dot.ID) error {
	ctx := context.Background()
	if t == nil || !t.on.Load() {
		return n.AntiEntropyWith(ctx, peer)
	}
	i := t.begin(kindAE, 0, -1, -1)
	err := n.AntiEntropyWith(t.withSpan(ctx, i), peer)
	t.finish(i, err == nil)
	return err
}

// tracedTransport wraps the transport the program is given.
type tracedTransport struct {
	inner transport.Transport
	t     *tracer
}

func (w *tracedTransport) Send(ctx context.Context, from, to dot.ID, req transport.Request) (transport.Response, error) {
	if !w.t.on.Load() {
		return w.inner.Send(ctx, from, to, req)
	}
	p := spanFrom(ctx)
	i := w.t.begin(kindSend, methodIndex(req.Method), p.idx, p.rid)
	if i >= 0 {
		w.t.spans[i].from, w.t.spans[i].to = w.t.id(from), w.t.id(to)
	}
	resp, err := w.inner.Send(w.t.withSpan(ctx, i), from, to, req)
	w.t.finish(i, err == nil && resp.Err == "")
	return resp, err
}

func (w *tracedTransport) Register(id dot.ID, h transport.Handler) {
	w.inner.Register(id, func(ctx context.Context, from dot.ID, req transport.Request) transport.Response {
		if !w.t.on.Load() {
			return h(ctx, from, req)
		}
		p := spanFrom(ctx)
		i := w.t.begin(kindHandle, methodIndex(req.Method), p.idx, p.rid)
		if i >= 0 {
			w.t.spans[i].from, w.t.spans[i].to = w.t.id(from), w.t.id(id)
		}
		resp := h(w.t.withSpan(ctx, i), from, req)
		w.t.finish(i, resp.Err == "")
		return resp
	})
}

func (w *tracedTransport) Deregister(id dot.ID) { w.inner.Deregister(id) }
func (w *tracedTransport) Close() error         { return w.inner.Close() }

// tracedMech wraps the mechanism the program is given. Calls that are
// not traced pass straight through the embedded interface.
type tracedMech struct {
	core.Mechanism
	t *tracer
}

func (m tracedMech) Put(st core.State, ctx core.Context, value []byte, w core.WriteInfo) (core.State, error) {
	if !m.t.on.Load() {
		return m.Mechanism.Put(st, ctx, value, w)
	}
	i := m.t.begin(kindCore, corePut, -1, -1)
	out, err := m.Mechanism.Put(st, ctx, value, w)
	m.t.finish(i, err == nil)
	if err == nil {
		m.t.sibSum.Add(int64(m.Mechanism.Siblings(out)))
		m.t.sibN.Add(1)
		cb := int64(maxClockBytes(m.Mechanism, out))
		for cur := m.t.clockMax.Load(); cb > cur && !m.t.clockMax.CompareAndSwap(cur, cb); cur = m.t.clockMax.Load() {
		}
	}
	return out, err
}

func (m tracedMech) Sync(a, b core.State) core.State {
	if !m.t.on.Load() {
		return m.Mechanism.Sync(a, b)
	}
	i := m.t.begin(kindCore, coreSync, -1, -1)
	out := m.Mechanism.Sync(a, b)
	m.t.finish(i, true)
	return out
}

func (m tracedMech) Read(s core.State) core.ReadResult {
	if !m.t.on.Load() {
		return m.Mechanism.Read(s)
	}
	i := m.t.begin(kindCore, coreRead, -1, -1)
	out := m.Mechanism.Read(s)
	m.t.finish(i, true)
	return out
}

func (m tracedMech) DescendsContext(a, b core.Context) (bool, error) {
	if !m.t.on.Load() {
		return m.Mechanism.DescendsContext(a, b)
	}
	i := m.t.begin(kindCore, coreDescends, -1, -1)
	ok, err := m.Mechanism.DescendsContext(a, b)
	m.t.finish(i, err == nil)
	return ok, err
}

func (m tracedMech) JoinContexts(a, b core.Context) (core.Context, error) {
	if !m.t.on.Load() {
		return m.Mechanism.JoinContexts(a, b)
	}
	i := m.t.begin(kindCore, coreJoin, -1, -1)
	out, err := m.Mechanism.JoinContexts(a, b)
	m.t.finish(i, err == nil)
	return out, err
}

func (m tracedMech) EncodeState(w *codec.Writer, s core.State) {
	if !m.t.on.Load() {
		m.Mechanism.EncodeState(w, s)
		return
	}
	i := m.t.begin(kindCore, coreEncodeState, -1, -1)
	m.Mechanism.EncodeState(w, s)
	m.t.finish(i, true)
}

func (m tracedMech) DecodeState(r *codec.Reader) (core.State, error) {
	if !m.t.on.Load() {
		return m.Mechanism.DecodeState(r)
	}
	i := m.t.begin(kindCore, coreDecodeState, -1, -1)
	out, err := m.Mechanism.DecodeState(r)
	m.t.finish(i, err == nil)
	return out, err
}

// maxClockBytes is the encoded metadata size of the largest single
// sibling of st: exact for DVV states, the per-sibling mean otherwise.
func maxClockBytes(m core.Mechanism, st core.State) int {
	if d, ok := st.(core.DVVState); ok {
		best := 0
		for _, v := range d {
			best = max(best, m.MetadataBytes(core.DVVState{v}))
		}
		return best
	}
	if n := m.Siblings(st); n > 0 {
		return m.MetadataBytes(st) / n
	}
	return 0
}

// spanStats are the per-layer aggregates of one traced window.
type spanStats struct {
	ops      int     // finished client operations
	opDur    float64 // ns summed over client operations
	opSelf   float64 // ns of client-op self time (the client library)
	treeSelf float64 // ns of self time of every span in a client-op tree
	// Per method: calls, successful calls and self time in ns (of the
	// successful calls only, for sends: a failed send has no callee).
	send, handle [len(methods)]struct {
		n, ok int
		self  float64
	}
	core [nCore]struct {
		n   int
		dur float64
	}
}

// analyze resolves parents, computes each span's self time (its duration
// minus the part of it covered by its children) and sums by layer. Call
// it only after every goroutine that could still write a span has ended.
func (t *tracer) analyze() spanStats {
	sp := t.spans[:t.used()]
	n := len(sp)
	parent := make([]int32, n)
	for i := range sp {
		parent[i] = sp[i].parent
		if sp[i].end == 0 || (parent[i] >= 0 && sp[parent[i]].end == 0) {
			parent[i] = -1
		}
	}

	// Mux handlers: the enclosing send of the same method and endpoints.
	type sendKey struct {
		name     uint8
		from, to uint16
	}
	sends := make(map[sendKey][]int32)
	var nonCore []int32
	for i := range sp {
		s := &sp[i]
		if s.end == 0 {
			continue
		}
		if s.kind == kindSend {
			k := sendKey{s.name, s.from, s.to}
			sends[k] = append(sends[k], int32(i))
		}
		if s.kind != kindCore {
			nonCore = append(nonCore, int32(i))
		}
	}
	byStart := func(ix []int32) {
		sort.Slice(ix, func(a, b int) bool { return sp[ix[a]].start < sp[ix[b]].start })
	}
	for _, ix := range sends {
		byStart(ix)
	}
	byStart(nonCore)
	// enclosing finds the latest-starting span of ix that covers s.
	enclosing := func(ix []int32, s *span) int32 {
		j := sort.Search(len(ix), func(a int) bool { return sp[ix[a]].start > s.start })
		for k := j - 1; k >= 0 && k >= j-64; k-- {
			c := &sp[ix[k]]
			if c != s && c.end >= s.end {
				return ix[k]
			}
		}
		return -1
	}
	for i := range sp {
		s := &sp[i]
		if s.end == 0 || parent[i] >= 0 {
			continue
		}
		switch s.kind {
		case kindHandle:
			parent[i] = enclosing(sends[sendKey{s.name, s.from, s.to}], s)
		case kindCore:
			parent[i] = enclosing(nonCore, s)
		}
	}

	// Children in CSR form, then self time as duration minus covered union.
	first := make([]int32, n+1)
	for i := range sp {
		if parent[i] >= 0 {
			first[parent[i]+1]++
		}
	}
	for i := 0; i < n; i++ {
		first[i+1] += first[i]
	}
	children := make([]int32, first[n])
	fill := append([]int32(nil), first[:n]...)
	for i := range sp {
		if p := parent[i]; p >= 0 {
			children[fill[p]] = int32(i)
			fill[p]++
		}
	}
	self := make([]float64, n)
	var iv [][2]int64
	for i := range sp {
		s := &sp[i]
		if s.end == 0 {
			continue
		}
		iv = iv[:0]
		for _, c := range children[first[i]:first[i+1]] {
			lo, hi := max(sp[c].start, s.start), min(sp[c].end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		for k, x := range iv {
			if k == 0 || x[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = x[0], x[1]
			} else if x[1] > curHi {
				curHi = x[1]
			}
		}
		covered += curHi - curLo
		self[i] = float64(s.end - s.start - covered)
	}

	var st spanStats
	for i := range sp {
		s := &sp[i]
		if s.end == 0 {
			continue
		}
		dur := float64(s.end - s.start)
		switch s.kind {
		case kindOp:
			st.ops++
			st.opDur += dur
			st.opSelf += self[i]
		case kindSend:
			a := &st.send[s.name]
			a.n++
			if s.ok {
				a.ok++
				a.self += self[i]
			}
		case kindHandle:
			a := &st.handle[s.name]
			a.n++
			a.self += self[i]
		case kindCore:
			st.core[s.name].n++
			st.core[s.name].dur += dur
		}
		root := int32(i)
		for parent[root] >= 0 {
			root = parent[root]
		}
		if sp[root].kind == kindOp {
			st.treeSelf += self[i]
		}
	}
	return st
}

// write stores the spans as tab-separated lines: index, kind, name,
// start and end in ns since the trace began, parent, request id, ok,
// from, to.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "idx\tkind\tname\tstart_ns\tend_ns\tparent\trid\tok\tfrom\tto")
	for i, s := range t.spans[:t.used()] {
		name := ""
		switch s.kind {
		case kindOp:
			name = opNames[s.name]
		case kindCore:
			name = coreNames[s.name]
		case kindAE:
			name = "anti_entropy"
		default:
			name = methods[s.name]
		}
		var from, to dot.ID
		if s.kind == kindSend || s.kind == kindHandle {
			from, to = t.names[s.from], t.names[s.to]
		}
		fmt.Fprintf(bw, "%d\t%s\t%s\t%d\t%d\t%d\t%d\t%t\t%s\t%s\n", i, kindNames[s.kind], name, s.start, s.end, s.parent, s.rid, s.ok, from, to)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
