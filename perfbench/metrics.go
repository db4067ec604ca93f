package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/node"
	"repro/internal/transport"
)

// Client operation types.
const (
	opGet = iota
	opPut
)

// phase is one timed stretch of client load. A load runs whole rounds
// and asks more() before each; with maxRounds set the phase is a fixed
// number of rounds (the repeatability tests), otherwise it ends at the
// deadline or when the trace buffer is nearly full. Between rounds the
// phase marks window boundaries with the process CPU time, so that rates
// and latencies can be reported as medians over windows.
type phase struct {
	start     time.Time
	deadline  time.Time
	window    time.Duration // spacing of window marks; 0 = one window
	maxRounds int
	rounds    int
	tr        *tracer // non-nil while this phase is traced
	marks     []mark

	lat               [2][]int64 // ns per client op, failed ones included
	end               [2][]int64 // completion of each op, ns since start
	attempted, failed [2]int

	converge []int64 // ns from heal (or end of load) until replicas agree
	aeRounds []int   // anti-entropy rounds each convergence took
	aeBytes  uint64  // wire bytes sent while converging
	aeNodes  uint64  // Merkle tree nodes compared while converging
	diverged int     // keys that differed between replicas before converging
}

// mark is a window boundary: ns since the phase start, process CPU time.
type mark struct {
	at  int64
	cpu time.Duration
}

func newPhase(length, window time.Duration, maxRounds int, tr *tracer) *phase {
	now := time.Now()
	return &phase{start: now, deadline: now.Add(length), window: window, maxRounds: maxRounds, tr: tr}
}

// shard returns a phase for one of several concurrent clients. Only the
// first shard marks windows; the marks count for the whole phase.
func (p *phase) shard(first bool) *phase {
	s := &phase{start: p.start, deadline: p.deadline, maxRounds: p.maxRounds, tr: p.tr}
	if first {
		s.window = p.window
	}
	return s
}

func (p *phase) more() bool {
	now := time.Now()
	stop := false
	if p.maxRounds > 0 {
		stop = p.rounds >= p.maxRounds
	} else {
		stop = !now.Before(p.deadline) || (p.tr != nil && p.tr.nearlyFull())
	}
	at := int64(now.Sub(p.start))
	if len(p.marks) == 0 || stop || (p.window > 0 && at-p.marks[len(p.marks)-1].at >= int64(p.window)) {
		p.marks = append(p.marks, mark{at: at, cpu: cpuTime()})
	}
	if stop {
		return false
	}
	p.rounds++
	return true
}

// startOp opens the span of one client op when p is traced. A nil phase
// (preload, final checks) records nothing.
func (p *phase) startOp(op int) (context.Context, int32) {
	if p == nil {
		return context.Background(), -1
	}
	return p.tr.startOp(context.Background(), op)
}

// done counts a client op started at t0 and closes its span. A failed op
// stays in the latency sample and is never retried.
func (p *phase) done(op int, sp int32, t0 time.Time, err error) {
	if p == nil {
		return
	}
	now := time.Now()
	p.lat[op] = append(p.lat[op], int64(now.Sub(t0)))
	p.end[op] = append(p.end[op], int64(now.Sub(p.start)))
	p.attempted[op]++
	if err != nil {
		p.failed[op]++
	}
	p.tr.endOp(sp, err)
}

// merge folds a per-client shard into p.
func (p *phase) merge(o *phase) {
	if o.window > 0 {
		p.marks = o.marks
	}
	for op := range p.lat {
		p.lat[op] = append(p.lat[op], o.lat[op]...)
		p.end[op] = append(p.end[op], o.end[op]...)
		p.attempted[op] += o.attempted[op]
		p.failed[op] += o.failed[op]
	}
}

func (p *phase) ops() int {
	return p.attempted[opGet] + p.attempted[opPut] - p.failed[opGet] - p.failed[opPut]
}

// quantile interpolates the q-quantile of sorted samples.
func quantile[T int64 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	f := pos - float64(i)
	return float64(sorted[i])*(1-f) + float64(sorted[i+1])*f
}

func median[T int64 | float64](xs []T) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// windowed are per-window figures of a phase: rates, CPU and p50s per
// window, p99s per group of consecutive windows holding at least 1000
// samples of each op type (so that ten samples lie beyond each p99).
type windowed struct {
	opsPerS, cpuPerOp []float64
	p50, p99          [2][]float64
}

func (p *phase) windows() windowed {
	var w windowed
	nw := len(p.marks) - 1
	if nw < 1 {
		return w
	}
	type sample struct{ end, lat int64 }
	var per [2][][]int64 // [op][window] latencies
	counts := make([]int, nw)
	minCount := math.MaxInt
	for op := range p.lat {
		ss := make([]sample, len(p.lat[op]))
		for i := range ss {
			ss[i] = sample{p.end[op][i], p.lat[op][i]}
		}
		sort.Slice(ss, func(a, b int) bool { return ss[a].end < ss[b].end })
		per[op] = make([][]int64, nw)
		j := 0
		for i := 0; i < nw; i++ {
			for j < len(ss) && ss[j].end < p.marks[i].at {
				j++
			}
			for j < len(ss) && ss[j].end < p.marks[i+1].at {
				per[op][i] = append(per[op][i], ss[j].lat)
				j++
			}
			counts[i] += len(per[op][i])
			minCount = min(minCount, len(per[op][i]))
		}
	}
	for i := 0; i < nw; i++ {
		secs := float64(p.marks[i+1].at-p.marks[i].at) / 1e9
		w.opsPerS = append(w.opsPerS, ratio(float64(counts[i]), secs))
		w.cpuPerOp = append(w.cpuPerOp, ratio(float64(p.marks[i+1].cpu-p.marks[i].cpu)/1e3, float64(counts[i])))
		for op := range per {
			slices.Sort(per[op][i])
			w.p50[op] = append(w.p50[op], quantile(per[op][i], 0.5))
		}
	}
	group := nw
	if minCount > 0 {
		group = min(nw, (1000+minCount-1)/minCount)
	}
	for op := range per {
		for g := 0; g+group <= nw; g += group {
			last := g + group
			if nw-last < group {
				last = nw // a short tail joins the last group
			}
			var xs []int64
			for i := g; i < last; i++ {
				xs = append(xs, per[op][i]...)
			}
			if len(xs) < 1000 {
				continue
			}
			slices.Sort(xs)
			w.p99[op] = append(w.p99[op], quantile(xs, 0.99))
			if last == nw {
				break
			}
		}
	}
	return w
}

// procSnap is the process's CPU and allocator state at one instant.
type procSnap struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	numGC   uint32
	pauseNs uint64
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeProcSnap() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		at:      time.Now(),
		cpu:     cpuTime(),
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
}

// clusterSnap sums the program's own counters over every node and
// transport of a deployment.
type clusterSnap struct {
	node                 node.Stats
	bytes, msgs, flushes uint64
	muxMsgs              uint64
}

func takeClusterSnap(d *deployment) clusterSnap {
	var s clusterSnap
	for _, n := range d.nodes {
		st := n.Stats()
		s.node.ReadRepairs += st.ReadRepairs
		s.node.ReplFailures += st.ReplFailures
		s.node.ReplBatches += st.ReplBatches
		s.node.BatchedKeys += st.BatchedKeys
		s.node.SessionWaits += st.SessionWaits
		s.node.SessionRetries += st.SessionRetries
		s.node.WALAppends += st.WALAppends
		s.node.CacheHits += st.CacheHits
		s.node.CacheMisses += st.CacheMisses
		s.node.Spills += st.Spills
		s.node.Faults += st.Faults
		s.node.Segments += st.Segments
	}
	for _, m := range d.meters {
		s.bytes += m.BytesSent()
		s.msgs += m.MessagesSent()
	}
	for _, m := range d.muxes {
		s.flushes += m.Flushes()
		s.muxMsgs += m.MessagesSent()
	}
	return s
}

// deployment is what a workload exposes for measurement.
type deployment struct {
	nodes  []*node.Node
	meters []transport.Meter // every transport whose traffic counts
	muxes  []*transport.Mux
	dirs   []string // data directories (durable workloads)
	// userBytes is one copy of the live user data (durable workloads).
	userBytes int64
}

// dirBytes sums the sizes of the regular files under dirs.
func dirBytes(dirs []string) int64 {
	var total int64
	for _, d := range dirs {
		_ = filepath.WalkDir(d, func(_ string, e os.DirEntry, err error) error {
			if err != nil {
				return nil // a file removed mid-walk (segment turnover) is not counted
			}
			if e.Type().IsRegular() {
				if fi, err := e.Info(); err == nil {
					total += fi.Size()
				}
			}
			return nil
		})
	}
	return total
}

type metric struct {
	name  string
	value float64
	unit  string
}

// result is everything one run reports.
type result struct {
	workload          string
	problems          []string
	attempted, failed [2]int
	metrics           []metric
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.problems) == 0 }

// print writes one line per metric ("workload metric value unit"), the
// op counts, a detailed JSON line and, last, the summary object whose
// metrics are exactly the names in keep.
func (r *result) print(w io.Writer, keep []string) error {
	for op, name := range opNames {
		fmt.Fprintf(w, "%s ops.%s.attempted %d count\n", r.workload, name, r.attempted[op])
		fmt.Fprintf(w, "%s ops.%s.failed %d count\n", r.workload, name, r.failed[op])
	}
	byName := make(map[string]metric, len(r.metrics))
	for _, m := range r.metrics {
		byName[m.name] = m
		fmt.Fprintf(w, "%s %s %s %s\n", r.workload, m.name, formatValue(m.value), m.unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "%s CHECK FAILED: %s\n", r.workload, p)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	all := make(map[string]val, len(r.metrics))
	for _, m := range r.metrics {
		all[m.name] = val{m.value, m.unit}
	}
	detail, err := json.Marshal(map[string]any{
		"workload":   r.workload,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"ops": map[string]any{
			"get": map[string]int{"attempted": r.attempted[opGet], "failed": r.failed[opGet]},
			"put": map[string]int{"attempted": r.attempted[opPut], "failed": r.failed[opPut]},
		},
		"problems": r.problems,
		"metrics":  all,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", detail)
	out := make(map[string]val, len(keep))
	var missing []string
	for _, name := range keep {
		m, ok := byName[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		out[name] = val{m.value, m.unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	summary, err := json.Marshal(map[string]any{
		"correct":   r.correct(),
		"attempted": r.attempted[opGet] + r.attempted[opPut],
		"failed":    r.failed[opGet] + r.failed[opPut],
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", summary)
	return err
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ratio is a/b, or 0 when b is 0 (a count of nothing per nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tempFS names the file system holding the temp dir.
func tempFS() string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(os.TempDir(), &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
