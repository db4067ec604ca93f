package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

// shortRun is a fixed number of rounds with one set-up: small and
// repeatable.
func shortRun(workload string, rounds int) config {
	return config{workload: workload, seed: 7, seconds: 60, setups: 1, maxRounds: rounds}
}

func metricValue(t *testing.T, r *result, name string) float64 {
	t.Helper()
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	t.Fatalf("metric %s not reported", name)
	return 0
}

func mustRun(t *testing.T, cfg config) *result {
	t.Helper()
	r, err := run(cfg)
	if err != nil {
		t.Fatalf("run %s: %v", cfg.workload, err)
	}
	return r
}

// startHotRMW sets up hot-rmw with the given mechanism and runs rounds
// of its load, recording the acked history.
func startHotRMW(t *testing.T, mech core.Mechanism, rounds int) (*hotRMW, []rmwEvent) {
	t.Helper()
	var events []rmwEvent
	cfg := shortRun("hot-rmw", rounds)
	cfg.record = &events
	h := newHotRMW(cfg, mech, nil)
	t.Cleanup(func() { h.close() })
	if err := h.start(); err != nil {
		t.Fatal(err)
	}
	if err := h.load(newPhase(0, 0, rounds, nil)); err != nil {
		t.Fatal(err)
	}
	return h, events
}

func TestHotRMWModelAcceptsDVV(t *testing.T) {
	h, _ := startHotRMW(t, core.NewDVV(), 8)
	if !h.model.ok() || h.model.gets == 0 {
		t.Fatalf("DVV run: %d gets checked, %d lost, %d unpredicted (%s)", h.model.gets, h.model.lost, h.model.extra, h.model.firstBad)
	}
	var siblings int
	for k := range h.keys {
		siblings = max(siblings, h.model.siblings(k))
	}
	if siblings < 2 {
		t.Fatalf("the interleaving left no concurrent siblings (max %d): stale contexts are not exercised", siblings)
	}
	r := &result{}
	h.verify(r)
	if !r.correct() {
		t.Fatalf("verify: %v", r.problems)
	}
}

// Server-side version vectors cannot tell apart concurrent client writes
// coordinated by one server (the paper's Figure 1b): a stale put
// overwrites a concurrent sibling, and the checker must see the loss.
func TestHotRMWCheckerCatchesServerVV(t *testing.T) {
	h, _ := startHotRMW(t, core.NewServerVV(), 8)
	if h.model.lost == 0 {
		t.Fatalf("server-VV run: %d gets checked and no acked write reported lost", h.model.gets)
	}
	r := &result{}
	h.verify(r)
	if r.correct() {
		t.Fatal("verify passed a server-VV run")
	}
}

func TestCheckerFlagsRemovedWrite(t *testing.T) {
	h, events := startHotRMW(t, core.NewDVV(), 4)
	if m := replayRMW(rmwSessions+1, rmwKeys, rmwValueSize, events); !m.ok() {
		t.Fatalf("unaltered history flagged: %s", m.firstBad)
	}
	// Drop the first acked put whose value a later get returned.
	drop := -1
	for i, e := range events {
		if !e.put {
			continue
		}
		want := h.model.value(e.key, e.id)
		for _, g := range events[i+1:] {
			if !g.put && g.key == e.key && containsValue(g.got, want) {
				drop = i
				break
			}
		}
		if drop >= 0 {
			break
		}
	}
	if drop < 0 {
		t.Fatal("no put was read back")
	}
	altered := append(append([]rmwEvent(nil), events[:drop]...), events[drop+1:]...)
	if m := replayRMW(rmwSessions+1, rmwKeys, rmwValueSize, altered); m.ok() {
		t.Fatal("history with an acked write removed passed the checker")
	}
}

func TestCheckerFlagsExtraSibling(t *testing.T) {
	h, events := startHotRMW(t, core.NewDVV(), 4)
	for i, e := range events {
		if e.put || len(e.got) == 0 {
			continue
		}
		altered := append([]rmwEvent(nil), events...)
		got := append([][]byte(nil), e.got...)
		altered[i].got = append(got, h.model.value(e.key, 1<<30))
		if m := replayRMW(rmwSessions+1, rmwKeys, rmwValueSize, altered); m.ok() {
			t.Fatal("history with an extra sibling passed the checker")
		}
		return
	}
	t.Fatal("no get returned a value")
}

func containsValue(vals [][]byte, v []byte) bool {
	for _, x := range vals {
		if string(x) == string(v) {
			return true
		}
	}
	return false
}

func TestPartitionHealWithoutAntiEntropyDisagrees(t *testing.T) {
	cfg := shortRun("partition-heal", 2)
	cfg.skipAE = true
	r := mustRun(t, cfg)
	found := false
	for _, p := range r.problems {
		found = found || strings.Contains(p, "differing state hashes")
	}
	if !found {
		t.Fatalf("agreement check passed without anti-entropy: problems %v", r.problems)
	}
}

func TestPartitionHealConverges(t *testing.T) {
	r := mustRun(t, shortRun("partition-heal", 2))
	if !r.correct() || r.failed != [2]int{} {
		t.Fatalf("problems %v, failed %v", r.problems, r.failed)
	}
}

// The durable workload removes its data dirs and stops every goroutine.
func TestDurableMuxCleansUp(t *testing.T) {
	if testing.Short() {
		t.Skip("writes to disk")
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	base := runtime.NumGoroutine()
	r := mustRun(t, shortRun("durable-mux", 1))
	if !r.correct() || r.failed != [2]int{} {
		t.Fatalf("problems %v, failed %v", r.problems, r.failed)
	}
	left, err := filepath.Glob(filepath.Join(tmp, "*"))
	if err != nil || len(left) > 0 {
		t.Fatalf("left in the temp dir: %v (%v)", left, err)
	}
	if err := settle(base); err != nil {
		t.Fatal(err)
	}
}

// hot-rmw on one seed for a fixed number of rounds must repeat the counts
// that do not depend on goroutine timing. Sync and state encode/decode
// calls are left out: read repair and anti-entropy fire only when a read
// beats the asynchronous third replica, which is a matter of timing.
func TestHotRMWRepeatsExactly(t *testing.T) {
	cfg := shortRun("hot-rmw", 4)
	cfg.trace = true
	a, b := mustRun(t, cfg), mustRun(t, cfg)
	for _, r := range []*result{a, b} {
		if !r.correct() {
			t.Fatalf("problems: %v", r.problems)
		}
	}
	if a.attempted != b.attempted {
		t.Fatalf("attempted %v vs %v", a.attempted, b.attempted)
	}
	for _, name := range []string{
		"meta_bytes_per_key", "core.siblings_mean", "core.clock_bytes_max",
		"core.put_calls_per_op", "core.read_calls_per_op",
		"core.descends_calls_per_op", "core.join_calls_per_op",
	} {
		if x, y := metricValue(t, a, name), metricValue(t, b, name); x != y {
			t.Errorf("%s: %v then %v", name, x, y)
		}
	}
}

// BENCHMARK.json names exactly the metrics the summary line carries.
func TestBenchmarkJSONMatchesSummary(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return strings.Join(out, " ")
	}
	if got, want := names(spec.Workloads), strings.Join(workloadNames, " "); got != want {
		t.Errorf("workloads: %s, benchmark runs %s", got, want)
	}
	if got, want := names(spec.EndToEnd), strings.Join(endToEnd, " "); got != want {
		t.Errorf("end_to_end: %s\nsummary: %s", got, want)
	}
	if got, want := names(spec.PerLayer), strings.Join(perLayer, " "); got != want {
		t.Errorf("per_layer: %s\nsummary: %s", got, want)
	}
}
