// Command perfbench is the repository's benchmark: it runs one workload
// against the store, checks the outputs against a model built apart from
// the program, and prints every metric by name and unit.
//
//	go run . --workload hot-rmw --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the summary (the last line) carries the end-to-end
// metrics; with --trace 1 a traced run carries the per-layer metrics and
// writes its spans under --trace-dir. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

// endToEnd are the summary metrics of an untraced run; every workload
// reports each of them. They are the ones that hold still between runs of
// the same code on a shared machine; the rate, the p99s and CPU per op
// are per-layer metrics.
var endToEnd = []string{
	"setup_s", "get_p50_us", "put_p50_us",
	"allocs_per_op", "wire_bytes_per_op", "meta_bytes_per_key", "heap_mib",
}

// perLayer are the summary metrics of a traced run.
var perLayer = func() []string {
	out := []string{"ops_per_s", "get_p99_us", "put_p99_us", "cpu_us_per_op"}
	for _, c := range coreNames {
		out = append(out, "core."+c+"_ns", "core."+c+"_calls_per_op")
	}
	out = append(out, "core.siblings_mean", "core.clock_bytes_max")
	for _, m := range methods[:methodOther] {
		out = append(out, "transport."+m+".sends_per_op", "transport."+m+".wire_us")
	}
	out = append(out, "transport.msgs_per_op", "transport.frames_per_flush")
	for _, m := range methods[:methodOther] {
		out = append(out, "node."+m+".handle_us")
	}
	out = append(out,
		"node.keys_per_repl_batch", "node.read_repairs_per_op",
		"node.session_waits_per_op", "node.session_retries_per_op",
		"node.repl_failures_per_op", "node.ae_rounds",
		"node.ae_tree_nodes_per_diverged_key", "node.ae_bytes_per_diverged_key",
		"converge_ms", "converged_tick_us",
		"storage.wal_appends_per_op",
		"storage.cache_hit_ratio", "storage.faults_per_op", "storage.spills_per_op",
		"storage.segments", "storage.disk_bytes", "disk_bytes_per_user_byte",
		"cluster.client_self_us",
		"gc.cycles_per_kop", "gc.pause_us_per_kop",
		"trace.overhead_pct", "trace.residual_pct",
	)
	return out
}()

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var cfg config
	var traced int
	flag.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&traced, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&cfg.traceDir, "trace-dir", "", "directory for the span file of a traced run (empty: not written)")
	flag.Parse()
	if traced != 0 && traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	cfg.trace = traced == 1
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d go=%s GOMAXPROCS=%d tmp_fs=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, traced, runtime.Version(), runtime.GOMAXPROCS(0), tempFS())
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	keep := endToEnd
	if cfg.trace {
		keep = perLayer
	}
	if err := res.print(os.Stdout, keep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}
