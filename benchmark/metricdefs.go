package main

// metricDef declares one metric. The lists below are the program's side of
// BENCHMARK.json; a test keeps the two in step.
type metricDef struct {
	name, unit string
	better     string  // "higher" or "lower"
	bound      float64 // end-to-end only: share of the parent's median it may worsen by
	// exact marks a value that repeats bit for bit for a seed on the sim-*
	// workloads: a count from the program's counters or a simulated time.
	exact bool
}

// endToEndMetrics are reported by every workload with --trace 0. lat_* is in
// the workload's own clock: simulated on sim-* (exact for a seed), host
// wall-clock on rt-*; the workload's name prefix says which.
var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "host_cmds_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "host_allocs_per_cmd", unit: "1/cmd", better: "lower", bound: 0.05},
	{name: "heap_live_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "lat_p50_us", unit: "us", better: "lower", bound: 0.10},
	{name: "lat_p90_us", unit: "us", better: "lower", bound: 0.25},
}

// perLayerMetrics are reported with --trace 1; a layer that does not run in a
// workload reports 0 there.
var perLayerMetrics = []metricDef{
	// Model results that could not be end-to-end metrics because the
	// contract wants every end-to-end metric on every workload.
	{name: "sim_cmds_per_s", unit: "1/s", better: "higher", exact: true},
	{name: "outage_ms", unit: "ms", better: "lower", exact: true},
	// The p99 is not steady enough on rt-* to carry a bound (see README).
	{name: "lat_p99_us", unit: "us", better: "lower", exact: true},

	{name: "sim.events_per_cmd", unit: "1/cmd", better: "lower", exact: true},
	{name: "sim.host_ns_per_event", unit: "ns", better: "lower"},
	{name: "sim.probe_ns_per_event", unit: "ns", better: "lower"},
	{name: "sim.par2_speedup", unit: "x", better: "higher"},
	{name: "sim.par2_overlap", unit: "x", better: "higher", exact: true},

	{name: "lan.msgs_per_cmd", unit: "1/cmd", better: "lower", exact: true},
	{name: "lan.bytes_per_cmd", unit: "B/cmd", better: "lower", exact: true},
	{name: "lan.drops_per_kcmd", unit: "1/kcmd", better: "lower", exact: true},
	{name: "lan.env_call_ns_per_cmd", unit: "ns/cmd", better: "lower"},
	{name: "lan.dispatch_self_ns_per_cmd", unit: "ns/cmd", better: "lower"},
	{name: "lan.coord_cpu_busy_share", unit: "share", better: "lower", exact: true},
	{name: "lan.replica_cpu_busy_share", unit: "share", better: "lower", exact: true},

	{name: "ringpaxos.cmds_per_inst", unit: "1/inst", better: "higher", exact: true},
	{name: "ringpaxos.order_lat_p50_us", unit: "us", better: "lower", exact: true},
	{name: "ringpaxos.handler_self_ns_per_cmd", unit: "ns/cmd", better: "lower"},
	{name: "ringpaxos.live_log_peak", unit: "count", better: "lower", exact: true},
	{name: "ringpaxos.mring.outage_ms", unit: "ms", better: "lower", exact: true},
	{name: "ringpaxos.uring.outage_ms", unit: "ms", better: "lower", exact: true},
	{name: "ringpaxos.detect_elect_ms", unit: "ms", better: "lower", exact: true},
	{name: "ringpaxos.dup_suppressed", unit: "count", better: "lower", exact: true},

	{name: "multiring.merger_buffered_peak", unit: "count", better: "lower", exact: true},
	{name: "multiring.probe_ns_per_value", unit: "ns", better: "lower"},

	{name: "smr.query_cmds_per_s", unit: "1/s", better: "higher", exact: true},
	{name: "smr.update_cmds_per_s", unit: "1/s", better: "higher", exact: true},
	{name: "smr.exec_self_ns_per_cmd", unit: "ns/cmd", better: "lower"},
	{name: "btree.probe_ns_per_query1000", unit: "ns", better: "lower"},
	{name: "btree.probe_ns_per_update", unit: "ns", better: "lower"},

	{name: "psmr.barrier_waits_per_kcmd", unit: "1/kcmd", better: "lower", exact: true},
	{name: "psmr.dedup_hits", unit: "count", better: "lower", exact: true},
	{name: "psmr.replica_handler_ns_per_cmd", unit: "ns/cmd", better: "lower"},

	{name: "client.retries_per_kcmd", unit: "1/kcmd", better: "lower", exact: true},
	{name: "client.nacks", unit: "count", better: "lower", exact: true},
	{name: "client.extra_bytes", unit: "B", better: "lower", exact: true},
	{name: "client.redirect_ms", unit: "ms", better: "lower", exact: true},

	{name: "cluster.msgs_per_cmd", unit: "1/cmd", better: "lower"},
	{name: "cluster.send_ns_per_msg", unit: "ns", better: "lower"},
	{name: "cluster.handler_self_ns_per_cmd", unit: "ns/cmd", better: "lower"},
	{name: "cluster.sat_lat_p50_us", unit: "us", better: "lower"},
	{name: "cluster.sat_lat_p99_us", unit: "us", better: "lower"},
	{name: "cluster.diskwrite_wait_us_p50", unit: "us", better: "lower"},

	{name: "wal.appends_per_cmd", unit: "1/cmd", better: "lower"},
	{name: "wal.bytes_per_cmd", unit: "B/cmd", better: "lower"},
	{name: "wal.fsync_probe_us_p50", unit: "us", better: "lower"},

	{name: "core.oracle_violations", unit: "count", better: "lower", exact: true},
	{name: "trace.overhead_share", unit: "share", better: "lower"},
}
