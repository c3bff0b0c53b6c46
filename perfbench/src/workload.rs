//! The workloads and the metric names each kind of run reports.

use prcc_graph::{topologies, ShareGraph};

/// One workload: a cluster shape plus a traffic mix at a fixed offered
/// rate. Why each exists is in `README.md`.
pub struct Workload {
    pub name: &'static str,
    pub topology: &'static str,
    pub graph: fn() -> ShareGraph,
    pub partitions: u32,
    pub read_frac: f64,
    pub value_bytes: usize,
    pub hotspot: Option<f64>,
    pub durable: bool,
    pub rate: f64,
}

fn ring4() -> ShareGraph {
    topologies::ring(4)
}

fn clique5() -> ShareGraph {
    topologies::clique_full(5, 2)
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ring-write",
        topology: "ring(4)",
        graph: ring4,
        partitions: 8,
        read_frac: 0.0,
        value_bytes: 0,
        hotspot: None,
        durable: false,
        rate: 10_000.0,
    },
    Workload {
        name: "clique-fanout",
        topology: "clique_full(5, 2)",
        graph: clique5,
        partitions: 4,
        read_frac: 0.0,
        value_bytes: 0,
        hotspot: Some(0.3),
        durable: false,
        rate: 6_000.0,
    },
    Workload {
        name: "durable-mixed",
        topology: "ring(4)",
        graph: ring4,
        partitions: 8,
        read_frac: 0.5,
        value_bytes: 256,
        hotspot: None,
        durable: true,
        rate: 10_000.0,
    },
];

/// Metrics of an untraced run, with units (the `end_to_end` list of
/// `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("write_p50_us", "us"),
    ("read_p50_us", "us"),
    ("visible_p50_us", "us"),
    ("peer_bytes_per_write", "B"),
    ("rss_peak_mb", "MB"),
];

/// Metrics of a traced run, with units (the `per_layer` list).
pub const PER_LAYER: [(&str, &str); 31] = [
    ("client.rtt_write_us_p50", "us"),
    ("client.rtt_read_us_p50", "us"),
    ("client.late_p99_us", "us"),
    ("client.codec_ns_per_op", "ns"),
    ("reactor.echo_rtt_us", "us"),
    ("reactor.wakeups_per_op", "count"),
    ("reactor.events_per_wakeup", "count"),
    ("reactor.pool_miss_ratio", "ratio"),
    ("core.write_ns", "ns"),
    ("core.apply_ns_per_update", "ns"),
    ("core.buffered_ratio", "ratio"),
    ("core.pending_stall_p99_us", "us"),
    ("clock.bytes_per_update", "B"),
    ("clock.counters_per_replica", "count"),
    ("clock.rank_bound_counters", "count"),
    ("wire.encode_ns_per_update", "ns"),
    ("wire.decode_ns_per_update", "ns"),
    ("wire.updates_per_batch", "count"),
    ("wire.framing_bytes_per_update", "B"),
    ("storage.append_batch_us", "us"),
    ("storage.wal_writes_per_op", "count"),
    ("storage.wal_bytes_per_write", "B"),
    ("storage.snapshots", "count"),
    ("cluster.launch_s", "s"),
    ("cluster.drain_s", "s"),
    ("checker.verify_s", "s"),
    ("trace.overhead_write_p50_us", "us"),
    ("ladder.write_path_us", "us"),
    ("ladder.write_wait_us", "us"),
    ("ladder.visible_path_us", "us"),
    ("ladder.visible_wait_us", "us"),
];
