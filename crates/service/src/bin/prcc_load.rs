//! `prcc-load` — drive configurable keyed load at a loopback TCP cluster
//! and report throughput, latency, wire bytes and the per-partition
//! post-hoc oracle verdicts.
//!
//! ```text
//! prcc-load --nodes 4 --ops 10000
//! prcc-load --nodes 4 --partitions 8 --ops 10000 --seed 7
//! prcc-load --nodes 6 --topology random --hotspot 0.3 --value-bytes 256
//! prcc-load --nodes 4 --partitions 8 --data-dir /tmp/prcc --crash-restart
//! ```
//!
//! With `--data-dir` every node runs its write-ahead log + snapshot layer;
//! `--crash-restart` additionally kills one node mid-drive (at
//! `--crash-at` progress) and restarts it from its data dir, with the
//! drivers riding through the outage by redialing — the post-hoc oracle
//! then verifies the *complete* trace, recovery included.
//!
//! Writes `BENCH_service.json` (schema in `prcc_service::report`) so later
//! changes can track the performance trajectory. The `--seed` flag threads
//! through topology generation and the keyed op generator, so a given
//! `(seed, flags)` pair replays the identical workload across PRs.

#![forbid(unsafe_code)]

use prcc_chaos::{ChaosConfig, ChaosNemesis, ChaosSchedule, FaultProfile};
use prcc_clock::EdgeProtocol;
use prcc_graph::PartitionMap;
use prcc_service::config::{build_topology, Args};
use prcc_service::report::{BenchReport, LatencySummary, PartitionBench, VerdictSummary};
use prcc_service::wire::TAG_CUT_MARKER;
use prcc_service::{LoopbackCluster, ServiceConfig};
use prcc_workloads::ops::{generate_keyed_ops, route_keyed_ops};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::process::exit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

struct DriverResult {
    latencies_us: Vec<u64>,
    reads: usize,
    failures: usize,
}

/// Removes an auto-created scratch data dir on every exit path of `run`,
/// error returns included.
struct ScratchDir(Option<std::path::PathBuf>);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        if let Some(dir) = &self.0 {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn run() -> Result<(), String> {
    let args = Args::from_env();
    if args.has("--help") {
        println!(
            "prcc-load: drive keyed load at a loopback prcc cluster\n\n\
             \t--nodes N        cluster size (default 4)\n\
             \t--topology T     ring|line|star|clique|figure5|random (default ring)\n\
             \t--partitions P   shards of the register space (default 1)\n\
             \t--ops N          total operations (default 10000)\n\
             \t--seed S         workload/topology seed (default 1)\n\
             \t--hotspot F      fraction of writes hitting key 0 (default off)\n\
             \t--read-pct F     fraction of ops issued as reads (default 0.0)\n\
             \t--value-bytes B  extra payload bytes per update (default 0)\n\
             \t--rate R         target ops/sec across the cluster, 0 = unlimited (default 0)\n\
             \t--batch N        max updates per peer flush (default 64)\n\
             \t--flush-us U     peer batch linger in microseconds; 0 ships at the\n\
             \t                 end of each reactor tick (default 0)\n\
             \t--base-port P    0 = ephemeral ports (default)\n\
             \t--out PATH       report path (default BENCH_service.json)\n\
             \t--data-dir PATH  enable durability: per-node WAL + snapshots under PATH\n\
             \t--snapshot-every N  WAL records between snapshots (default 4096)\n\
             \t--fsync          group-commit every WAL append (power-loss durability)\n\
             \t--fsync-every N  group-commit cadence: fdatasync every N appends (0 = off)\n\
             \t--compact-at N   live trace events per partition before the core seals\n\
             \t                 the acked prefix into its checkpoint (default 1024)\n\
             \t--max-snapshot-bytes N  fail if any node's last snapshot exceeds N bytes\n\
             \t                 (regression guard for O(live state) snapshots; 0 = off)\n\
             \t--max-snapshot-growth F fail if any node's last/first snapshot size\n\
             \t                 ratio reaches F (flat-snapshot guard; 0 = off)\n\
             \t--chaos-seed S   interpose a seeded nemesis proxy on every peer\n\
             \t                 link: deterministic delays, reorders, duplicates,\n\
             \t                 drops and severs, every decision a pure function\n\
             \t                 of (S, link, frame index); the realized decision\n\
             \t                 log is checked bit-for-bit against pure replay\n\
             \t--chaos-profile P  light|heavy fault rates (default light)\n\
             \t--chaos-partition-every N  per-link frames per rotating\n\
             \t                 split-brain period (default 0 = no partitions)\n\
             \t--chaos-partition-len N  leading frames of each period spent\n\
             \t                 partitioned (one seed-chosen node isolated)\n\
             \t--crash-restart  kill one node mid-drive and restart it from its\n\
             \t                 data dir (a temp dir is used if --data-dir is unset)\n\
             \t--crash-at F     progress fraction at which the crash fires (default 0.5)\n\
             \t--crash-node N   which node to crash (default 1)\n\
             \t--max-frames-per-flush F  fail if mean frames per sender flush\n\
             \t                 reaches F (regression guard for multi-partition\n\
             \t                 frame packing; 0 = off, default)\n\
             \t--max-wal-writes-per-op F fail if WAL write syscalls per op reach F\n\
             \t                 (regression guard for per-sweep group commit;\n\
             \t                 requires --data-dir; 0 = off, default)\n\
             \t--max-pool-miss-rate F  fail if the buffer-pool miss fraction\n\
             \t                 reaches F (regression guard for the zero-copy\n\
             \t                 hot path; 0 = off, default)\n\
             \t--clients N      total client connections across the cluster\n\
             \t                 (default: one per node); each node's script is\n\
             \t                 striped across its share of the connections\n\
             \t--lane-workers W multiplex the client connections onto W driver\n\
             \t                 threads (0 = one thread per connection, the\n\
             \t                 historic shape; large --clients runs want a\n\
             \t                 small pool here)\n\
             \t--max-threads N  fail if this process exceeds N threads\n\
             \t                 mid-drive — the cluster runs in-process, so a\n\
             \t                 return to thread-per-connection I/O anywhere\n\
             \t                 trips this (0 = off)\n\
             \t--max-fds N      fail if this process exceeds N open file\n\
             \t                 descriptors mid-drive (0 = off)\n\
             \t--sample-every N sample 1-in-N update lifecycles for the stage\n\
             \t                 histograms (1 = every update, default 16)\n\
             \t--metrics-mid-run  request a live metrics frame from node 0\n\
             \t                 mid-drive and fail unless it decodes and\n\
             \t                 carries the pending_stall_us histogram\n\
             \t--quiet          suppress the human-readable summary"
        );
        return Ok(());
    }
    let nodes = args.parse_or("--nodes", 4usize)?;
    let topology = args.value("--topology").unwrap_or("ring").to_string();
    let partitions = args.parse_or("--partitions", 1u32)?.max(1);
    let ops_total = args.parse_or("--ops", 10_000usize)?;
    let seed = args.parse_or("--seed", 1u64)?;
    let hotspot = match args.value("--hotspot") {
        None => None,
        Some(raw) => Some(
            raw.parse::<f64>()
                .map_err(|_| format!("invalid --hotspot '{raw}'"))?,
        ),
    };
    let read_pct = args.parse_or("--read-pct", 0.0f64)?;
    let value_bytes = args.parse_or("--value-bytes", 0usize)?;
    let rate = args.parse_or("--rate", 0f64)?;
    let base_port = args.parse_or("--base-port", 0u16)?;
    let out_path = args
        .value("--out")
        .unwrap_or("BENCH_service.json")
        .to_string();
    let max_frames_per_flush = args.parse_or("--max-frames-per-flush", 0f64)?;
    let max_wal_writes_per_op = args.parse_or("--max-wal-writes-per-op", 0f64)?;
    let max_pool_miss_rate = args.parse_or("--max-pool-miss-rate", 0f64)?;
    let clients = args.parse_or("--clients", 0usize)?;
    let lane_workers = args.parse_or("--lane-workers", 0usize)?;
    let max_threads = args.parse_or("--max-threads", 0u64)?;
    let max_fds = args.parse_or("--max-fds", 0u64)?;
    let max_snapshot_bytes = args.parse_or("--max-snapshot-bytes", 0u64)?;
    let max_snapshot_growth = args.parse_or("--max-snapshot-growth", 0f64)?;
    let fsync_every = if args.has("--fsync") && args.value("--fsync-every").is_none() {
        1
    } else {
        args.parse_or("--fsync-every", 0u64)?
    };
    let quiet = args.has("--quiet");
    let sample_every = args.parse_or("--sample-every", 16u64)?;
    let metrics_mid_run = args.has("--metrics-mid-run");
    let chaos_seed = match args.value("--chaos-seed") {
        None => None,
        Some(raw) => Some(
            raw.parse::<u64>()
                .map_err(|_| format!("invalid --chaos-seed '{raw}'"))?,
        ),
    };
    let chaos_profile = args.value("--chaos-profile").unwrap_or("light").to_string();
    let chaos_partition_every = args.parse_or("--chaos-partition-every", 0u64)?;
    let chaos_partition_len = args.parse_or("--chaos-partition-len", 0u64)?;
    let crash_restart = args.has("--crash-restart");
    let crash_at = args.parse_or("--crash-at", 0.5f64)?.clamp(0.0, 1.0);
    let crash_node = args.parse_or("--crash-node", 1usize)?;
    let data_dir = match args.value("--data-dir") {
        Some(path) => Some(std::path::PathBuf::from(path)),
        None if crash_restart => {
            // A crash test without durability would lose state by design;
            // give it a scratch dir so the scenario is meaningful.
            Some(std::env::temp_dir().join(format!("prcc-load-data-{}", std::process::id())))
        }
        None => None,
    };
    let _scratch = ScratchDir(
        (crash_restart && args.value("--data-dir").is_none())
            .then(|| data_dir.clone())
            .flatten(),
    );
    let cfg = ServiceConfig {
        batch_max: args.parse_or("--batch", 64usize)?.max(1),
        flush_interval: Duration::from_micros(args.parse_or("--flush-us", 0u64)?),
        pad_bytes: value_bytes,
        data_dir: data_dir.clone(),
        snapshot_every: args.parse_or("--snapshot-every", 4096u64)?,
        fsync_every,
        trace_compact_at: args.parse_or("--compact-at", 1024usize)?,
        sample_every,
        ..ServiceConfig::default()
    };
    let graph = build_topology(&topology, nodes, seed)?;
    let n = graph.num_replicas();
    if crash_restart && crash_node >= n {
        return Err(format!(
            "--crash-node {crash_node} out of range for {n} nodes"
        ));
    }
    let map = PartitionMap::rotated(graph.clone(), partitions, n)
        .map_err(|e| format!("partition map: {e}"))?;
    let protocol = Arc::new(EdgeProtocol::new(graph));
    // With --chaos-seed, every directed peer link is routed through a
    // seeded nemesis proxy; the nemesis launches lazily inside the rewire
    // closure, once the real peer listeners are bound.
    let mut nemesis: Option<ChaosNemesis> = None;
    let chaos_cfg = match chaos_seed {
        None => None,
        Some(seed) => {
            let profile = match chaos_profile.as_str() {
                "light" => FaultProfile::light(),
                "heavy" => FaultProfile::heavy(),
                other => return Err(format!("unknown --chaos-profile '{other}'")),
            };
            Some(ChaosConfig {
                seed,
                profile,
                partition_every: chaos_partition_every,
                partition_len: chaos_partition_len,
                protect_tags: vec![TAG_CUT_MARKER],
            })
        }
    };
    let mut cluster = match &chaos_cfg {
        None => LoopbackCluster::launch_partitioned(protocol, map.clone(), &cfg, base_port),
        Some(chaos) => {
            let cell: RefCell<Option<ChaosNemesis>> = RefCell::new(None);
            let launched = LoopbackCluster::launch_partitioned_via(
                protocol,
                map.clone(),
                &cfg,
                base_port,
                |node, real| {
                    let mut slot = cell.borrow_mut();
                    if slot.is_none() {
                        // A failed nemesis launch leaves the slot empty; the
                        // short address vector below makes the cluster
                        // launcher report it as an InvalidInput error.
                        if let Ok(n) = ChaosNemesis::launch(real.to_vec(), chaos.clone()) {
                            *slot = Some(n);
                        }
                    }
                    match slot.as_ref() {
                        Some(n) => n.peer_addrs_for(node),
                        None => Vec::new(),
                    }
                },
            );
            nemesis = cell.into_inner();
            launched
        }
    }
    .map_err(|e| format!("launch failed: {e}"))?;

    // One seeded keyed op stream, routed into per-node driver scripts — the
    // same generator and per-key holder affinity the simulator harness
    // (`run_partitioned_workload`) uses.
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let ops = generate_keyed_ops(&map, ops_total, hotspot, &mut rng);
    let scripts = route_keyed_ops(&map, &ops);

    // Per-thread pacing for --rate: each driver holds the cluster-wide
    // interval scaled by its share of the ops. The shared progress counter
    // triggers the crash injection at the requested point of the run.
    let drive_start = Instant::now();
    let progress = Arc::new(AtomicUsize::new(0));
    // --clients stripes each node's script across that many connections
    // cluster-wide (ceil-divided per node); the default keeps the historic
    // one-connection-per-node shape so seeded runs stay comparable.
    let per_node_clients = if clients == 0 { 1 } else { clients.div_ceil(n) };
    // Every lane is one live client connection carrying its stripe of a
    // node's script. Lanes are multiplexed onto --lane-workers driver
    // threads (default: one per lane, the historic shape) — a 2000-client
    // run needs a worker pool, not 2000 harness threads, to prove the
    // *node* holds 2000 sockets on a fixed pool too.
    struct Lane {
        addr: std::net::SocketAddr,
        client: prcc_service::ServiceClient,
        script: Vec<(prcc_graph::PartitionId, prcc_graph::RegisterId, u64)>,
        at: usize,
        rng: ChaCha8Rng,
    }
    let mut lanes = Vec::with_capacity(n * per_node_clients);
    for (node, script) in scripts.into_iter().enumerate() {
        let addr = cluster.addrs(node).1;
        for lane in 0..per_node_clients {
            let striped: Vec<_> = script
                .iter()
                .copied()
                .skip(lane)
                .step_by(per_node_clients)
                .collect();
            let client = cluster
                .client(node)
                .map_err(|e| format!("connect node {node}: {e}"))?;
            lanes.push(Lane {
                addr,
                client,
                script: striped,
                at: 0,
                rng: ChaCha8Rng::seed_from_u64(
                    seed ^ ((node as u64 + 1) << 32) ^ ((lane as u64) << 16),
                ),
            });
        }
    }
    let workers = if lane_workers == 0 {
        lanes.len()
    } else {
        lane_workers.min(lanes.len()).max(1)
    };
    // Deal lanes round-robin so each worker serves a cross-section of the
    // cluster rather than one node's whole block.
    let mut dealt: Vec<Vec<Lane>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, lane) in lanes.into_iter().enumerate() {
        dealt[i % workers].push(lane);
    }
    let mut drivers = Vec::with_capacity(workers);
    for mut my_lanes in dealt {
        let my_ops: usize = my_lanes.iter().map(|l| l.script.len()).sum();
        let share = my_ops as f64 / ops_total.max(1) as f64;
        let interval = if rate > 0.0 && my_ops > 0 {
            Some(Duration::from_secs_f64(1.0 / (rate * share)))
        } else {
            None
        };
        let progress = Arc::clone(&progress);
        drivers.push(thread::spawn(move || -> std::io::Result<DriverResult> {
            let mut result = DriverResult {
                latencies_us: Vec::with_capacity(my_ops),
                reads: 0,
                failures: 0,
            };
            let mut next_at = Instant::now();
            let mut remaining = my_ops;
            // One op per lane per pass: every connection makes progress
            // each round, and per-key order within a lane is preserved.
            while remaining > 0 {
                for lane in &mut my_lanes {
                    let Some(&(partition, register, value)) = lane.script.get(lane.at) else {
                        continue;
                    };
                    lane.at += 1;
                    remaining -= 1;
                    // Paced ops are timed from their due time, not from
                    // after the pacing sleep: an op held back by a slow
                    // predecessor is charged the wait (no coordinated
                    // omission).
                    let started = match interval {
                        Some(interval) => {
                            let due = next_at;
                            let now = Instant::now();
                            if due > now {
                                thread::sleep(due - now);
                            }
                            next_at += interval;
                            due
                        }
                        None => Instant::now(),
                    };
                    let is_read = read_pct > 0.0 && lane.rng.gen_bool(read_pct);
                    if is_read {
                        result.reads += 1;
                    }
                    let attempt = |client: &mut prcc_service::ServiceClient| {
                        if is_read {
                            client.read_in(partition, register).map(|_| true)
                        } else {
                            client.write_padded(partition, register, value, value_bytes)
                        }
                    };
                    let ok = match attempt(&mut lane.client) {
                        Ok(ok) => ok,
                        Err(e) if crash_restart => {
                            // The node may be mid crash/restart: ride through
                            // the outage by redialing until the op lands. A
                            // write whose ack was lost in the crash may commit
                            // twice — two distinct updates, which is exactly
                            // what a real retrying client produces.
                            let deadline = Instant::now() + Duration::from_secs(30);
                            loop {
                                thread::sleep(Duration::from_millis(25));
                                if let Ok(mut fresh) =
                                    prcc_service::ServiceClient::connect(lane.addr)
                                {
                                    if let Ok(ok) = attempt(&mut fresh) {
                                        lane.client = fresh;
                                        break ok;
                                    }
                                }
                                if Instant::now() >= deadline {
                                    return Err(e);
                                }
                            }
                        }
                        Err(e) => return Err(e),
                    };
                    if !ok {
                        result.failures += 1;
                    }
                    result
                        .latencies_us
                        .push(started.elapsed().as_micros() as u64);
                    progress.fetch_add(1, Ordering::Relaxed);
                }
            }
            Ok(result)
        }));
    }

    // Peak process shape, sampled with every lane connected and the
    // worker pool live: the cluster runs in-process, so any return to
    // thread-per-connection I/O scales this with --clients.
    let sampled_threads = process_threads();
    let sampled_fds = process_fds();

    // The mid-run metrics probe: once a quarter of the ops are in, scrape
    // node 0's live metrics over the client wire — the point is to prove
    // the v6 Metrics frame round-trips *while the hot path is hot*, not
    // from a quiesced cluster.
    let mid_probe = metrics_mid_run.then(|| {
        let addr = cluster.addrs(0).1;
        let progress = Arc::clone(&progress);
        let target = (ops_total / 4).max(1);
        thread::spawn(move || -> Result<(), String> {
            let stall = Instant::now() + Duration::from_secs(120);
            while progress.load(Ordering::Relaxed) < target && Instant::now() < stall {
                thread::sleep(Duration::from_millis(2));
            }
            let mut client = prcc_service::ServiceClient::connect(addr)
                .map_err(|e| format!("mid-run metrics dial: {e}"))?;
            let snap = client
                .metrics()
                .map_err(|e| format!("mid-run metrics request: {e}"))?;
            let stall_p99 = snap
                .hist_summary("pending_stall_us")
                .ok_or("mid-run metrics frame decoded but has no pending_stall_us histogram")?
                .p99_us;
            let _ = stall_p99; // presence is the assertion; the value is workload-dependent
            Ok(())
        })
    });

    // The fault injector: once the drive crosses the crash point, kill the
    // target node mid-stream and bring it back on the same data dir.
    let mut crash_restarts = 0u64;
    if crash_restart {
        let target = ((ops_total as f64) * crash_at).round() as usize;
        let stall = Instant::now() + Duration::from_secs(120);
        while progress.load(Ordering::Relaxed) < target && Instant::now() < stall {
            thread::sleep(Duration::from_millis(5));
        }
        cluster.crash_node(crash_node);
        thread::sleep(Duration::from_millis(150));
        cluster
            .restart_node(crash_node)
            .map_err(|e| format!("restarting node {crash_node}: {e}"))?;
        crash_restarts = 1;
    }

    let mut latencies = Vec::with_capacity(ops_total);
    let mut reads = 0usize;
    let mut failures = 0usize;
    for driver in drivers {
        let result = driver
            .join()
            .map_err(|_| "driver thread panicked".to_string())
            .and_then(|r| r.map_err(|e| format!("driver I/O error: {e}")))?;
        latencies.extend(result.latencies_us);
        reads += result.reads;
        failures += result.failures;
    }
    let drive_seconds = drive_start.elapsed().as_secs_f64();
    if let Some(probe) = mid_probe {
        probe
            .join()
            .map_err(|_| "metrics probe thread panicked".to_string())
            .and_then(|r| r)?;
    }
    if failures > 0 {
        return Err(format!("{failures} operations were rejected by their node"));
    }

    // Heal the nemesis before draining: frames swallowed by drops and
    // partition windows are only resent at the next reconnect, which heal
    // forces exactly once per live link. From here the proxies forward
    // transparently.
    if let Some(n) = &nemesis {
        n.heal();
    }

    // Quiescence, then per-partition verification on the collected traces.
    let drain_start = Instant::now();
    let drain_budget = Duration::from_secs(30) + Duration::from_millis(ops_total as u64 / 10);
    let drained = cluster
        .drain(drain_budget)
        .map_err(|e| format!("drain: {e}"))?;
    let drain_seconds = drain_start.elapsed().as_secs_f64();
    if !drained {
        return Err("cluster failed to reach quiescence (liveness bug?)".into());
    }
    let statuses = cluster.statuses().map_err(|e| format!("status: {e}"))?;
    let misrouted: u64 = statuses.iter().map(|s| s.dropped_misrouted).sum();
    if misrouted > 0 {
        return Err(format!(
            "{misrouted} updates were misrouted to non-hosting nodes and dropped"
        ));
    }
    // The eviction gate reads the metrics path, not NodeStatus: it proves
    // the registry's core_* gauges are wired end to end at the same time
    // as it guards delivery.
    let metrics = cluster.metrics().map_err(|e| format!("metrics: {e}"))?;
    let evicted = metrics
        .gauge("core_window_evicted")
        .ok_or("metrics snapshot is missing the core_window_evicted gauge")?;
    if evicted > 0 {
        // Evicted entries were given up on — the stitched verdict cannot
        // vouch for updates the cluster stopped trying to deliver, so the
        // run must not be reported as clean.
        return Err(format!(
            "{evicted} resend-window entries were evicted by the window cap \
             (a peer was stranded past --window-cap); the run gave up on \
             delivering them"
        ));
    }
    // The chaos replayability gate: the realized fault-decision log must
    // be bit-identical to the pure replay of the schedule, or a failing
    // run could not be reproduced from its seed.
    if let (Some(nem), Some(chaos)) = (&nemesis, &chaos_cfg) {
        for ((src, dst), realized) in nem.schedule().decision_log() {
            let replayed = ChaosSchedule::replay_link(chaos, n, src, dst, realized.len() as u64);
            if realized != replayed {
                return Err(format!(
                    "chaos link {src}->{dst}: realized decision log diverged from \
                     the pure replay of seed {} — the run is not reproducible",
                    chaos.seed
                ));
            }
        }
    }

    let partition_verdicts = cluster
        .verify_partitions()
        .map_err(|e| format!("trace collection: {e}"))?;

    let mut verdict = VerdictSummary {
        consistent: true,
        safety_violations: 0,
        liveness_violations: 0,
    };
    let mut per_partition = vec![PartitionBench::default(); partitions as usize];
    for (p, result) in partition_verdicts.iter().enumerate() {
        let v = result
            .as_ref()
            .map_err(|e| format!("partition {p} trace replay: {e}"))?;
        per_partition[p].consistent = v.is_consistent();
        verdict.consistent &= v.is_consistent();
        verdict.safety_violations += v.safety.len();
        verdict.liveness_violations += v.liveness.len();
    }

    let mut report = BenchReport {
        topology,
        nodes: n,
        partitions: partitions as usize,
        ops: latencies.len(),
        reads,
        seed,
        value_bytes,
        hotspot,
        drive_seconds,
        drain_seconds,
        throughput_ops_per_sec: latencies.len() as f64 / drive_seconds.max(1e-9),
        latency: LatencySummary::from_latencies(&mut latencies),
        wire_bytes_out: 0,
        wire_bytes_per_update: 0.0,
        messages_sent: 0,
        batches_sent: 0,
        frames_sent: 0,
        flushes: 0,
        updates_per_batch: 0.0,
        frames_per_flush: 0.0,
        durable: data_dir.is_some(),
        crash_restarts,
        resent: 0,
        wal_appends: 0,
        wal_writes: 0,
        pool_hits: 0,
        pool_misses: 0,
        pool_outstanding: 0,
        snapshots_written: 0,
        fsync_every,
        wal_bytes: 0,
        snapshot_bytes: 0,
        snapshot_growth: 0.0,
        trace_events: 0,
        sealed_events: 0,
        max_window: 0,
        window_evicted: 0,
        reactor_wakeups: 0,
        reactor_events: 0,
        reactor_rearms: 0,
        reactor_outq_hiwat: 0,
        barrier_skips: 0,
        process_threads: sampled_threads,
        process_fds: sampled_fds,
        sample_every,
        visibility: prcc_telemetry::HistSummary::default(),
        pending_stall: prcc_telemetry::HistSummary::default(),
        wal_append: prcc_telemetry::HistSummary::default(),
        send: prcc_telemetry::HistSummary::default(),
        verdict,
        per_partition,
    };
    report.absorb_statuses(&statuses);
    report.absorb_metrics(&metrics);

    std::fs::write(&out_path, report.to_json()).map_err(|e| format!("writing {out_path}: {e}"))?;
    cluster.shutdown().map_err(|e| format!("shutdown: {e}"))?;

    if !quiet {
        println!(
            "prcc-load: {} ops ({} reads) on {} nodes x {} partitions ('{}') in {:.2}s + {:.2}s drain",
            report.ops,
            report.reads,
            report.nodes,
            report.partitions,
            report.topology,
            drive_seconds,
            drain_seconds
        );
        println!(
            "  throughput {:.0} ops/s; latency mean {:.0}us p50 {}us p99 {}us",
            report.throughput_ops_per_sec,
            report.latency.mean_us,
            report.latency.p50_us,
            report.latency.p99_us
        );
        println!(
            "  stages (1-in-{} sampled): visibility p50 {}us p99 {}us ({} samples); \
             pending stall p99 {}us; wal append p99 {}us; send p99 {}us",
            report.sample_every,
            report.visibility.p50_us,
            report.visibility.p99_us,
            report.visibility.count,
            report.pending_stall.p99_us,
            report.wal_append.p99_us,
            report.send.p99_us
        );
        println!(
            "  wire: {} bytes out, {:.1} bytes/update, {:.2} updates/batch, \
             {:.2} frames/flush ({} frames for {} batches)",
            report.wire_bytes_out,
            report.wire_bytes_per_update,
            report.updates_per_batch,
            report.frames_per_flush,
            report.frames_sent,
            report.batches_sent
        );
        let pool_total = report.pool_hits + report.pool_misses;
        println!(
            "  pool: {} hits / {} misses ({:.1}% hit), {} leases outstanding",
            report.pool_hits,
            report.pool_misses,
            if pool_total == 0 {
                0.0
            } else {
                100.0 * report.pool_hits as f64 / pool_total as f64
            },
            report.pool_outstanding
        );
        if report.durable {
            println!(
                "  durability: {} WAL appends in {} writes ({:.2} appends/write), \
                 {} snapshots, {} updates resent, {} crash/restart cycles, fsync every {}",
                report.wal_appends,
                report.wal_writes,
                if report.wal_writes == 0 {
                    0.0
                } else {
                    report.wal_appends as f64 / report.wal_writes as f64
                },
                report.snapshots_written,
                report.resent,
                report.crash_restarts,
                report.fsync_every
            );
            println!(
                "  memory: {} WAL bytes, last snapshot {} bytes (growth x{:.2}), \
                 {} live + {} sealed trace events, max window {}",
                report.wal_bytes,
                report.snapshot_bytes,
                report.snapshot_growth,
                report.trace_events,
                report.sealed_events,
                report.max_window
            );
        }
        if let Some(nem) = &nemesis {
            let c = nem.schedule().fault_counts();
            println!(
                "  chaos: seed {}, {} decisions ({} delivered, {} delayed, {} reordered, \
                 {} duplicated, {} dropped, {} cut, {} cut mid-frame, {} partition-swallowed), \
                 decision log replays from the seed",
                nem.schedule().config().seed,
                c.delivered + c.faulted(),
                c.delivered,
                c.delayed,
                c.reordered,
                c.duplicated,
                c.dropped,
                c.cut,
                c.cut_mid,
                c.partition_dropped
            );
        }
        println!(
            "  oracle: {}",
            if report.verdict.consistent {
                format!(
                    "causally consistent ({} partitions verified independently)",
                    report.partitions
                )
            } else {
                format!(
                    "{} safety / {} liveness violations",
                    report.verdict.safety_violations, report.verdict.liveness_violations
                )
            }
        );
        println!("  report written to {out_path}");
    }
    if !report.verdict.consistent {
        return Err("oracle verdict: NOT causally consistent".into());
    }
    if max_frames_per_flush > 0.0 {
        // A gate that trusts a broken counter is no gate: updates moved, so
        // flushes and frames must both have been accounted.
        if report.messages_sent > 0 && (report.flushes == 0 || report.frames_sent == 0) {
            return Err(format!(
                "frame accounting broken: {} updates sent but {} flushes / {} frames counted",
                report.messages_sent, report.flushes, report.frames_sent
            ));
        }
        if report.frames_per_flush >= max_frames_per_flush {
            return Err(format!(
                "frame packing regressed: {:.2} frames per flush (limit {max_frames_per_flush}) — \
                 multi-partition flushes are being split into per-partition frames again",
                report.frames_per_flush
            ));
        }
    }
    if max_wal_writes_per_op > 0.0 {
        // Same principle as the frame gate: a records-moved run with zero
        // write syscalls counted means the accounting broke, not that the
        // path got infinitely fast.
        if report.wal_appends > 0 && report.wal_writes == 0 {
            return Err(format!(
                "WAL write accounting broken: {} appends but 0 write syscalls counted",
                report.wal_appends
            ));
        }
        if report.wal_writes > report.wal_appends {
            return Err(format!(
                "WAL write accounting broken: {} write syscalls for {} appends \
                 (group commit can only coalesce)",
                report.wal_writes, report.wal_appends
            ));
        }
        let per_op = report.wal_writes as f64 / report.ops.max(1) as f64;
        if per_op >= max_wal_writes_per_op {
            return Err(format!(
                "WAL group commit regressed: {per_op:.3} write syscalls per op \
                 (limit {max_wal_writes_per_op}) — sweeps are no longer \
                 coalescing their appends into one write",
            ));
        }
    }
    if max_pool_miss_rate > 0.0 {
        let pool_total = report.pool_hits + report.pool_misses;
        if pool_total == 0 {
            return Err("pool gate needs pool traffic: zero leases were counted — \
                 the hot path is no longer pooling its buffers"
                .into());
        }
        let miss_rate = report.pool_misses as f64 / pool_total as f64;
        if miss_rate >= max_pool_miss_rate {
            return Err(format!(
                "buffer pool regressed: miss rate {miss_rate:.3} \
                 (limit {max_pool_miss_rate}) over {pool_total} leases — \
                 the steady state is allocating again",
            ));
        }
    }
    if max_snapshot_bytes > 0 && report.snapshot_bytes > max_snapshot_bytes {
        return Err(format!(
            "snapshot size regressed: {} bytes (limit {max_snapshot_bytes}) — \
             snapshots are growing with history instead of live state",
            report.snapshot_bytes
        ));
    }
    if max_snapshot_growth > 0.0 {
        // snapshot_growth is only computed from nodes that wrote two or
        // more snapshots — the cluster-wide sum is not enough (four nodes
        // with one snapshot each would gate nothing).
        if report.snapshot_growth <= 0.0 {
            return Err(format!(
                "snapshot growth gate needs some node with at least two snapshots \
                 ({} written cluster-wide) — lower --snapshot-every or raise --ops",
                report.snapshots_written
            ));
        }
        // Snapshots embed the unacked resend windows, which wobble by a
        // few hundred bytes with ack timing — so the ratio gate carries a
        // small absolute allowance. The regression it exists to catch
        // (snapshots growing with history) is tens to hundreds of
        // kilobytes at smoke scale, far beyond it.
        const GROWTH_ALLOWANCE_BYTES: f64 = 4096.0;
        let regressed = statuses.iter().any(|s| {
            s.snapshots_written > 1
                && s.first_snapshot_bytes > 0
                && s.snapshot_bytes as f64
                    >= (max_snapshot_growth * s.first_snapshot_bytes as f64)
                        .max(s.first_snapshot_bytes as f64 + GROWTH_ALLOWANCE_BYTES)
        });
        if regressed {
            return Err(format!(
                "snapshot growth regressed: last/first ratio {:.2} (limit \
                 {max_snapshot_growth} plus a {GROWTH_ALLOWANCE_BYTES:.0}-byte \
                 noise allowance) — trace compaction is no longer keeping \
                 snapshots flat",
                report.snapshot_growth
            ));
        }
    }
    if max_threads > 0 {
        if report.process_threads == 0 {
            return Err("thread gate needs /proc/self/status; it was unreadable".into());
        }
        if report.process_threads > max_threads {
            return Err(format!(
                "thread count regressed: {} threads mid-drive (limit {max_threads}) — \
                 connection handling is spawning threads again instead of \
                 multiplexing onto the reactor pool",
                report.process_threads
            ));
        }
    }
    if max_fds > 0 {
        if report.process_fds == 0 {
            return Err("fd gate needs /proc/self/fd; it was unreadable".into());
        }
        if report.process_fds > max_fds {
            return Err(format!(
                "open file descriptors regressed: {} fds mid-drive (limit {max_fds})",
                report.process_fds
            ));
        }
    }
    Ok(())
}

/// Current thread count of this process (0 if /proc is unavailable).
fn process_threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Open file descriptors of this process (0 if /proc is unavailable).
fn process_fds() -> u64 {
    std::fs::read_dir("/proc/self/fd")
        .map(|dir| dir.count() as u64)
        .unwrap_or(0)
}

fn main() {
    if let Err(message) = run() {
        eprintln!("prcc-load: {message}");
        exit(1);
    }
}
