//! One run: independent segments, each on a freshly launched cluster —
//! set up, warm up, a fixed-rate phase, a read probe on write-only
//! workloads, then drain and check.

use crate::gen::{self, Blocks, Op, PhaseRun, Timing};
use crate::stats;
use crate::trace::{Tracer, NO_OP};
use crate::workload::Workload;
use prcc_clock::{EdgeProtocol, Protocol};
use prcc_graph::PartitionMap;
use prcc_service::wire::{ClientRequest, ClientResponse, NodeStatus};
use prcc_service::{LoopbackCluster, MetricsSnapshot, ServiceConfig};
use prcc_workloads::ops::{generate_keyed_ops, key_affinity};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Independent segments per run, each on its own cluster. A cluster
/// settles into a latency level that depends on where its threads landed,
/// and the host sometimes starves the machine for seconds; the end-to-end
/// metrics are medians over the segments, so neither one placement nor
/// one starved stretch decides the run.
pub const SEGMENTS: usize = 6;
/// Clusters each segment sets up and tears down before its own, so
/// `setup_s` is a median over many set-ups, timed inside the segment whose
/// host steal decides whether they count.
pub const EXTRA_SETUPS: usize = 3;
/// A generator that cannot sustain the offered rate falls behind without
/// bound, and most of its ops go out late; one that merely lost the CPU
/// for a while (the host takes it for tens of milliseconds at times) sends
/// its median op on time.
const LATE_P50_LIMIT_US: f64 = 1000.0;
/// A segment during which the host took more than this share of the
/// machine's CPU (steal, in percent) measured the host, not the program.
const STEAL_LIMIT_PCT: f64 = 5.0;
/// Undisturbed segments an untraced run wants, and how many segments it
/// may add to get them.
pub const UNDISTURBED_WANTED: usize = 4;
pub const EXTRA_SEGMENTS: usize = 2;
/// Visibility samples wanted per metrics scrape window.
const VISIBLE_WINDOW: f64 = 1000.0;
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// Span-tracing blocks per traced fixed phase (odd blocks traced).
pub const TRACE_BLOCKS: f64 = 10.0;

/// Share of a segment's load time the read probe of a write-only
/// workload takes.
const PROBE_SHARE: f64 = 0.25;

/// How a run spends its `--seconds`, per segment: the fixed-rate phase
/// and, on write-only workloads, the read probe split a segment's share.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warm_s: f64,
    pub fixed_s: f64,
    pub probe_s: f64,
}

impl Plan {
    pub fn new(seconds: u64, w: &Workload) -> Plan {
        let per_segment = seconds as f64 / SEGMENTS as f64;
        let probe_s = if w.read_frac > 0.0 {
            0.0
        } else {
            PROBE_SHARE * per_segment
        };
        Plan {
            warm_s: 0.1,
            fixed_s: per_segment - probe_s,
            probe_s,
        }
    }
}

/// What one segment measured.
pub struct Segment {
    /// The extra set-ups' seconds, then the segment's own.
    pub setups_s: Vec<f64>,
    pub launch_s: f64,
    pub fixed_ops: Vec<Op>,
    pub fixed: PhaseRun,
    /// The read-only probe of a write-only workload.
    pub probe: Option<(Vec<Op>, PhaseRun)>,
    /// Metrics before the fixed phase, during it, and after it drained.
    pub scrapes: Vec<MetricsSnapshot>,
    pub status_a: Vec<NodeStatus>,
    pub status_b: Vec<NodeStatus>,
    pub cpu_cores: f64,
    /// Share of the machine's CPU time the host took away (steal) during
    /// the segment, in percent.
    pub steal_pct: f64,
    pub drain_s: f64,
    pub verify_s: f64,
    pub status_end: Vec<NodeStatus>,
    /// Every op issued on this segment's cluster, in schedule order.
    pub log: Vec<Op>,
    /// Peak resident memory after the fixed phase and read probe.
    pub rss_mb: f64,
}

/// A launched cluster and the generator's connection to each of its nodes.
struct Live {
    cluster: LoopbackCluster,
    conns: Vec<TcpStream>,
}

impl Live {
    /// Closes the connections, then shuts the cluster down.
    fn shutdown(self) -> std::io::Result<()> {
        drop(self.conns);
        self.cluster.shutdown()
    }
}

/// State shared by a run's segments.
pub struct Run<'a> {
    pub w: &'a Workload,
    pub map: PartitionMap,
    pub protocol: Arc<EdgeProtocol>,
    pub plan: Plan,
    pub traced: bool,
    rng: ChaCha8Rng,
    next_value: u64,
    epoch: Instant,
    /// Main-thread spans plus every traced phase's (traced runs only).
    pub tracer: Option<Tracer>,
    phases: u64,
    pub refused: usize,
    pub unanswered: usize,
    pub attempted: usize,
    pub problems: Vec<String>,
    work: PathBuf,
}

pub fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

pub fn total(statuses: &[NodeStatus], f: impl Fn(&NodeStatus) -> u64) -> u64 {
    statuses.iter().map(f).sum()
}

/// Due-time latencies (or another per-op time) of the reads or writes.
fn times(run: &PhaseRun, ops: &[Op], read: bool, f: impl Fn(&Timing) -> f64) -> Vec<f64> {
    run.timings
        .iter()
        .zip(ops)
        .filter(|(t, op)| op.read == read && t.answered())
        .map(|(t, _)| f(t))
        .collect()
}

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`.
fn cpu_ticks() -> (f64, f64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.strip_prefix("cpu ")?.to_string();
            let ticks: Vec<f64> = line
                .split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect();
            // user nice system idle iowait irq softirq steal ...
            Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
        })
        .unwrap_or((0.0, 0.0))
}

/// CPU seconds this process has used (user + system), from
/// `/proc/self/stat` in clock ticks of 1/100 s.
fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // utime and stime: fields 14 and 15 of the line, 12 and 13
            // after the parenthesised command name.
            let rest = s.rsplit_once(')')?.1;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let ticks = |i: usize| fields.get(i)?.parse::<f64>().ok();
            Some((ticks(11)? + ticks(12)?) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Peak resident memory of this process so far.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

impl Segment {
    /// Whether the host took so much CPU that the segment measured it.
    pub fn disturbed(&self) -> bool {
        self.steal_pct > STEAL_LIMIT_PCT
    }

    /// A per-op time of the writes of the fixed phase, or of the reads:
    /// the fixed phase's on mixed workloads, the probe's on write-only ones.
    pub fn times(&self, read: bool, f: fn(&Timing) -> f64) -> Vec<f64> {
        let (ops, run) = match &self.probe {
            Some((ops, run)) if read => (ops, run),
            _ => (&self.fixed_ops, &self.fixed),
        };
        times(run, ops, read, f)
    }

    /// What a node histogram gained over the fixed phase.
    pub fn hist(&self, name: &str) -> Vec<(usize, u64)> {
        stats::hist_delta(
            &self.scrapes[0],
            &self.scrapes[self.scrapes.len() - 1],
            name,
        )
    }
}

impl<'a> Run<'a> {
    pub fn new(
        w: &'a Workload,
        seed: u64,
        seconds: u64,
        traced: bool,
        work: PathBuf,
    ) -> Result<Self, String> {
        let graph = (w.graph)();
        let map = PartitionMap::rotated(graph.clone(), w.partitions, graph.num_replicas())
            .map_err(|e| format!("partition map: {e}"))?;
        let epoch = Instant::now();
        Ok(Run {
            w,
            map,
            protocol: Arc::new(EdgeProtocol::new(graph)),
            plan: Plan::new(seconds, w),
            traced,
            rng: ChaCha8Rng::seed_from_u64(seed),
            next_value: 0,
            epoch,
            tracer: traced.then(|| Tracer::new(epoch, 0)),
            phases: 0,
            refused: 0,
            unanswered: 0,
            attempted: 0,
            problems: Vec::new(),
            work,
        })
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if let Some(t) = self.tracer.as_mut() {
            t.begin(name, NO_OP);
        }
        let out = f(self);
        if let Some(t) = self.tracer.as_mut() {
            t.end();
        }
        out
    }

    /// `count` ops from the run's seeded stream: keys drawn as `prcc-load`
    /// draws them, each routed to the node its key sticks to.
    fn ops(&mut self, count: usize, read_frac: f64) -> Vec<Op> {
        let keys = generate_keyed_ops(&self.map, count.max(1), self.w.hotspot, &mut self.rng);
        keys.into_iter()
            .map(|(key, _)| {
                let (partition, register) = self.map.locate(key).expect("key in universe");
                let holders = self.map.holder_nodes(partition, register);
                let read = read_frac >= 1.0 || (read_frac > 0.0 && self.rng.gen_bool(read_frac));
                self.next_value += 1;
                Op {
                    node: holders[key_affinity(key, holders.len())],
                    partition,
                    register,
                    value: self.next_value,
                    read,
                }
            })
            .collect()
    }

    /// The deployment every cluster of the run uses; durable ones keep
    /// their data under `dir` in the run's scratch directory.
    pub fn config(&self, dir: &str) -> ServiceConfig {
        ServiceConfig {
            pad_bytes: self.w.value_bytes,
            data_dir: self.w.durable.then(|| self.work.join(dir)),
            ..ServiceConfig::default()
        }
    }

    /// Sets a cluster up and tears it down again; returns the set-up
    /// seconds.
    fn bare_setup(&mut self, dir: &str) -> Result<f64, String> {
        let (live, setup_s, _) = self.setup(dir, &mut Vec::new())?;
        live.shutdown().map_err(io_err("shutdown"))?;
        if let Some(dir) = self.config(dir).data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(setup_s)
    }

    /// Update copies the share graph asks the nodes to send for `ops`.
    pub fn copies(&self, ops: &[Op]) -> u64 {
        ops.iter()
            .filter(|o| !o.read)
            .map(|o| {
                let role = self
                    .map
                    .role_on(o.partition, o.node)
                    .expect("routed to a host");
                self.protocol
                    .recipients(role, o.register)
                    .into_iter()
                    .filter(|&r| self.map.node_of(o.partition, r) != o.node)
                    .count() as u64
            })
            .sum()
    }

    fn drain(&mut self, cluster: &LoopbackCluster) -> Result<(), String> {
        let drained = self
            .span("cluster.drain", |_| cluster.drain(DRAIN_TIMEOUT))
            .map_err(io_err("drain"))?;
        if !drained {
            return Err("cluster failed to reach quiescence".into());
        }
        Ok(())
    }

    fn observe(
        &mut self,
        cluster: &LoopbackCluster,
    ) -> Result<(Vec<NodeStatus>, MetricsSnapshot), String> {
        let statuses = self
            .span("cluster.statuses", |_| cluster.statuses())
            .map_err(io_err("status"))?;
        let metrics = self
            .span("cluster.metrics", |_| cluster.metrics())
            .map_err(io_err("metrics"))?;
        Ok((statuses, metrics))
    }

    /// Drives `ops` open-loop at `rate`, scraping the cluster's metrics
    /// every `scrape_s` seconds meanwhile when asked.
    fn drive(
        &mut self,
        live: &Live,
        ops: &[Op],
        rate: f64,
        blocks_s: Option<f64>,
        scrape_s: Option<f64>,
        log: Option<&mut Vec<Op>>,
    ) -> Result<(PhaseRun, Vec<MetricsSnapshot>), String> {
        self.phases += 1;
        let blocks = blocks_s.map(|secs| Blocks {
            block_ns: (secs * 1e9) as u64,
            threads: 2 * self.phases,
        });
        let (pad, epoch) = (self.w.value_bytes, self.epoch);
        let (phase, scrapes) = thread::scope(|s| {
            let gen = s.spawn(|| gen::run_phase(&live.conns, ops, rate, pad, epoch, blocks));
            let mut scrapes = Vec::new();
            if let Some(every) = scrape_s {
                let t0 = Instant::now();
                let mut next = every;
                while !gen.is_finished() {
                    thread::sleep(Duration::from_millis(5));
                    if t0.elapsed().as_secs_f64() >= next {
                        next += every;
                        scrapes.push(live.cluster.metrics());
                    }
                }
            }
            (gen.join().expect("generator panicked"), scrapes)
        });
        let mut phase = phase.map_err(io_err("load generator"))?;
        let scrapes = scrapes
            .into_iter()
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(io_err("metrics scrape"))?;
        self.refused += phase.refused;
        self.unanswered += phase.unanswered;
        self.attempted += ops.len();
        if let Some(log) = log {
            log.extend_from_slice(ops);
        }
        if let (Some(t), Some(p)) = (self.tracer.as_mut(), phase.tracer.take()) {
            t.absorb(p);
        }
        Ok((phase, scrapes))
    }

    /// Launch, connect one client per node, write once at every node and
    /// wait until every copy of those writes is applied: the cluster then
    /// serves with every peer link up.
    fn setup(&mut self, dir: &str, log: &mut Vec<Op>) -> Result<(Live, f64, f64), String> {
        let cfg = self.config(dir);
        let t0 = Instant::now();
        let (protocol, map) = (Arc::clone(&self.protocol), self.map.clone());
        let cluster = self
            .span("cluster.launch", |_| {
                LoopbackCluster::launch_partitioned(protocol, map, &cfg, 0)
            })
            .map_err(io_err("launch"))?;
        let launch_s = t0.elapsed().as_secs_f64();
        let conns = self
            .span("cluster.connect", |_| {
                (0..cluster.len())
                    .map(|i| {
                        let conn = TcpStream::connect(cluster.addrs(i).1)?;
                        conn.set_nodelay(true)?;
                        Ok(conn)
                    })
                    .collect::<std::io::Result<Vec<_>>>()
            })
            .map_err(io_err("connect"))?;
        for (node, conn) in conns.iter().enumerate() {
            let (partition, role) = self.map.hosted_by(node)[0];
            let register = self
                .map
                .graph()
                .registers_of(role)
                .iter()
                .next()
                .expect("role stores");
            self.next_value += 1;
            let op = Op {
                node,
                partition,
                register,
                value: self.next_value,
                read: false,
            };
            let request = op.request(self.w.value_bytes);
            let reply = self
                .span("cluster.probe", |_| gen::round_trip(conn, &request))
                .map_err(io_err("set-up probe"))?;
            if reply != (ClientResponse::WriteAck { ok: true }) {
                return Err(format!("set-up probe write refused by node {node}"));
            }
            self.attempted += 1;
            log.push(op);
        }
        let copies = self.copies(&log[log.len() - cluster.len()..]);
        self.span("cluster.ready", |_| -> Result<(), String> {
            let deadline = Instant::now() + DRAIN_TIMEOUT;
            loop {
                let mut applied = 0;
                for conn in &conns {
                    match gen::round_trip(conn, &ClientRequest::Status) {
                        Ok(ClientResponse::Status(s)) => applied += s.applies,
                        Ok(_) => return Err("status request got another reply".into()),
                        Err(e) => return Err(format!("status: {e}")),
                    }
                }
                if applied >= copies {
                    return Ok(());
                }
                if Instant::now() >= deadline {
                    return Err("set-up writes never reached every replica".into());
                }
                thread::sleep(Duration::from_micros(200));
            }
        })?;
        Ok((
            Live { cluster, conns },
            t0.elapsed().as_secs_f64(),
            launch_s,
        ))
    }

    pub fn segment(&mut self, k: usize) -> Result<Segment, String> {
        let ticks0 = cpu_ticks();
        let mut log = Vec::new();
        let dir = format!("segment-{k}");
        let mut setups_s = (0..EXTRA_SETUPS)
            .map(|i| self.bare_setup(&format!("setup-{k}-{i}")))
            .collect::<Result<Vec<_>, _>>()?;
        let (live, setup_s, launch_s) = self.setup(&dir, &mut log)?;
        setups_s.push(setup_s);
        let cluster = &live.cluster;
        let (w, plan_fixed) = (self.w, self.plan.fixed_s);

        let warm = self.ops((w.rate * self.plan.warm_s) as usize, w.read_frac);
        self.drive(&live, &warm, w.rate, None, None, Some(&mut log))?;
        self.drain(cluster)?;
        let (status_a, metrics_a) = self.observe(cluster)?;

        let fixed_ops = self.ops((w.rate * plan_fixed) as usize, w.read_frac);
        let visible_rate = self.copies(&fixed_ops) as f64
            / plan_fixed
            / self.config(&dir).sample_every.max(1) as f64;
        let scrape_s = (VISIBLE_WINDOW / visible_rate.max(1.0))
            .max(0.5)
            .min(plan_fixed);
        let blocks = self.traced.then_some(plan_fixed / TRACE_BLOCKS);
        let (cpu0, wall0) = (cpu_seconds(), Instant::now());
        let (fixed, mid) = self.drive(
            &live,
            &fixed_ops,
            w.rate,
            blocks,
            Some(scrape_s),
            Some(&mut log),
        )?;
        let cpu_cores = (cpu_seconds() - cpu0) / wall0.elapsed().as_secs_f64();
        self.drain(cluster)?;
        let (status_b, metrics_b) = self.observe(cluster)?;
        let mut scrapes = vec![metrics_a];
        scrapes.extend(mid);
        scrapes.push(metrics_b);

        let mut late: Vec<f64> = fixed
            .timings
            .iter()
            .filter(|t| t.answered())
            .map(Timing::late_us)
            .collect();
        let late = stats::summarize(&mut late);
        if late.p50 > LATE_P50_LIMIT_US {
            self.problems.push(format!(
                "segment {k}: the generator could not keep its schedule: late p50 {:.0}us > {LATE_P50_LIMIT_US}us at {} ops/s",
                late.p50, w.rate
            ));
        }

        let probe = if w.read_frac > 0.0 {
            None
        } else {
            let ops = self.ops((w.rate * self.plan.probe_s) as usize, 1.0);
            let (run, _) = self.drive(&live, &ops, w.rate, None, None, Some(&mut log))?;
            Some((ops, run))
        };

        let rss_mb = rss_peak_mb();

        let drain_t0 = Instant::now();
        self.drain(cluster)?;
        let drain_s = drain_t0.elapsed().as_secs_f64();
        let (status_end, metrics_end) = self.observe(cluster)?;
        self.check(k, &log, &status_end, &metrics_end);

        let verify_t0 = Instant::now();
        let verdicts = self
            .span("checker.verify", |_| cluster.verify_partitions())
            .map_err(io_err("trace collection"))?;
        let verify_s = verify_t0.elapsed().as_secs_f64();
        for (p, verdict) in verdicts.iter().enumerate() {
            match verdict {
                Ok(v) if v.is_consistent() => {}
                Ok(v) => self.problems.push(format!(
                    "segment {k} partition {p}: {} safety / {} liveness violations",
                    v.safety.len(),
                    v.liveness.len()
                )),
                Err(e) => self.problems.push(format!(
                    "segment {k} partition {p}: trace replay failed: {e}"
                )),
            }
        }
        let ticks1 = cpu_ticks();
        let steal_pct = 100.0 * (ticks1.0 - ticks0.0) / (ticks1.1 - ticks0.1).max(1.0);
        self.span("cluster.shutdown", |_| live.shutdown())
            .map_err(io_err("shutdown"))?;
        if let Some(dir) = self.config(&dir).data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(Segment {
            setups_s,
            launch_s,
            fixed_ops,
            fixed,
            probe,
            scrapes,
            status_a,
            status_b,
            cpu_cores,
            steal_pct,
            drain_s,
            verify_s,
            status_end,
            log,
            rss_mb,
        })
    }

    /// The segment's correctness gates, on its drained cluster.
    fn check(&mut self, k: usize, log: &[Op], statuses: &[NodeStatus], metrics: &MetricsSnapshot) {
        let writes = log.iter().filter(|o| !o.read).count() as u64;
        let issued = total(statuses, |s| s.issued);
        if issued != writes {
            self.problems.push(format!(
                "segment {k}: nodes issued {issued} updates for {writes} writes"
            ));
        }
        let (sent, expected) = (total(statuses, |s| s.messages_sent), self.copies(log));
        if sent != expected {
            self.problems.push(format!(
                "segment {k}: nodes sent {sent} update copies; the share graph asks for {expected}"
            ));
        }
        let misrouted = total(statuses, |s| s.dropped_misrouted);
        if misrouted > 0 {
            self.problems
                .push(format!("segment {k}: {misrouted} updates misrouted"));
        }
        match metrics.gauge("core_window_evicted") {
            Some(0) => {}
            Some(n) => self
                .problems
                .push(format!("segment {k}: {n} resend-window entries evicted")),
            None => self
                .problems
                .push("metrics lack the core_window_evicted gauge".into()),
        }
    }
}
