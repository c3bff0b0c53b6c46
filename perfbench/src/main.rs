//! `prcc-perfbench` — the repository benchmark.
//!
//! ```text
//! prcc-perfbench --workload ring-write --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Launches `LoopbackCluster`s in this process, drives a seeded open-loop
//! workload at them, drains them, checks every run (oracle verdict,
//! misroutes, window evictions, every op answered, update copies
//! accounted for) and prints one JSON result line last on stdout.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! live phases with spans around the benchmark's calls, replays the op
//! stream through each layer alone, and reports the per-layer metrics.
//! See `README.md`.

#![forbid(unsafe_code)]

mod echo;
mod gen;
mod replay;
mod run;
mod stats;
mod trace;
mod workload;

use gen::Timing;
use prcc_clock::{ClockState, Protocol};
use prcc_graph::analysis::compression_report;
use prcc_graph::TimestampGraph;
use prcc_service::wire::NodeStatus;
use prcc_service::MetricsSnapshot;
use run::{io_err, total, Run, Segment, SEGMENTS};
use stats::median;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use workload::{Workload, END_TO_END, PER_LAYER, WORKLOADS};

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        raw.iter()
            .position(|a| a == flag)
            .and_then(|at| raw.get(at + 1))
            .map(String::as_str)
    };
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        value(flag).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("invalid value '{v}' for {flag}"))
        })
    };
    let name = value("--workload").ok_or("--workload is required")?;
    let workload = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' ({})", names.join("|"))
    })?;
    let seconds = number("--seconds", 20)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match number("--trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed", 1)?,
        seconds,
        trace,
    })
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn gauge(m: &MetricsSnapshot, name: &str) -> u64 {
    m.gauge(name).or_else(|| m.counter(name)).unwrap_or(0)
}

/// Sum over segments of what a status counter gained in the fixed phase.
fn status_delta(segs: &[Segment], f: fn(&NodeStatus) -> u64) -> f64 {
    segs.iter()
        .map(|s| (total(&s.status_b, f) - total(&s.status_a, f)) as f64)
        .sum()
}

/// Sum over segments of what a metric gained in the fixed phase.
fn metric_delta(segs: &[Segment], name: &str) -> f64 {
    segs.iter()
        .map(|s| {
            let (a, b) = (&s.scrapes[0], &s.scrapes[s.scrapes.len() - 1]);
            gauge(b, name).saturating_sub(gauge(a, name)) as f64
        })
        .sum()
}

/// A node histogram over the fixed phases: the pooled summary, plus the
/// median across scrape windows of each window's p99 and the window count.
fn node_hist(segs: &[Segment], name: &str) -> (stats::Summary, f64, usize) {
    let mut pooled = Vec::new();
    let mut p99s = Vec::new();
    for s in segs {
        stats::merge_counts(&mut pooled, &s.hist(name));
        for pair in s.scrapes.windows(2) {
            let window = stats::summarize_buckets(&stats::hist_delta(&pair[0], &pair[1], name));
            if window.count > 0 {
                p99s.push(window.p99);
            }
        }
    }
    let windows = p99s.len();
    (stats::summarize_buckets(&pooled), median(p99s), windows)
}

/// Each segment's median of a client-side time.
fn segment_p50s(segs: &[Segment], read: bool, f: fn(&Timing) -> f64) -> Vec<f64> {
    segs.iter().map(|s| median(s.times(read, f))).collect()
}

/// Each segment's median of a node histogram over its fixed phase.
fn segment_hist_p50s(segs: &[Segment], name: &str) -> Vec<f64> {
    segs.iter()
        .map(|s| stats::summarize_buckets(&s.hist(name)).p50)
        .collect()
}

/// Client-side times pooled over segments, with the median of the
/// per-window p99s and the window count.
fn client_times(
    segs: &[Segment],
    read: bool,
    f: fn(&Timing) -> f64,
) -> (stats::Summary, f64, usize) {
    let mut pooled = Vec::new();
    let mut p99s = Vec::new();
    for s in segs {
        let v = s.times(read, f);
        p99s.extend(stats::window_p99s(&v));
        pooled.extend(v);
    }
    let windows = p99s.len();
    (stats::summarize(&mut pooled), median(p99s), windows)
}

fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// What a run reports.
struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    problems: Vec<String>,
    attempted: usize,
    failed: usize,
    provenance: String,
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order.
fn per_layer(
    run: &mut Run,
    segs: &[Segment],
    work: &Path,
    out_dir: &Path,
) -> Result<Vec<f64>, String> {
    let w = run.w;
    let mut tracer = run.tracer.take().expect("traced run");
    let echo_rtt = echo::echo_rtt_us(2000, &mut tracer).map_err(io_err("reactor echo"))?;
    let cfg = run.config("");
    let flush_every = (w.rate * cfg.flush_interval.as_secs_f64()).round().max(1.0) as usize;
    let wal_group = if w.durable {
        ratio(
            metric_delta(segs, "wal_appends"),
            metric_delta(segs, "wal_writes"),
        )
        .round()
        .max(1.0) as usize
    } else {
        1
    };
    let mut replayed = replay::Replayed::default();
    for (k, seg) in segs.iter().enumerate() {
        let wal_path = work.join(format!("replay-{k}.wal"));
        let r = replay::replay(
            &replay::Params {
                map: &run.map,
                protocol: &run.protocol,
                ops: &seg.log,
                pad: w.value_bytes,
                flush_every,
                wal_group,
                wal_path: &wal_path,
            },
            &mut tracer,
        )
        .map_err(io_err("replay"))?;
        let _ = std::fs::remove_file(&wal_path);
        let sent = total(&seg.status_end, |s| s.messages_sent);
        if r.delivered != sent {
            run.problems.push(format!(
                "segment {k}: the replay delivered {} update copies; the live cluster sent {sent}",
                r.delivered
            ));
        }
        replayed.add(&r);
    }

    let t = |name: &str| tracer.totals(name);
    let per = |name: &str, den: f64| ratio(t(name).self_ns as f64, den);
    let delivered = replayed.delivered as f64;
    let writes = replayed.writes as f64;
    let codec_ns = per("client.encode", t("client.encode").count as f64)
        + per("client.decode", t("client.decode").count as f64);
    let storage_us = if w.durable {
        per("storage.append_batch", writes) / 1e3
    } else {
        0.0
    };
    let write_path = (codec_ns + per("core.write", writes)) / 1e3 + storage_us;
    // One update copy's way to visibility: its write at the origin, then
    // its share of the frame encode and decode, and its apply.
    let visible_path = (per("core.write", writes)
        + per("wire.encode", delivered)
        + per("wire.decode", delivered)
        + per("core.apply", delivered))
        / 1e3
        + storage_us;
    let (rtt_write, _, _) = client_times(segs, false, Timing::rtt_us);
    let (rtt_read, _, _) = client_times(segs, true, Timing::rtt_us);
    let (late, _, _) = client_times(segs, false, Timing::late_us);
    let (visible, _, _) = node_hist(segs, "visibility_us");
    let (stall, _, _) = node_hist(segs, "pending_stall_us");
    // Write latency of ops due in traced blocks against untraced ones.
    let block_ns = (run.plan.fixed_s * 1e9 / run::TRACE_BLOCKS) as u64;
    let split = |traced: bool| {
        let v: Vec<f64> = segs
            .iter()
            .flat_map(|s| {
                s.fixed
                    .timings
                    .iter()
                    .zip(&s.fixed_ops)
                    .filter(|(tm, op)| {
                        !op.read
                            && tm.answered()
                            && gen::traced_block(Some(block_ns), tm.due_ns) == traced
                    })
                    .map(|(tm, _)| tm.latency_us())
            })
            .collect();
        median(v)
    };
    let g = run.map.graph();
    let roles = g.num_replicas() as f64;
    let counters: usize = g
        .replicas()
        .map(|i| run.protocol.new_clock(i).entries())
        .sum();
    let rank: usize = g
        .replicas()
        .map(|i| compression_report(g, &TimestampGraph::compute(g, i)).rank_entries)
        .sum();
    let fixed_ops: f64 = segs.iter().map(|s| s.fixed_ops.len() as f64).sum();
    let pool_misses = metric_delta(segs, "pool_misses");
    let values = vec![
        rtt_write.p50,
        rtt_read.p50,
        late.p99,
        codec_ns,
        echo_rtt,
        ratio(status_delta(segs, |s| s.reactor_wakeups), fixed_ops),
        ratio(
            status_delta(segs, |s| s.reactor_events),
            status_delta(segs, |s| s.reactor_wakeups),
        ),
        ratio(pool_misses, pool_misses + metric_delta(segs, "pool_hits")),
        per("core.write", writes),
        per("core.apply", delivered),
        ratio(replayed.buffered_applies as f64, replayed.applies as f64),
        stall.p99,
        ratio(replayed.clock_bytes as f64, writes),
        counters as f64 / roles,
        rank as f64 / roles,
        per("wire.encode", delivered),
        per("wire.decode", delivered),
        ratio(
            status_delta(segs, |s| s.messages_sent),
            status_delta(segs, |s| s.batches_sent),
        ),
        ratio(
            status_delta(segs, |s| s.bytes_out),
            status_delta(segs, |s| s.messages_sent),
        ) - ratio(replayed.update_bytes as f64, delivered),
        per(
            "storage.append_batch",
            t("storage.append_batch").count as f64,
        ) / 1e3,
        ratio(metric_delta(segs, "wal_writes"), fixed_ops),
        ratio(replayed.wal_bytes as f64, writes),
        segs.iter()
            .map(|s| total(&s.status_end, |st| st.snapshots_written) as f64)
            .sum(),
        median(segs.iter().map(|s| s.launch_s).collect()),
        median(segs.iter().map(|s| s.drain_s).collect()),
        median(segs.iter().map(|s| s.verify_s).collect()),
        split(true) - split(false),
        write_path,
        rtt_write.p50 - write_path,
        visible_path,
        visible.p50 - visible_path,
    ];
    let live_batches: u64 = segs
        .iter()
        .map(|s| total(&s.status_end, |st| st.batches_sent))
        .sum();
    std::fs::write(out_dir.join("spans.jsonl"), tracer.spans_jsonl())
        .map_err(io_err("writing spans"))?;
    std::fs::write(
        out_dir.join("self_times.json"),
        format!(
            "{{\n  \"replay\": {{\"writes\": {}, \"reads\": {}, \"delivered\": {}, \"frames\": {}, \
             \"wal_batches\": {}, \"flush_every\": {flush_every}, \"wal_group\": {wal_group}}},\n  \
             \"live\": {{\"batches_sent\": {live_batches}}},\n  \"spans\": {}\n}}\n",
            replayed.writes,
            replayed.reads,
            replayed.delivered,
            replayed.frames,
            replayed.wal_batches,
            tracer.totals_json()
        ),
    )
    .map_err(io_err("writing self times"))?;
    Ok(values)
}

fn measure(args: &Args, work: &Path, out_dir: &Path) -> Result<Outcome, String> {
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < 2 {
        return Err("the generator runs a sender and a receiver thread; it needs 2 CPUs".into());
    }
    let mut run = Run::new(w, args.seed, args.seconds, args.trace, work.to_path_buf())?;
    // Untraced runs add segments while the host disturbed too many.
    let mut segs: Vec<Segment> = Vec::new();
    for k in 0..SEGMENTS + run::EXTRA_SEGMENTS {
        let undisturbed = segs.iter().filter(|s| !s.disturbed()).count();
        if k >= SEGMENTS && (args.trace || undisturbed >= run::UNDISTURBED_WANTED) {
            break;
        }
        segs.push(run.segment(k)?);
    }
    // The end-to-end medians come from the segments the host left alone,
    // when at least two were.
    let measured: Vec<usize> = match (0..segs.len())
        .filter(|&k| !segs[k].disturbed())
        .collect::<Vec<_>>()
    {
        clean if clean.len() >= 2 => clean,
        _ => (0..segs.len()).collect(),
    };
    let pick = |v: &[f64]| median(measured.iter().map(|&k| v[k]).collect());
    let setups: Vec<f64> = measured
        .iter()
        .flat_map(|&k| segs[k].setups_s.iter().copied())
        .collect();
    let failed = run.refused + run.unanswered;
    if failed > 0 {
        run.problems.push(format!(
            "{} ops refused and {} unanswered of {}",
            run.refused, run.unanswered, run.attempted
        ));
    }

    let (write, write_p99, write_windows) = client_times(&segs, false, Timing::latency_us);
    let (read, read_p99, read_windows) = client_times(&segs, true, Timing::latency_us);
    let (visible, visible_p99, visible_windows) = node_hist(&segs, "visibility_us");
    let write_p50s = segment_p50s(&segs, false, Timing::latency_us);
    let read_p50s = segment_p50s(&segs, true, Timing::latency_us);
    let visible_p50s = segment_hist_p50s(&segs, "visibility_us");
    let values = if args.trace {
        per_layer(&mut run, &segs, work, out_dir)?
    } else {
        vec![
            median(setups),
            pick(&write_p50s),
            pick(&read_p50s),
            pick(&visible_p50s),
            ratio(
                status_delta(&segs, |s| s.bytes_out),
                status_delta(&segs, |s| s.issued),
            ),
            segs[0].rss_mb,
        ]
    };
    let names: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (&(name, unit), v) in names.iter().zip(values) {
        if !v.is_finite() {
            run.problems.push(format!("metric {name} is not finite"));
        }
        metrics.push((name, v, unit));
    }

    let cfg = run.config("");
    let plan = &run.plan;
    let per_segment: Vec<String> = segs
        .iter()
        .enumerate()
        .map(|(k, s)| {
            format!(
                "{{\"write_p50_us\": {:.2}, \"read_p50_us\": {:.2}, \"visible_p50_us\": {:.2}, \
                 \"setups_s\": {:?}, \"cpu_cores\": {:.2}, \
                 \"steal_pct\": {:.2}}}",
                write_p50s[k], read_p50s[k], visible_p50s[k], s.setups_s, s.cpu_cores, s.steal_pct
            )
        })
        .collect();
    let mut prov = String::new();
    let _ = write!(
        prov,
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"git_commit\": \"{}\", \"topology\": \"{}\", \"nodes\": {}, \"partitions\": {}, \
         \"read_frac\": {}, \"value_bytes\": {}, \"hotspot\": {}, \"offered_rate_ops_s\": {}, \
         \"durable\": {}, \"fsync_every\": {}, \"snapshot_every\": {}, \
         \"compact_at\": {}, \"batch_max\": {}, \"flush_us\": {}, \"sample_every\": {}, \
         \"segments\": {SEGMENTS}, \"warm_s\": {}, \"fixed_s\": {:.3}, \"probe_s\": {:.3}, \
         \"samples\": {{\"write\": {}, \"write_windows\": {write_windows}, \
         \"read\": {}, \"read_windows\": {read_windows}, \"visible\": {}, \
         \"visible_windows\": {visible_windows}}}, \
         \"windowed_p99_us\": {{\"write\": {write_p99:.1}, \"read\": {read_p99:.1}, \"visible\": {visible_p99:.1}}}, \
         \"pooled_p99_us\": {{\"write\": {:.1}, \"read\": {:.1}, \"visible\": {:.1}}}, \
         \"p999_us\": {{\"write\": {:.1}, \"read\": {:.1}, \"visible\": {:.1}}}, \
         \"per_segment\": [{}], \"measured_segments\": {:?}, \"problems\": [{}], \"failed_ratio\": {}}}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_commit(),
        w.topology,
        run.map.num_nodes(),
        w.partitions,
        w.read_frac,
        w.value_bytes,
        w.hotspot.map_or("null".to_string(), |h| h.to_string()),
        w.rate,
        w.durable,
        cfg.fsync_every,
        cfg.snapshot_every,
        cfg.trace_compact_at,
        cfg.batch_max,
        cfg.flush_interval.as_micros(),
        cfg.sample_every,
        plan.warm_s,
        plan.fixed_s,
        plan.probe_s,
        write.count,
        read.count,
        visible.count,
        write.p99,
        read.p99,
        visible.p99,
        write.p999,
        read.p999,
        visible.p999,
        per_segment.join(", "),
        measured,
        run.problems
            .iter()
            .map(|p| format!("{p:?}"))
            .collect::<Vec<_>>()
            .join(", "),
        ratio(failed as f64, run.attempted as f64),
    );
    Ok(Outcome {
        metrics,
        problems: std::mem::take(&mut run.problems),
        attempted: run.attempted,
        failed,
        provenance: prov,
    })
}

fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.problems.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn run_once(args: &Args) -> Result<Outcome, String> {
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    );
    let work = WorkDir(PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id())));
    let out_dir = PathBuf::from(".bench_out").join(&tag);
    std::fs::create_dir_all(&work.0)
        .and_then(|()| std::fs::create_dir_all(&out_dir))
        .map_err(io_err("creating run directories"))?;
    let outcome = measure(args, &work.0, &out_dir)?;
    let _ = std::fs::write(
        out_dir.join("result.json"),
        format!(
            "{{\"provenance\": {},\n \"result\": {}}}\n",
            outcome.provenance,
            result_line(&outcome)
        ),
    );
    Ok(outcome)
}

fn main() {
    let code = match parse_args().and_then(|args| run_once(&args)) {
        Err(message) => {
            eprintln!("prcc-perfbench: {message}");
            1
        }
        Ok(outcome) => {
            for (name, v, unit) in &outcome.metrics {
                eprintln!("  {name:<32} {v:>14.3} {unit}");
            }
            for problem in &outcome.problems {
                eprintln!("prcc-perfbench: check failed: {problem}");
            }
            println!("{{\"provenance\": {}}}", outcome.provenance);
            println!("{}", result_line(&outcome));
            i32::from(!outcome.problems.is_empty())
        }
    };
    std::process::exit(code);
}
