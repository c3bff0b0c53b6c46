//! The open-loop load generator.
//!
//! One client connection per node. A sender thread issues each op when
//! it falls due, whether or not earlier replies have come back; a node
//! answers each connection in order, so requests pipeline and every reply
//! belongs to the oldest unanswered request on its connection. A receiver
//! thread waits on all connections with epoll and stamps each reply. Two
//! threads in all.
//!
//! Latency counts from the op's due time, so a stall also charges the
//! wait it imposes on the requests queued behind it; how late the sender
//! itself ran is kept apart (`sent - due`).

use crate::trace::{Tracer, NO_OP};
use mio::{Events, Interest, Poll, Token};
use parking_lot::Mutex;
use prcc_graph::{PartitionId, RegisterId};
use prcc_service::wire::{
    append_frame, decode_response, encode_request_into, read_frame_into, ClientRequest,
    ClientResponse,
};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// How long the receiver waits for the last replies after the last op
/// fell due before counting the rest as unanswered.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(10);

/// Most ops the sender encodes per wakeup before writing them out.
const MAX_BATCH: usize = 256;

/// One client operation, already routed to the node that serves it.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub node: usize,
    pub partition: PartitionId,
    pub register: RegisterId,
    pub value: u64,
    pub read: bool,
}

impl Op {
    pub fn request(&self, pad: usize) -> ClientRequest {
        if self.read {
            ClientRequest::Read {
                partition: self.partition,
                register: self.register,
            }
        } else {
            ClientRequest::Write {
                partition: self.partition,
                register: self.register,
                value: self.value,
                pad,
            }
        }
    }
}

/// Not answered before the timeout.
pub const UNANSWERED: u64 = u64::MAX;

/// One op's times in nanoseconds since the phase start.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
}

impl Timing {
    pub fn answered(&self) -> bool {
        self.done_ns != UNANSWERED
    }
    /// Due-time latency.
    pub fn latency_us(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e3
    }
    /// Send-to-reply round trip.
    pub fn rtt_us(&self) -> f64 {
        (self.done_ns - self.sent_ns) as f64 / 1e3
    }
    pub fn late_us(&self) -> f64 {
        (self.sent_ns - self.due_ns) as f64 / 1e3
    }
}

/// Tracing schedule of a traced phase: spans are recorded for ops due in
/// odd blocks of `block_ns` and not in even ones, so one run yields both
/// a traced and an untraced latency sample.
#[derive(Debug, Clone, Copy)]
pub struct Blocks {
    pub block_ns: u64,
    /// Span-id space of the phase's two threads (`threads`, `threads + 1`).
    pub threads: u64,
}

/// Whether `at_ns` falls in a traced (odd) block.
pub fn traced_block(block_ns: Option<u64>, at_ns: u64) -> bool {
    block_ns.is_some_and(|b| (at_ns / b) % 2 == 1)
}

pub struct PhaseRun {
    pub timings: Vec<Timing>,
    /// Requests the node answered with `ok = false`.
    pub refused: usize,
    pub unanswered: usize,
    pub tracer: Option<Tracer>,
}

/// Drives `ops` at `rate` ops/s over `conns` (indexed by node) and waits
/// for every reply.
pub fn run_phase(
    conns: &[TcpStream],
    ops: &[Op],
    rate: f64,
    pad: usize,
    epoch: Instant,
    blocks: Option<Blocks>,
) -> io::Result<PhaseRun> {
    let start = Instant::now() + Duration::from_millis(1);
    let interval_ns = 1e9 / rate;
    let due = |k: usize| (k as f64 * interval_ns) as u64;
    let queues: Vec<Mutex<VecDeque<(usize, u64)>>> =
        conns.iter().map(|_| Mutex::new(VecDeque::new())).collect();
    let abort = AtomicBool::new(false);
    let block_ns = blocks.map(|b| b.block_ns);
    let since_start = || Instant::now().saturating_duration_since(start).as_nanos() as u64;

    let (sent, received) = thread::scope(|s| {
        let sender = s.spawn(|| -> io::Result<Option<Tracer>> {
            fine_timer_slack();
            let mut tracer = blocks.map(|b| Tracer::new(epoch, b.threads));
            let mut wbufs: Vec<Vec<u8>> = conns.iter().map(|_| Vec::new()).collect();
            let mut batch: Vec<Vec<usize>> = conns.iter().map(|_| Vec::new()).collect();
            let mut k = 0;
            let result = (|| {
                while k < ops.len() {
                    let now = since_start();
                    if due(k) > now {
                        thread::sleep(Duration::from_nanos(due(k) - now));
                        continue;
                    }
                    let traced = traced_block(block_ns, due(k));
                    let tr = tracer.as_mut().filter(|_| traced);
                    span_begin(tr, "gen.tick", NO_OP);
                    let mut j = k;
                    while j < ops.len() && due(j) <= now && j - k < MAX_BATCH {
                        let op = &ops[j];
                        span_begin(
                            tracer.as_mut().filter(|_| traced),
                            "client.encode",
                            j as u64,
                        );
                        append_frame(&mut wbufs[op.node], |out| {
                            encode_request_into(&op.request(pad), out)
                        })?;
                        span_end(tracer.as_mut().filter(|_| traced));
                        batch[op.node].push(j);
                        j += 1;
                    }
                    for (c, idxs) in batch.iter_mut().enumerate() {
                        if idxs.is_empty() {
                            continue;
                        }
                        let sent_ns = since_start();
                        queues[c].lock().extend(idxs.iter().map(|&i| (i, sent_ns)));
                        span_begin(tracer.as_mut().filter(|_| traced), "client.write", NO_OP);
                        (&conns[c]).write_all(&wbufs[c])?;
                        span_end(tracer.as_mut().filter(|_| traced));
                        wbufs[c].clear();
                        idxs.clear();
                    }
                    span_end(tracer.as_mut().filter(|_| traced));
                    k = j;
                }
                Ok(())
            })();
            if result.is_err() {
                abort.store(true, Ordering::Relaxed);
            }
            result.map(|()| tracer)
        });
        let receiver = s.spawn(|| -> io::Result<(Vec<Timing>, usize, Option<Tracer>)> {
            let mut tracer = blocks.map(|b| Tracer::new(epoch, b.threads + 1));
            let mut timings = vec![
                Timing {
                    due_ns: 0,
                    sent_ns: 0,
                    done_ns: UNANSWERED,
                };
                ops.len()
            ];
            let mut poll = Poll::new()?;
            for (i, conn) in conns.iter().enumerate() {
                poll.register(conn, Token(i), Interest::READABLE)?;
            }
            let mut events = Events::with_capacity(64);
            let mut rbufs: Vec<Vec<u8>> = conns.iter().map(|_| Vec::new()).collect();
            let mut chunk = vec![0u8; 1 << 16];
            let (mut answered, mut refused) = (0, 0);
            let give_up = due(ops.len().saturating_sub(1)) + ANSWER_TIMEOUT.as_nanos() as u64;
            while answered < ops.len() && since_start() < give_up && !abort.load(Ordering::Relaxed)
            {
                poll.poll(&mut events, Some(Duration::from_millis(20)))?;
                let traced = traced_block(block_ns, since_start());
                span_begin(tracer.as_mut().filter(|_| traced), "gen.wake", NO_OP);
                for event in events.iter() {
                    let c = event.token().0;
                    span_begin(tracer.as_mut().filter(|_| traced), "client.read", NO_OP);
                    // Level-triggered readiness: this read cannot block, and
                    // bytes beyond the chunk wake the next poll.
                    let got = (&conns[c]).read(&mut chunk)?;
                    span_end(tracer.as_mut().filter(|_| traced));
                    if got == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            format!("node {c} closed its client connection"),
                        ));
                    }
                    let done_ns = since_start();
                    let rbuf = &mut rbufs[c];
                    rbuf.extend_from_slice(&chunk[..got]);
                    let mut at = 0;
                    while rbuf.len() - at >= 4 {
                        let len = u32::from_le_bytes(rbuf[at..at + 4].try_into().expect("4 bytes"))
                            as usize;
                        if rbuf.len() - at - 4 < len {
                            break;
                        }
                        let (idx, sent_ns) = queues[c]
                            .lock()
                            .pop_front()
                            .ok_or_else(|| protocol_error("reply without a request"))?;
                        let due_ns = due(idx);
                        let tr = tracer.as_mut().filter(|_| traced_block(block_ns, due_ns));
                        let ok =
                            span(tr, "client.decode", idx as u64, || {
                                match decode_response(&rbuf[at + 4..at + 4 + len])? {
                                    ClientResponse::WriteAck { ok } if !ops[idx].read => Ok(ok),
                                    ClientResponse::ReadResp { ok, .. } if ops[idx].read => Ok(ok),
                                    _ => Err(protocol_error("reply of the wrong kind")),
                                }
                            })?;
                        refused += usize::from(!ok);
                        timings[idx] = Timing {
                            due_ns,
                            sent_ns,
                            done_ns,
                        };
                        answered += 1;
                        at += 4 + len;
                    }
                    rbuf.drain(..at);
                }
                span_end(tracer.as_mut().filter(|_| traced));
            }
            Ok((timings, refused, tracer))
        });
        (
            sender.join().expect("sender thread panicked"),
            receiver.join().expect("receiver thread panicked"),
        )
    });
    let sender_tracer = sent?;
    let (mut timings, refused, receiver_tracer) = received?;
    for (k, t) in timings.iter_mut().enumerate() {
        if !t.answered() {
            t.due_ns = due(k);
        }
    }
    let unanswered = timings.iter().filter(|t| !t.answered()).count();
    let tracer = match (sender_tracer, receiver_tracer) {
        (Some(mut a), Some(b)) => {
            a.absorb(b);
            Some(a)
        }
        _ => None,
    };
    Ok(PhaseRun {
        timings,
        refused,
        unanswered,
        tracer,
    })
}

/// Lets the sender's sleeps end within a microsecond of their deadline
/// instead of after the default 50µs timer slack, which would otherwise
/// show up as generator lateness on every op. Only the calling thread's
/// slack changes (`/proc/<tid>/timerslack_ns`); where the kernel offers no
/// such file the default stays and costs precision only.
fn fine_timer_slack() {
    if let Some(tid) = std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|me| me.file_name().map(|t| t.to_owned()))
    {
        let _ = std::fs::write(
            std::path::Path::new("/proc")
                .join(tid)
                .join("timerslack_ns"),
            "1000",
        );
    }
}

fn span_begin(tracer: Option<&mut Tracer>, name: &'static str, op: u64) {
    if let Some(t) = tracer {
        t.begin(name, op);
    }
}

fn span_end(tracer: Option<&mut Tracer>) {
    if let Some(t) = tracer {
        t.end();
    }
}

fn span<T>(tracer: Option<&mut Tracer>, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, op, |_| f()),
        None => f(),
    }
}

fn protocol_error(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// One blocking request/reply on an idle connection (set-up probes).
pub fn round_trip(conn: &TcpStream, req: &ClientRequest) -> io::Result<ClientResponse> {
    let mut buf = Vec::new();
    append_frame(&mut buf, |out| encode_request_into(req, out))?;
    (&mut &*conn).write_all(&buf)?;
    read_frame_into(&mut &*conn, &mut buf)?
        .ok_or_else(|| protocol_error("connection closed mid-request"))?;
    decode_response(&buf)
}
