//! Single-threaded replay of a run's op stream through each layer's public
//! functions, one span per call, so each layer's self time is measured
//! without sockets, event loops or scheduling in the way.
//!
//! Per write: `Replica::write` at the issuing node, the issue record staged
//! for `Wal::append_batch` (committed every `wal_group` records), and one
//! copy queued on each recipient node's link. Every `flush_every` writes,
//! each non-empty link is flushed the way a node's sender timer flushes it:
//! `encode_multi_batch_into`, then `decode_peer_batches` and
//! `Replica::receive` + `Replica::drain` at the recipient. Reads call
//! `Replica::read`.

use crate::gen::Op;
use crate::trace::Tracer;
use prcc_checker::UpdateId;
use prcc_clock::encoding::write_varint;
use prcc_clock::{EdgeClock, EdgeProtocol, Protocol, WireClock};
use prcc_core::{Replica, Update};
use prcc_graph::{PartitionId, PartitionMap};
use prcc_net::VirtualTime;
use prcc_service::wire::{decode_peer_batches, encode_multi_batch_into, FlushSections};
use prcc_storage::{encode_record_into, Wal, WalRecord};
use std::io;
use std::path::Path;

pub struct Params<'a> {
    pub map: &'a PartitionMap,
    pub protocol: &'a EdgeProtocol,
    pub ops: &'a [Op],
    pub pad: usize,
    /// Writes between link flushes: the writes one sender flush interval
    /// holds at the offered rate.
    pub flush_every: usize,
    /// Records per `Wal::append_batch`: the live group-commit size.
    pub wal_group: usize,
    pub wal_path: &'a Path,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct Replayed {
    pub writes: u64,
    pub reads: u64,
    /// Update copies decoded and handed to `Replica::receive`.
    pub delivered: u64,
    pub frames: u64,
    pub applies: u64,
    pub buffered_applies: u64,
    /// Per-copy update encoding (link seq, issue stamp, update, pad), summed.
    pub update_bytes: u64,
    /// Encoded clock bytes, summed over writes.
    pub clock_bytes: u64,
    pub wal_batches: u64,
    pub wal_bytes: u64,
}

impl Replayed {
    pub fn add(&mut self, o: &Replayed) {
        self.writes += o.writes;
        self.reads += o.reads;
        self.delivered += o.delivered;
        self.frames += o.frames;
        self.applies += o.applies;
        self.buffered_applies += o.buffered_applies;
        self.update_bytes += o.update_bytes;
        self.clock_bytes += o.clock_bytes;
        self.wal_batches += o.wal_batches;
        self.wal_bytes += o.wal_bytes;
    }
}

type Link = FlushSections<EdgeClock>;

fn varint_len(v: u64, scratch: &mut Vec<u8>) -> u64 {
    scratch.clear();
    write_varint(scratch, v);
    scratch.len() as u64
}

pub fn replay(p: &Params, tracer: &mut Tracer) -> io::Result<Replayed> {
    let n = p.map.num_nodes();
    let roles = p.map.graph().num_replicas();
    let mut replicas: Vec<Vec<Option<Replica<EdgeProtocol>>>> = (0..n)
        .map(|node| {
            let mut slots: Vec<Option<Replica<EdgeProtocol>>> =
                p.map.partitions().map(|_| None).collect();
            for (part, role) in p.map.hosted_by(node) {
                slots[part.index()] = Some(Replica::new(p.protocol, role));
            }
            slots
        })
        .collect();
    let mut links: Vec<Vec<Link>> = vec![vec![Vec::new(); n]; n];
    let mut link_seq = vec![vec![0u64; n]; n];
    let mut node_seq = vec![0u64; n];
    let (wal, _) = Wal::open(p.wal_path)?;
    let mut wal = wal;
    let mut staged: Vec<u8> = Vec::new();
    let mut staged_ends: Vec<usize> = Vec::new();
    let mut wal_index = 0u64;
    let mut frame = Vec::new();
    let mut scratch = Vec::new();
    let mut out = Replayed::default();
    let mut since_flush = 0usize;

    let not_hosted = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    for (idx, op) in p.ops.iter().enumerate() {
        let op_id = idx as u64;
        tracer.begin("replay.op", op_id);
        let replica = replicas[op.node][op.partition.index()]
            .as_mut()
            .ok_or_else(|| not_hosted("op routed to a node not hosting its partition"))?;
        if op.read {
            tracer
                .span("core.read", op_id, |_| {
                    replica.read(p.protocol, op.register)
                })
                .map_err(|e| not_hosted(&e.to_string()))?;
            out.reads += 1;
            tracer.end();
            continue;
        }
        let clock = tracer
            .span("core.write", op_id, |_| {
                replica.write(p.protocol, op.register, op.value)
            })
            .map_err(|e| not_hosted(&e.to_string()))?;
        let role = replica.id();
        out.writes += 1;
        scratch.clear();
        clock.encode_wire(&mut scratch);
        out.clock_bytes += scratch.len() as u64;

        node_seq[op.node] += 1;
        let wire_id = ((op.node as u64) << 40) | node_seq[op.node];
        encode_record_into(
            wal_index,
            &WalRecord::<EdgeClock>::Issue {
                partition: op.partition,
                register: op.register,
                value: op.value,
                wire_id,
            },
            &mut staged,
        );
        wal_index += 1;
        staged_ends.push(staged.len());
        if staged_ends.len() >= p.wal_group {
            commit(
                &mut wal,
                &mut staged,
                &mut staged_ends,
                &mut out,
                tracer,
                op_id,
            )?;
        }

        let update = Update {
            id: UpdateId(wire_id),
            issuer: role,
            register: op.register,
            value: op.value,
            clock,
            issued_at: VirtualTime::ZERO,
            received_at: VirtualTime::ZERO,
        };
        scratch.clear();
        update.encode_wire(&mut scratch);
        let body = scratch.len() as u64 + varint_len(p.pad as u64, &mut scratch) + p.pad as u64;
        for recipient in p.protocol.recipients(role, op.register) {
            let dst = p.map.node_of(op.partition, recipient);
            if dst == op.node {
                continue;
            }
            link_seq[op.node][dst] += 1;
            let seq = link_seq[op.node][dst];
            // Link seq, a one-byte unsampled issue stamp, then the body.
            out.update_bytes += varint_len(seq, &mut scratch) + 1 + body;
            push(
                &mut links[op.node][dst],
                op.partition,
                (seq, update.clone()),
            );
        }
        since_flush += 1;
        if since_flush >= p.flush_every {
            since_flush = 0;
            flush_links(
                p,
                roles,
                &mut links,
                &mut replicas,
                &mut frame,
                &mut out,
                tracer,
                op_id,
            )?;
        }
        tracer.end();
    }
    let last = p.ops.len() as u64;
    flush_links(
        p,
        roles,
        &mut links,
        &mut replicas,
        &mut frame,
        &mut out,
        tracer,
        last,
    )?;
    commit(
        &mut wal,
        &mut staged,
        &mut staged_ends,
        &mut out,
        tracer,
        last,
    )?;

    for replica in replicas.iter().flatten().flatten() {
        if replica.pending_len() > 0 {
            return Err(io::Error::other(format!(
                "replay left {} updates pending at replica {}",
                replica.pending_len(),
                replica.id()
            )));
        }
        out.applies += replica.applies();
        out.buffered_applies += replica.buffered_applies();
    }
    Ok(out)
}

fn push(link: &mut Link, partition: PartitionId, copy: (u64, Update<EdgeClock>)) {
    match link.iter_mut().find(|(p, _)| *p == partition) {
        Some((_, updates)) => updates.push(copy),
        None => link.push((partition, vec![copy])),
    }
}

fn commit(
    wal: &mut Wal,
    staged: &mut Vec<u8>,
    ends: &mut Vec<usize>,
    out: &mut Replayed,
    tracer: &mut Tracer,
    op: u64,
) -> io::Result<()> {
    if ends.is_empty() {
        return Ok(());
    }
    let mut start = 0;
    let records: Vec<&[u8]> = ends
        .iter()
        .map(|&end| {
            let r = &staged[start..end];
            start = end;
            r
        })
        .collect();
    let bytes = tracer.span("storage.append_batch", op, |_| wal.append_batch(&records))?;
    out.wal_batches += 1;
    out.wal_bytes += bytes as u64;
    staged.clear();
    ends.clear();
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn flush_links(
    p: &Params,
    roles: usize,
    links: &mut [Vec<Link>],
    replicas: &mut [Vec<Option<Replica<EdgeProtocol>>>],
    frame: &mut Vec<u8>,
    out: &mut Replayed,
    tracer: &mut Tracer,
    op: u64,
) -> io::Result<()> {
    for (src, row) in links.iter_mut().enumerate() {
        for (dst, link) in row.iter_mut().enumerate() {
            if link.is_empty() {
                continue;
            }
            tracer.span("wire.encode", op, |_| {
                frame.clear();
                encode_multi_batch_into(link, p.pad, frame);
            });
            link.clear();
            out.frames += 1;
            let sections = tracer.span("wire.decode", op, |_| {
                decode_peer_batches(frame, |r| {
                    (r.index() < roles).then(|| p.protocol.new_clock(r))
                })
            })?;
            tracer.span("core.apply", op, |_| -> io::Result<()> {
                for (partition, updates) in sections {
                    let replica = replicas[dst][partition.index()].as_mut().ok_or_else(|| {
                        io::Error::other(format!(
                            "node {src} sent partition {partition:?} to node {dst}, which does not host it"
                        ))
                    })?;
                    for (seq, update) in updates {
                        replica.receive(update, VirtualTime(op * 1_000_000 + seq));
                        out.delivered += 1;
                    }
                    replica.drain(p.protocol);
                }
                Ok(())
            })?;
        }
    }
    Ok(())
}
