//! Property tests: the wire protocol round-trips clocks, updates, topology
//! and sharding configurations over random share graphs, and preserves
//! partition tags on every frame.

use prcc_checker::UpdateId;
use prcc_clock::encoding::write_varint;
use prcc_clock::{CompressedProtocol, EdgeProtocol, Protocol, VectorProtocol, WireClock};
use prcc_core::Update;
use prcc_graph::{topologies, PartitionId, PartitionMap, RegisterId, ReplicaId, ShareGraph};
use prcc_net::VirtualTime;
use prcc_service::wire::{
    decode_batch, decode_multi_batch, decode_partition_map, decode_peer_batches, decode_peer_hello,
    decode_sealed_batches, decode_share_graph, encode_batch, encode_multi_batch,
    encode_multi_batch_into, encode_multi_batch_sealed_into, encode_partition_map,
    encode_peer_hello, encode_share_graph, FlushSections, PeerHello,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn arb_share_graph() -> impl Strategy<Value = ShareGraph> {
    (2usize..7, 1usize..8, 2usize..4, 0u64..1000).prop_map(|(n, regs, holders, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        topologies::random_connected(n, regs, holders, &mut rng)
    })
}

fn arb_partition_map() -> impl Strategy<Value = PartitionMap> {
    (arb_share_graph(), 1u32..9, 0usize..4).prop_map(|(g, partitions, extra_nodes)| {
        let nodes = g.num_replicas() + extra_nodes;
        PartitionMap::rotated(g, partitions, nodes).expect("valid rotation")
    })
}

/// Runs `advances` random advances on a clock of replica `i`, producing a
/// non-trivial counter pattern.
fn churn_clock<P: Protocol>(p: &P, i: ReplicaId, advances: usize, seed: u64) -> P::Clock {
    let g = p.share_graph();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let regs: Vec<RegisterId> = g.registers_of(i).iter().collect();
    let mut clock = p.new_clock(i);
    if regs.is_empty() {
        return clock;
    }
    for _ in 0..advances {
        let x = regs[rng.gen_range(0..regs.len())];
        p.advance(i, &mut clock, x);
    }
    clock
}

/// One random update per replica with a non-empty register set.
fn build_updates<P: Protocol>(p: &P, g: &ShareGraph, seed: u64) -> Vec<Update<P::Clock>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut updates = Vec::new();
    for k in g.replicas() {
        let regs: Vec<RegisterId> = g.registers_of(k).iter().collect();
        if regs.is_empty() {
            continue;
        }
        let x = regs[rng.gen_range(0..regs.len())];
        updates.push(Update {
            id: UpdateId(((k.index() as u64) << 40) | rng.gen_range(0u64..1 << 20)),
            issuer: k,
            register: x,
            value: rng.gen_range(0u64..u64::MAX / 2),
            clock: churn_clock(p, k, 1 + (seed as usize % 9), seed ^ 0x51),
            issued_at: VirtualTime::ZERO,
            received_at: VirtualTime::ZERO,
        });
    }
    updates
}

fn batch_round_trip<P: Protocol>(
    p: &P,
    g: &ShareGraph,
    partition: PartitionId,
    seed: u64,
    pad: usize,
) where
    P::Clock: WireClock,
{
    let updates = build_updates(p, g, seed);
    let payload = encode_batch(partition, &updates, pad);
    let (tag, decoded) = decode_batch(&payload, |i| {
        (i.index() < g.num_replicas()).then(|| p.new_clock(i))
    })
    .expect("well-formed batch");
    assert_eq!(tag, partition, "partition tag must survive the wire");
    assert_eq!(decoded.len(), updates.len());
    for (a, b) in decoded.iter().zip(&updates) {
        assert_eq!(
            (a.id, a.issuer, a.register, a.value),
            (b.id, b.issuer, b.register, b.value)
        );
        assert_eq!(a.clock, b.clock);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Share-graph topology configurations survive the wire byte-exactly.
    #[test]
    fn share_graph_round_trips(g in arb_share_graph()) {
        let mut buf = Vec::new();
        encode_share_graph(&g, &mut buf);
        let mut at = 0;
        let back = decode_share_graph(&buf, &mut at).expect("decode");
        prop_assert_eq!(at, buf.len());
        prop_assert_eq!(back, g);
    }

    /// Partition maps — graph, node count and hosting table — survive the
    /// wire byte-exactly, including maps with idle nodes.
    #[test]
    fn partition_map_round_trips(map in arb_partition_map()) {
        let mut buf = Vec::new();
        encode_partition_map(&map, &mut buf);
        let mut at = 0;
        let back = decode_partition_map(&buf, &mut at).expect("decode");
        prop_assert_eq!(at, buf.len());
        prop_assert_eq!(back, map);
    }

    /// Peer handshakes round-trip for every node of a random sharding.
    #[test]
    fn peer_hello_round_trips(map in arb_partition_map()) {
        for node in 0..map.num_nodes() {
            let hello = PeerHello { node, map: map.clone() };
            let back = decode_peer_hello(&encode_peer_hello(&hello)).expect("decode");
            prop_assert_eq!(back, hello);
        }
    }

    /// Update batches round-trip for all three clock representations and
    /// any partition tag, with and without value padding.
    #[test]
    fn batches_round_trip_all_protocols(
        g in arb_share_graph(),
        partition in 0u32..1000,
        seed in 0u64..500,
        pad in 0usize..96,
    ) {
        let partition = PartitionId(partition);
        batch_round_trip(&EdgeProtocol::new(g.clone()), &g, partition, seed, pad);
        batch_round_trip(&CompressedProtocol::new(g.clone()), &g, partition, seed, pad);
        batch_round_trip(&VectorProtocol::new(g.clone()), &g, partition, seed, pad);
    }

    /// Truncating an encoded batch anywhere never yields a successful parse
    /// of the full batch (framing keeps byte counts exact).
    #[test]
    fn truncated_batches_rejected(g in arb_share_graph(), seed in 0u64..100) {
        let p = EdgeProtocol::new(g.clone());
        let mut updates = Vec::new();
        for k in g.replicas().take(2) {
            let regs: Vec<RegisterId> = g.registers_of(k).iter().collect();
            prop_assume!(!regs.is_empty());
            updates.push(Update {
                id: UpdateId((k.index() as u64) << 40),
                issuer: k,
                register: regs[0],
                value: seed,
                clock: churn_clock(&p, k, 3, seed),
                issued_at: VirtualTime::ZERO,
                received_at: VirtualTime::ZERO,
            });
        }
        let payload = encode_batch(PartitionId(3), &updates, 8);
        for cut in 1..payload.len() {
            prop_assert!(
                decode_batch::<_, _>(&payload[..cut], |i| Some(p.new_clock(i))).is_err(),
                "truncation at {} parsed", cut
            );
        }
    }

    /// A whole flush — sections for several partitions — survives the wire
    /// as one frame: section order, partition tags, per-update link seqs,
    /// update contents and per-section update order all intact, for every
    /// clock representation.
    #[test]
    fn multi_batches_round_trip(
        g in arb_share_graph(),
        parts in proptest::collection::vec(0u32..1000, 1..6),
        seed in 0u64..500,
        pad in 0usize..64,
        seq_base in 0u64..1 << 50,
    ) {
        let p = EdgeProtocol::new(g.clone());
        let sections: Vec<(PartitionId, Vec<(u64, Update<_>)>)> = parts
            .iter()
            .enumerate()
            .map(|(i, &part)| {
                let updates = build_updates(&p, &g, seed ^ (i as u64) << 16)
                    .into_iter()
                    .enumerate()
                    .map(|(k, u)| (seq_base + ((i as u64) << 20) + k as u64, u))
                    .collect();
                (PartitionId(part), updates)
            })
            .collect();
        prop_assume!(sections.iter().all(|(_, u)| !u.is_empty()));
        let payload = encode_multi_batch(&sections, pad);
        let back = decode_multi_batch(&payload, |i| {
            (i.index() < g.num_replicas()).then(|| p.new_clock(i))
        }).expect("well-formed multi-batch");
        prop_assert_eq!(back.len(), sections.len());
        for ((bp, bu), (sp, su)) in back.iter().zip(&sections) {
            prop_assert_eq!(bp, sp, "section partition tag must survive in order");
            prop_assert_eq!(bu.len(), su.len());
            for ((aseq, a), (bseq, b)) in bu.iter().zip(su) {
                prop_assert_eq!(aseq, bseq, "link seq must survive the wire");
                prop_assert_eq!(
                    (a.id, a.issuer, a.register, a.value),
                    (b.id, b.issuer, b.register, b.value)
                );
                prop_assert_eq!(&a.clock, &b.clock);
            }
        }
        // The reader-side dispatcher accepts both framings.
        let dispatched = decode_peer_batches(&payload, |i| {
            (i.index() < g.num_replicas()).then(|| p.new_clock(i))
        }).expect("dispatch");
        prop_assert_eq!(dispatched.len(), sections.len());
    }

    /// Empty sections never reach the wire: the encoder drops them, and a
    /// flush of only-empty sections produces a frame the decoder refuses.
    #[test]
    fn multi_batch_empty_sections_dropped_or_rejected(
        g in arb_share_graph(),
        parts in proptest::collection::vec((0u32..1000, any::<bool>()), 1..6),
        seed in 0u64..200,
    ) {
        let p = EdgeProtocol::new(g.clone());
        let sections: Vec<(PartitionId, Vec<(u64, Update<_>)>)> = parts
            .iter()
            .map(|&(part, live)| {
                let updates = if live {
                    build_updates(&p, &g, seed)
                        .into_iter()
                        .enumerate()
                        .map(|(k, u)| (1 + k as u64, u))
                        .collect()
                } else {
                    Vec::new()
                };
                (PartitionId(part), updates)
            })
            .collect();
        let live: Vec<&(PartitionId, Vec<(u64, Update<_>)>)> =
            sections.iter().filter(|(_, u)| !u.is_empty()).collect();
        let payload = encode_multi_batch(&sections, 0);
        let result = decode_multi_batch(&payload, |i| {
            (i.index() < g.num_replicas()).then(|| p.new_clock(i))
        });
        if live.is_empty() {
            let err = result.expect_err("zero-section frame must be refused");
            prop_assert!(err.to_string().contains("no sections"), "{}", err);
        } else {
            let back = result.expect("decode");
            prop_assert_eq!(back.len(), live.len());
            for ((bp, bu), (sp, su)) in back.iter().zip(&live) {
                prop_assert_eq!(bp, sp);
                prop_assert_eq!(bu.len(), su.len());
            }
        }
    }

    /// Truncating an encoded multi-batch anywhere never parses.
    #[test]
    fn truncated_multi_batches_rejected(g in arb_share_graph(), seed in 0u64..100) {
        let p = EdgeProtocol::new(g.clone());
        let updates: Vec<(u64, Update<_>)> = build_updates(&p, &g, seed)
            .into_iter()
            .enumerate()
            .map(|(k, u)| (1 + k as u64, u))
            .collect();
        prop_assume!(!updates.is_empty());
        let sections = vec![
            (PartitionId(9), updates.clone()),
            (PartitionId(2), updates),
        ];
        let payload = encode_multi_batch(&sections, 4);
        for cut in 0..payload.len() {
            prop_assert!(
                decode_multi_batch::<_, _>(&payload[..cut], |i| Some(p.new_clock(i))).is_err(),
                "truncation at {} parsed", cut
            );
        }
    }

    /// v9 flush frames round-trip every combination of sampled/unsampled
    /// issue stamp, pad 0/256 and seal barrier present/absent — and only a
    /// sampled update pays for its stamp: the sampled frame is longer than
    /// the unsampled one by exactly the stamps' varint bytes.
    #[test]
    fn v9_frames_round_trip_every_flag_combination(
        g in arb_share_graph(),
        seed in 0u64..500,
        seq_base in 1u64..1 << 40,
        stamp in 1u64..1 << 56,
        barrier in 1u64..1 << 40,
    ) {
        let p = EdgeProtocol::new(g.clone());
        let updates = build_updates(&p, &g, seed);
        prop_assume!(!updates.is_empty());
        let section = |sampled: bool| -> FlushSections<_> {
            let updates = updates
                .iter()
                .cloned()
                .enumerate()
                .map(|(k, mut u)| {
                    if sampled {
                        u.issued_at = VirtualTime(stamp + k as u64);
                    }
                    (seq_base + k as u64, u)
                })
                .collect();
            vec![(PartitionId(3), updates)]
        };
        let make = |i: ReplicaId| (i.index() < g.num_replicas()).then(|| p.new_clock(i));
        for pad in [0usize, 256] {
            for with_barrier in [false, true] {
                let barrier = if with_barrier { barrier } else { 0 };
                let mut lens = Vec::new();
                for sampled in [false, true] {
                    let sections = section(sampled);
                    let mut payload = Vec::new();
                    encode_multi_batch_sealed_into(&sections, pad, barrier, &mut payload);
                    let (back, got_barrier) =
                        decode_sealed_batches(&payload, make).expect("well-formed v9 frame");
                    prop_assert_eq!(got_barrier, barrier);
                    prop_assert_eq!(back.len(), 1);
                    prop_assert_eq!(back[0].0, PartitionId(3));
                    for ((aseq, a), (bseq, b)) in back[0].1.iter().zip(&sections[0].1) {
                        prop_assert_eq!(aseq, bseq);
                        prop_assert_eq!(
                            (a.id, a.issuer, a.register, a.value, a.issued_at),
                            (b.id, b.issuer, b.register, b.value, b.issued_at)
                        );
                        prop_assert_eq!(&a.clock, &b.clock);
                    }
                    prop_assert_eq!(back[0].1.len(), sections[0].1.len());
                    // Without a barrier the sealed encoder is the plain one.
                    if !with_barrier {
                        let mut plain = Vec::new();
                        encode_multi_batch_into(&sections, pad, &mut plain);
                        prop_assert_eq!(&plain, &payload);
                    }
                    lens.push(payload.len());
                }
                let mut stamps = Vec::new();
                for k in 0..updates.len() {
                    write_varint(&mut stamps, stamp + k as u64);
                }
                prop_assert_eq!(lens[1] - lens[0], stamps.len());
            }
        }
    }

    /// A flag varint whose pad length runs past the end of the frame is
    /// refused, whether the pad fits one varint byte or needs many.
    #[test]
    fn flag_varint_pad_overrun_rejected(
        g in arb_share_graph(),
        seed in 0u64..200,
        pad in 1u64..1 << 40,
        sampled in any::<bool>(),
    ) {
        let p = EdgeProtocol::new(g.clone());
        let mut updates = build_updates(&p, &g, seed);
        prop_assume!(!updates.is_empty());
        updates.truncate(1);
        let sections: FlushSections<_> =
            vec![(PartitionId(0), vec![(1, updates.pop().expect("one update"))])];
        let payload = encode_multi_batch(&sections, 0);
        // tag, section count, partition, update count, seq: one byte each;
        // then the flag varint (0: no pad, unsampled).
        prop_assert_eq!(&payload[..6], &[3u8, 1, 0, 1, 1, 0][..]);
        let mut forged = payload[..5].to_vec();
        write_varint(&mut forged, (pad << 1) | u64::from(sampled));
        if sampled {
            write_varint(&mut forged, 1_700_000_000_000_000);
        }
        forged.extend_from_slice(&payload[6..]);
        let err = decode_multi_batch(&forged, |i| Some(p.new_clock(i)))
            .expect_err("pad past the frame end must be refused");
        prop_assert!(err.to_string().contains("truncated pad"), "{}", err);
    }

    /// The concrete upgrade scenario: a peer still speaking an older wire
    /// version (v2 partition tagging, v3 unacknowledged frame packing, v5
    /// stamp-free updates, v6 windowed acks, v8 separate stamp and pad
    /// varints) is refused by a current node at the handshake with an
    /// error naming both versions — mixed-version clusters fail loudly,
    /// not silently.
    #[test]
    fn stale_version_hellos_refused_by_current(map in arb_partition_map()) {
        let mut payload = encode_peer_hello(&PeerHello { node: 0, map });
        prop_assert_eq!(u64::from(payload[1]), prcc_service::WIRE_VERSION);
        let current = prcc_service::WIRE_VERSION;
        for old in [2u8, 3, 4, 5, 6, 7, 8] {
            payload[1] = old; // an old peer's hello differs exactly here
            let err = decode_peer_hello(&payload).unwrap_err();
            prop_assert!(
                err.to_string().contains(&format!("peer speaks v{old}")),
                "{}", err
            );
            prop_assert!(
                err.to_string().contains(&format!("this node v{current}")),
                "{}", err
            );
        }
    }

    /// A hello whose version varint is patched to any other value is
    /// refused with a version-mismatch error — the refusal behavior
    /// misconfigured deployments rely on.
    #[test]
    fn foreign_version_hellos_refused(map in arb_partition_map(), version in 0u8..64) {
        prop_assume!(u64::from(version) != prcc_service::WIRE_VERSION);
        let mut payload = encode_peer_hello(&PeerHello { node: 0, map });
        // WIRE_VERSION < 128 encodes as one varint byte right after the tag,
        // and so does any `version in 0..64`.
        payload[1] = version;
        let err = decode_peer_hello(&payload).unwrap_err();
        prop_assert!(
            err.to_string().contains("version mismatch"),
            "unexpected refusal: {}", err
        );
    }
}
