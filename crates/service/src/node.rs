//! A partition-routing TCP node with optional durability.
//!
//! A node no longer *is* a replica: it hosts one replica *role* of every
//! partition the [`PartitionMap`] places on it, each an independent
//! [`Replica`] with its own share-graph-derived clock. The node runs on a
//! **fixed thread budget** — `reactor_threads` event-loop workers plus one
//! core thread — independent of how many sockets are open:
//!
//! * the core thread serializes all state access (writes, reads, update
//!   application, trace/status snapshots, link bookkeeping) through one
//!   channel and routes every message to the target partition's replica;
//! * all I/O — both listeners, every peer link in both directions, and
//!   every client connection — is multiplexed onto the [`Reactor`]'s
//!   epoll workers. Each connection is a non-blocking state machine
//!   implementing [`Driver`] (see the `// lint: reactor` fence at the
//!   bottom of this file): [`PeerOut`] dials a peer's update listener
//!   (redialing with seeded, bounded backoff via one-shot timers if the
//!   link drops), handshakes, then coalesces outgoing updates by
//!   event-loop cadence — everything one reactor tick delivered ships at
//!   the end of that tick, so a batch grows under load and adds no wait
//!   when traffic is light (a non-zero `flush_interval` instead lets a
//!   partial batch linger until its timer fires), in `batch_max`-update
//!   chunks, each emitted as *one* multi-partition frame carrying a
//!   section per partition present;
//!   [`PeerIn`] answers the handshake with the acknowledged resume
//!   offset, incrementally decodes multi-partition flush frames, fans
//!   their sections to the core, and streams acknowledgement frames back;
//!   [`ClientConn`] serves the request/response API of
//!   [`crate::wire::ClientRequest`], including the [`PartitionMap`]
//!   itself (`Config`) so clients can route by key.
//!
//! Outbound data flows through per-connection bounded queues of pooled
//! frame buffers (vectored writes, `WouldBlock` re-arms write interest
//! instead of parking a thread); a connection whose queue exceeds the
//! bound is torn down loudly rather than ballooning memory — peers redial
//! and resend from their acknowledged windows, slow clients reconnect.
//!
//! # Durability (wire v4 + `prcc-storage`)
//!
//! With a data dir configured, the core appends every state-mutating input
//! to a checksummed write-ahead log *before* applying it: client writes as
//! [`WalRecord::Issue`], decoded peer flush frames as
//! [`WalRecord::Receipt`]. Because the core loop is deterministic, replaying
//! snapshot + log on boot rebuilds the exact pre-crash state — clocks,
//! stores, pending buffers, dedup sets, event logs, *and* the per-peer
//! outbound windows below. Periodic snapshots fold the log prefix and
//! truncate it.
//!
//! Peer links are acknowledged: the core assigns every outbound update a
//! per-link sequence number and parks it in that link's *window*; the
//! receiver acks the highest sequence it has durably received (at the
//! handshake and periodically in-stream), which prunes the window. After
//! any reconnect — link loss or node restart — the sender resends the
//! window suffix past the peer's acknowledged offset, so updates buffered
//! into a dying socket are retransmitted instead of lost; the receiver's
//! dedup set absorbs the overlap.
//!
//! Updates carry globally unique wire ids (`node << 40 | seq`, with `seq`
//! node-global across partitions and recovered on restart), which drive
//! duplicate suppression in [`Replica::receive`] and the post-hoc
//! per-partition oracle replay over collected traces.
//!
//! # Telemetry (wire v6 + `prcc-telemetry`)
//!
//! Every node owns a [`Registry`]: the socket-level counters live there as
//! `net_*` handles shared by the I/O threads, the core mirrors its logical
//! state into `core_*`/`wal_*`/`trace_*` gauges when asked, and the
//! update-lifecycle stage histograms (`wal_append_us`, `send_us`,
//! `wire_us`, `pending_stall_us`, `visibility_us`, `ack_us`, `seal_us`,
//! `wal_fsync_us`) record wall-clock stage latencies for 1-in-N sampled
//! updates. Sampling is decided once, at the origin: a sampled write
//! carries its issue stamp in `issued_at` over the live v6 wire, and every
//! downstream stage keys off that stamp being non-zero — so the unsampled
//! hot path pays no clock reads, and WAL replay (whose durable codecs
//! deliberately drop the stamps, keeping recovery byte-deterministic)
//! records nothing through the very same code paths. The core also keeps a
//! [`FlightRecorder`] ring of recent structured events, dumped to
//! `<node_dir>/flight.log` when the node fail-stops or is crash-injected.

use crate::bufpool::{BufPool, Lease};
use crate::wire::{
    append_frame, decode_cut_marker, decode_hello_ack, decode_peer_ack, decode_peer_hello,
    decode_request, decode_sealed_batches, encode_cut_marker, encode_hello_ack_into,
    encode_multi_batch_sealed_into, encode_peer_ack_into, encode_peer_hello, encode_response_into,
    ClientRequest, ClientResponse, FlushSections, NodeStatus, PartitionCounters, PeerHello,
    TAG_CUT_MARKER, WIRE_VERSION,
};
use prcc_checker::trace::TraceEvent;
use prcc_checker::{CutSnapshot, PartitionCut, TraceCheckpoint, UpdateId};
use prcc_clock::{Protocol, WireClock};
use prcc_core::{Replica, SeqWatermark, Update};
use prcc_graph::{PartitionId, PartitionMap, RegisterId, ReplicaId};
use prcc_net::chaos::mix64;
use prcc_net::VirtualTime;
use prcc_reactor::{ConnId, Ctx, Driver, Fate, Reactor, ReactorHandle};
use prcc_storage::{
    decode_record, decode_snapshot, encode_snapshot, read_snapshot, write_snapshot, NodeSnapshot,
    PartitionSnapshot, PeerSnapshot, Wal, WalRecord,
};
use prcc_telemetry::{
    wall_us, Counter, FlightRecorder, MetricsSnapshot, Registry, Sampler, SharedHistogram,
};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Low 40 bits of a wire id: the node-global issue sequence (the issuing
/// node's index sits above them).
const WIRE_SEQ_MASK: u64 = (1 << 40) - 1;

/// Maximum messages one core sweep drains before committing the staged
/// WAL batch and releasing the sweep's replies, and the most staged
/// records a run of effect-free sweeps may carry before committing anyway.
/// Bounds both the latency any one reply can be held back and the
/// staged-batch memory of a flooded node.
const SWEEP_MAX: usize = 256;

/// How many consistent-cut snapshots the core keeps, newest-first. Cut
/// audits are live-only diagnostics: an auditor that falls more than this
/// many tokens behind simply sees `None` and retries with a fresh token.
const CUTS_KEPT: usize = 8;

/// Maximum frames a peer link coalesces into one flush pass. Each frame
/// is itself `batch_max`-bounded, so one flush moves at most
/// `batch_max * MAX_FLUSH_FRAMES` updates before the link ships what it
/// has instead of accumulating further.
const MAX_FLUSH_FRAMES: usize = 8;

/// Tuning knobs of a node deployment.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum updates coalesced into one peer flush (emitted as a single
    /// multi-partition frame).
    pub batch_max: usize,
    /// How long a non-full batch may linger for more updates. Zero (the
    /// default) means no linger: a peer link ships everything queued for
    /// it at the end of the reactor tick that delivered it. A non-zero
    /// value holds a partial batch until this timer fires.
    pub flush_interval: Duration,
    /// Extra bytes shipped with each update (simulated value size).
    pub pad_bytes: usize,
    /// How long senders keep retrying a peer dial before giving up.
    pub connect_timeout: Duration,
    /// Directory for write-ahead logs and snapshots (`None` = in-memory
    /// node, the pre-durability behavior). Each node uses
    /// `<data_dir>/node-<i>/`.
    pub data_dir: Option<PathBuf>,
    /// WAL records between snapshots (snapshots truncate the log);
    /// 0 = never snapshot. Ignored without a data dir.
    pub snapshot_every: u64,
    /// Peer flush frames between streamed acknowledgements per link;
    /// 0 = acknowledge only at the handshake (useful for deterministic
    /// snapshot tests — windows then never shrink mid-run).
    pub ack_every: u64,
    /// Group commit: `fdatasync` the WAL every N appends (and sync
    /// snapshots before rename), for power-loss durability; 0 = never
    /// sync (a process crash still loses nothing). Ignored without a
    /// data dir.
    pub fsync_every: u64,
    /// Live trace events per partition above which the core seals the
    /// fully-acknowledged log prefix into its checkpoint summary and
    /// discards it; 0 = compact only when a snapshot is written. Keeps
    /// in-memory trace logs (and therefore snapshots) O(live state).
    pub trace_compact_at: usize,
    /// Hard cap on a per-peer resend window: a peer stranded past this
    /// many unacknowledged updates has its oldest entries evicted (counted
    /// in `NodeStatus::window_evicted`) instead of growing without bound.
    /// Eviction gives up on delivering those updates to that peer — its
    /// receive watermark will hold a permanent gap, so the link cannot
    /// heal by resend; restoring the peer takes a full state transfer
    /// (today: operator-driven, from a surviving holder's data) — a
    /// bounded node cannot replay unbounded absence.
    pub window_cap: usize,
    /// Update-lifecycle tracing period: 1 in `sample_every` issued updates
    /// carries a wall-clock issue stamp across the wire, feeding the
    /// per-stage latency histograms at every node it touches. 0 disables
    /// tracing entirely, 1 stamps every update. The unsampled hot path
    /// pays no clock reads.
    pub sample_every: u64,
    /// Flight-recorder capacity: how many recent core events the in-memory
    /// ring retains for the crash dump. 0 disables the recorder.
    pub flight_events: usize,
    /// Event-loop worker threads driving every socket of this node (peer
    /// links, inbound peers, clients). The node's total thread count is
    /// `reactor_threads + 1` (the core), independent of connection count.
    pub reactor_threads: usize,
    /// Per-connection outbound queue bound in bytes — the backpressure
    /// contract: a connection whose unflushed output exceeds this is torn
    /// down loudly instead of buffering without bound. Must comfortably
    /// hold a full resend window (`window_cap` updates) for peer links.
    pub outbound_queue_bytes: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            batch_max: 64,
            flush_interval: Duration::ZERO,
            pad_bytes: 0,
            connect_timeout: Duration::from_secs(10),
            data_dir: None,
            snapshot_every: 4096,
            ack_every: 16,
            fsync_every: 0,
            trace_compact_at: 1024,
            window_cap: 1 << 16,
            sample_every: 16,
            flight_events: 1024,
            reactor_threads: 2,
            outbound_queue_bytes: 16 << 20,
        }
    }
}

/// Everything a node needs to come up: its identity, pre-bound listeners
/// (binding first solves the ephemeral-port bootstrap), and the peer map.
#[derive(Debug)]
pub struct NodeSeed {
    /// This node's index in the partition map.
    pub node: usize,
    /// Listener for incoming peer update connections.
    pub peer_listener: TcpListener,
    /// Listener for the client API.
    pub client_listener: TcpListener,
    /// Peer update-listener addresses, indexed by node.
    pub peer_addrs: Vec<SocketAddr>,
}

/// Handle to a spawned node.
pub struct NodeHandle {
    /// The node's index in the partition map.
    pub node: usize,
    /// Address of the peer update listener.
    pub peer_addr: SocketAddr,
    /// Address of the client API listener.
    pub client_addr: SocketAddr,
    core: Option<thread::JoinHandle<()>>,
    kill: Arc<dyn Fn() + Send + Sync>,
}

impl fmt::Debug for NodeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeHandle")
            .field("node", &self.node)
            .field("peer_addr", &self.peer_addr)
            .field("client_addr", &self.client_addr)
            .finish()
    }
}

impl NodeHandle {
    /// Blocks until the node's core thread exits (a client sent
    /// [`ClientRequest::Shutdown`], or the node was crashed).
    pub fn join(&mut self) {
        if let Some(handle) = self.core.take() {
            let _ = handle.join();
        }
    }

    /// Kills the node *without* graceful shutdown — fault injection for
    /// the recovery tests and `prcc-load --crash-restart`. The core stops
    /// mid-stream (no final snapshot, no drain), every peer connection is
    /// severed, and in-flight client requests see their connections drop.
    /// A node with a data dir can then be respawned on the same directory
    /// and recover from its snapshot + WAL.
    pub fn crash(&mut self) {
        (self.kill)();
        self.join();
    }
}

/// Commands the core sends to a peer link's outbound driver, delivered
/// through the reactor ([`ReactorHandle::command`]) in enqueue order.
enum PeerCmd<C> {
    /// A sequenced outbound update to batch into the next flush frame.
    Update(u64, PartitionId, Update<C>),
    /// A consistent-cut marker: written to the peer at exactly the command
    /// position it was enqueued at (after every update queued before it,
    /// before every update queued after it) — the Chandy–Lamport discipline
    /// the cut audit's closure check relies on. Markers are fire-and-forget:
    /// they never enter the resend window, so a link loss loses them and the
    /// audit reports the cut incomplete rather than wrong.
    Marker(u64),
    /// The core's reply to a [`CoreMsg::PeerResume`]: the window suffix to
    /// resend plus the link's current seal barrier.
    Resume {
        window: Vec<(u64, PartitionId, Update<C>)>,
        barrier: u64,
    },
    /// The link's seal barrier advanced: every sequence at or below it has
    /// been acknowledged by the peer, so future flush frames carry the new
    /// value and the receiver can skip the dependency re-check for
    /// straggler resends underneath it.
    Barrier(u64),
}

/// Messages into the core thread. Replies travel back out through the
/// reactor: client responses are encoded by the core and pushed with
/// [`ReactorHandle::send`] onto the requesting connection (`conn`); peer
/// link replies go to the link's driver as [`PeerCmd`]s.
enum CoreMsg<C> {
    Write {
        partition: PartitionId,
        register: RegisterId,
        value: u64,
        conn: ConnId,
    },
    Read {
        partition: PartitionId,
        register: RegisterId,
        conn: ConnId,
    },
    /// One decoded peer flush frame: sender node, its sections, the frame's
    /// seal barrier, and the inbound connection acknowledgements for this
    /// link travel on.
    Updates {
        peer: usize,
        sections: FlushSections<C>,
        barrier: u64,
        conn: ConnId,
    },
    /// A peer's inbound handshake: reply with the acknowledged resume
    /// offset for that link (a hello-ack frame on `conn`).
    PeerJoin {
        peer: usize,
        conn: ConnId,
    },
    /// An outbound link (re)connected and the peer acknowledged `acked`:
    /// prune the link's window to it and hand back what must be resent
    /// (a [`PeerCmd::Resume`] to `conn`).
    PeerResume {
        peer: usize,
        acked: u64,
        conn: ConnId,
    },
    /// A streamed acknowledgement from a peer arrived.
    PeerAcked {
        peer: usize,
        seq: u64,
    },
    /// A client-driven consistent-cut request: with `start`, record this
    /// node's snapshot for `token` (if unseen) and flood markers to every
    /// peer; either way reply with the recorded snapshot, if any.
    Cut {
        token: u64,
        start: bool,
        conn: ConnId,
    },
    /// A cut marker arrived on a peer update stream: record this node's
    /// snapshot for `token` (if unseen) and propagate markers onward.
    PeerMarker {
        token: u64,
    },
    Status(ConnId),
    Trace(ConnId),
    /// A live metrics scrape: mirror core state into the registry's gauges
    /// and reply with the frozen snapshot.
    Metrics(ConnId),
    /// Fault injection: stop immediately, no final snapshot.
    Crash,
    Shutdown,
}

/// Registry-backed handles for the socket-level metrics, shared by every
/// reactor driver of the node. The same values travel in the `Metrics`
/// snapshot under their `net_*` names, and `send_us` times the
/// issue→first-socket-enqueue stage for sampled updates.
struct NetMetrics {
    bytes_out: Counter,
    bytes_in: Counter,
    /// Per-partition update runs shipped (sections across all frames).
    batches_sent: Counter,
    /// Peer update frames written.
    frames_sent: Counter,
    /// Sender flush cycles.
    flushes: Counter,
    /// Update copies resent from the window after a reconnect.
    resent: Counter,
    /// Issue → first socket write, sampled updates only.
    send_us: Arc<SharedHistogram>,
}

impl NetMetrics {
    fn new(registry: &Registry) -> Self {
        NetMetrics {
            bytes_out: registry.counter("net_bytes_out"),
            bytes_in: registry.counter("net_bytes_in"),
            batches_sent: registry.counter("net_batches_sent"),
            frames_sent: registry.counter("net_frames_sent"),
            flushes: registry.counter("net_flushes"),
            resent: registry.counter("net_resent"),
            send_us: registry.histogram("send_us"),
        }
    }
}

/// One hosted partition: the role this node plays in it, the replica state
/// machine, the sealed-prefix checkpoint summary, and the live tail of the
/// partition-local event log.
struct PartitionSlot<P: Protocol> {
    role: ReplicaId,
    replica: Replica<P>,
    /// Summary of the sealed (fully acknowledged, verified-by-construction)
    /// trace prefix — what the post-hoc oracle stitches under `log`.
    checkpoint: TraceCheckpoint,
    /// The live trace suffix; bounded by the compaction threshold plus the
    /// unacknowledged in-flight tail.
    log: Vec<TraceEvent>,
    issued: u64,
    /// Own issues not yet acknowledged by every remote recipient:
    /// `(wire id, remaining (peer, link seq) pairs)`, ascending by wire
    /// id. An issue may be sealed out of the trace log only once it has
    /// left this queue — the seal rule the stitched oracle relies on.
    unacked: VecDeque<(u64, Vec<(usize, u64)>)>,
}

/// One peer link's state, owned by the core (so it is snapshot-able and
/// deterministically rebuilt by WAL replay).
struct PeerLink<C> {
    /// Next outbound sequence to assign (starts at 1).
    next_seq: u64,
    /// Outbound updates not yet acknowledged by the peer, in sequence
    /// order. Entries enter when enqueued to the sender and leave when an
    /// acknowledgement covers them (or the window cap evicts them).
    window: VecDeque<(u64, PartitionId, Update<C>)>,
    /// Highest outbound sequence the peer has acknowledged.
    acked_high: u64,
    /// Highest outbound sequence evicted by the window cap (0 = none).
    /// Evicted sequences can never be acknowledged — the update copy is
    /// gone — so they are treated as abandoned rather than allowed to
    /// block trace sealing forever; `window_evicted` is the loud record
    /// that delivery to this peer was given up on.
    evicted_high: u64,
    /// Inbound receive watermark: contiguous high-water (the offset this
    /// node acknowledges back) plus the out-of-order residue — also the
    /// exact per-link duplicate filter.
    recv: SeqWatermark,
    /// Flush frames received since the last streamed acknowledgement.
    frames_since_ack: u64,
    /// Origin side: highest outbound sequence retired from an `unacked`
    /// pair *because the peer acknowledged it* (never because the window
    /// cap evicted it). Every sequence at or below this is provably
    /// observed by the peer, so it is safe to advertise as the link's seal
    /// barrier. Live-only — not snapshotted, rebuilt from fresh acks after
    /// recovery (the barrier is an optimization, never a correctness
    /// input).
    sealed_high: u64,
    /// Origin side: the seal barrier last shipped to the peer's driver
    /// (so barrier commands flow only when the value advances). Live-only.
    barrier_sent: u64,
    /// Receiver side: highest seal barrier seen on this link's inbound
    /// frames, max-monotone. Straggler resends at or below it skip the
    /// watermark dependency re-check in `apply_sections` — by
    /// construction they are duplicates of updates this node already
    /// acknowledged. Live-only: WAL receipts carry no barrier, so replay
    /// takes the full re-check path and stays byte-deterministic.
    seal_barrier: u64,
}

impl<C> PeerLink<C> {
    fn new() -> Self {
        PeerLink {
            next_seq: 1,
            window: VecDeque::new(),
            acked_high: 0,
            evicted_high: 0,
            recv: SeqWatermark::new(),
            frames_since_ack: 0,
            sealed_high: 0,
            barrier_sent: 0,
            seal_barrier: 0,
        }
    }
}

/// The core thread's telemetry: the metric registry, pre-fetched handles
/// for the lifecycle-stage histograms, the sampling decision, the flight
/// recorder, and the live stamp side-tables.
///
/// Deliberately NOT part of the snapshot/WAL state: every value here is
/// wall-clock-derived, and the recovery suite proves durable bytes are
/// identical across same-seed runs. Stamps therefore ride only the live
/// v6 wire (`issued_at`), never the durable codecs — a recovered core
/// starts with an empty side-table and records nothing during replay,
/// through the same code paths the live loop uses.
struct CoreTelemetry {
    registry: Arc<Registry>,
    sampler: Sampler,
    flight: FlightRecorder,
    /// Write stamp → WAL append completed (origin only).
    wal_append_us: Arc<SharedHistogram>,
    /// Issue at origin → frame decoded at a recipient.
    wire_us: Arc<SharedHistogram>,
    /// Issue at origin → applied at a recipient: the end-to-end update
    /// visibility latency the paper's protocol trades against metadata.
    visibility_us: Arc<SharedHistogram>,
    /// Received → applied at a recipient: time buffered behind the
    /// deliverability predicate — the false-dependency cost made visible.
    pending_stall_us: Arc<SharedHistogram>,
    /// Issue at origin → the recipient's acknowledgement pruned the copy
    /// from the resend window.
    ack_us: Arc<SharedHistogram>,
    /// Issue at origin → the issue's trace event sealed into the
    /// checkpoint (every remote recipient acknowledged it).
    seal_us: Arc<SharedHistogram>,
    /// Sampled received-but-unapplied copies: wire id → receive stamp.
    /// Bounded by the pending buffers (entries leave at apply).
    stall_stamps: HashMap<u64, u64>,
    /// This node's own sampled issues: wire id → issue stamp, consumed
    /// when the issue seals. Bounded by the unsealed trace tail.
    seal_stamps: HashMap<u64, u64>,
}

impl CoreTelemetry {
    fn new(registry: Arc<Registry>, cfg: &ServiceConfig) -> Self {
        CoreTelemetry {
            sampler: Sampler::new(cfg.sample_every),
            flight: FlightRecorder::new(cfg.flight_events),
            wal_append_us: registry.histogram("wal_append_us"),
            wire_us: registry.histogram("wire_us"),
            visibility_us: registry.histogram("visibility_us"),
            pending_stall_us: registry.histogram("pending_stall_us"),
            ack_us: registry.histogram("ack_us"),
            seal_us: registry.histogram("seal_us"),
            stall_stamps: HashMap::new(),
            seal_stamps: HashMap::new(),
            registry,
        }
    }
}

/// The core's full logical state: everything the WAL + snapshot must be
/// able to rebuild. Kept separate from the I/O threads so the live event
/// loop and boot-time replay run the exact same transition functions.
struct Core<P: Protocol> {
    node: usize,
    partitions: Vec<Option<PartitionSlot<P>>>,
    links: Vec<PeerLink<P::Clock>>,
    /// Node-global wire-id sequence (low 40 bits of issued update ids).
    seq: u64,
    issued: u64,
    sent: u64,
    received: u64,
    dropped_misrouted: u64,
    /// Duplicate deliveries suppressed by the link watermarks.
    duplicates_dropped: u64,
    /// Straggler resends dropped by the seal-barrier fast path *without*
    /// the per-sequence watermark re-check (a subset of
    /// `duplicates_dropped`, which still counts them). Live-only: replay
    /// sees no barriers, takes the re-check path, and lands on identical
    /// durable state.
    barrier_skips: u64,
    /// Hard cap on any one resend window (config).
    window_cap: usize,
    /// Largest window observed.
    max_window: u64,
    /// Entries evicted by the cap.
    window_evicted: u64,
    /// Stage histograms, sampling, and the flight recorder (live-only
    /// state — excluded from snapshots and rebuilt empty on recovery).
    tel: CoreTelemetry,
    /// Recent consistent-cut snapshots by token, oldest first, bounded by
    /// [`CUTS_KEPT`]. Live-only audit state: never snapshotted or WAL'd —
    /// a node that restarts mid-audit simply has no snapshot for the
    /// token, and the audit reports the cut incomplete.
    cuts: VecDeque<(u64, CutSnapshot)>,
}

impl<P: Protocol> Core<P> {
    fn new(
        protocol: &P,
        map: &PartitionMap,
        node: usize,
        window_cap: usize,
        tel: CoreTelemetry,
    ) -> Self {
        let roles = map.graph().num_replicas();
        let registers = map.graph().num_registers();
        let partitions = map
            .partitions()
            .map(|p| {
                map.role_on(p, node).map(|role| PartitionSlot {
                    role,
                    replica: Replica::new(protocol, role),
                    checkpoint: TraceCheckpoint::new(roles, registers),
                    log: Vec::new(),
                    issued: 0,
                    unacked: VecDeque::new(),
                })
            })
            .collect();
        Core {
            node,
            partitions,
            links: (0..map.num_nodes()).map(|_| PeerLink::new()).collect(),
            seq: 0,
            issued: 0,
            sent: 0,
            received: 0,
            dropped_misrouted: 0,
            duplicates_dropped: 0,
            barrier_skips: 0,
            window_cap: window_cap.max(1),
            max_window: 0,
            window_evicted: 0,
            tel,
            cuts: VecDeque::new(),
        }
    }

    /// Whether a snapshot for cut `token` was already recorded (the first
    /// marker sighting snapshots; later sightings of the same token are
    /// the expected echoes from the other peer links).
    fn cut_seen(&self, token: u64) -> bool {
        self.cuts.iter().any(|(t, _)| *t == token)
    }

    /// The recorded snapshot for `token`, if it is still retained.
    fn cut_snapshot(&self, token: u64) -> Option<CutSnapshot> {
        self.cuts
            .iter()
            .find(|(t, _)| *t == token)
            .map(|(_, snap)| snap.clone())
    }

    /// Records this node's side of consistent cut `token`: for every
    /// hosted partition, the issued frontier and the per-issuer-role
    /// applied frontiers *at this instant* — the sealed checkpoint summary
    /// joined with the live log tail, which is exactly the state the
    /// post-hoc oracle would reconstruct up to this point. Wire ids are
    /// monotone per issuer and applied in issue order per issuer, so these
    /// frontiers completely describe the cut for the closure check in
    /// [`prcc_checker::verify_cut_closure`].
    fn record_cut(&mut self, map: &PartitionMap, token: u64) {
        let mut partitions = Vec::with_capacity(self.partitions.len());
        for (index, slot) in self.partitions.iter().enumerate() {
            let Some(slot) = slot else { continue };
            let partition = PartitionId(index as u32);
            let mut issued_high = slot.checkpoint.last_issue;
            let mut applied = slot.checkpoint.applied_high.clone();
            for event in &slot.log {
                match event {
                    TraceEvent::Issue { update, .. } => {
                        issued_high = issued_high.max(*update);
                        // An issue is applied at its issuer the moment it
                        // is issued (step 2 of the prototype).
                        if let Some(high) = applied.get_mut(slot.role.index()) {
                            *high = (*high).max(*update);
                        }
                    }
                    TraceEvent::Apply { update, .. } => {
                        let issuer_node = (*update >> 40) as usize;
                        if let Some(role) = map.role_on(partition, issuer_node) {
                            if let Some(high) = applied.get_mut(role.index()) {
                                *high = (*high).max(*update);
                            }
                        }
                    }
                }
            }
            partitions.push(PartitionCut {
                partition: partition.0,
                role: slot.role.index(),
                issued_high,
                applied,
                pending: slot.replica.pending_len() as u64,
            });
        }
        self.cuts.push_back((
            token,
            CutSnapshot {
                node: self.node as u64,
                token,
                partitions,
            },
        ));
        while self.cuts.len() > CUTS_KEPT {
            self.cuts.pop_front();
        }
    }

    /// Whether a client write to `(partition, register)` can be accepted
    /// here — checked *before* the WAL append so rejected writes never
    /// enter the durable history.
    fn can_write(&self, protocol: &P, partition: PartitionId, register: RegisterId) -> bool {
        self.partitions
            .get(partition.index())
            .and_then(Option::as_ref)
            .is_some_and(|slot| protocol.share_graph().stores(slot.role, register))
    }

    fn next_wire_id(&mut self) -> u64 {
        self.seq += 1;
        ((self.node as u64) << 40) | self.seq
    }

    /// Applies an accepted client write: advances the replica, records the
    /// trace event, and parks a copy in every recipient peer's window.
    /// Returns the `(peer, seq, partition, update)` copies for the live
    /// path to enqueue to sender threads (replay discards them — senders
    /// pull the windows on their first handshake instead).
    ///
    /// `stamp_us` is the wall-clock issue stamp of a *sampled* live write
    /// (0 = unsampled, and always 0 on replay). It rides `issued_at` over
    /// the live wire only: the durable codecs drop it, so it never
    /// perturbs the deterministic replica/trace/window state below.
    ///
    /// Shared by the live write path and WAL replay; determinism of this
    /// function (and `apply_sections`) is what makes snapshot + log replay
    /// reproduce the pre-crash state exactly.
    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    fn apply_write(
        &mut self,
        protocol: &P,
        map: &PartitionMap,
        partition: PartitionId,
        register: RegisterId,
        value: u64,
        wire_id: u64,
        stamp_us: u64,
    ) -> Option<Vec<(usize, u64, PartitionId, Update<P::Clock>)>> {
        self.seq = self.seq.max(wire_id & WIRE_SEQ_MASK);
        let node = self.node;
        let slot = self
            .partitions
            .get_mut(partition.index())
            .and_then(Option::as_mut)?;
        let clock = slot.replica.write(protocol, register, value).ok()?;
        slot.log.push(TraceEvent::Issue {
            replica: slot.role,
            register,
            update: wire_id,
        });
        slot.issued += 1;
        self.issued += 1;
        let update = Update {
            id: UpdateId(wire_id),
            issuer: slot.role,
            register,
            value,
            clock,
            issued_at: VirtualTime(stamp_us),
            received_at: VirtualTime::ZERO,
        };
        if stamp_us != 0 {
            self.tel.seal_stamps.insert(wire_id, stamp_us);
        }
        let role = slot.role;
        let mut sends = Vec::new();
        let mut pairs = Vec::new();
        for recipient in protocol.recipients(role, register) {
            let peer = map.node_of(partition, recipient);
            if peer == node {
                continue;
            }
            let link = &mut self.links[peer];
            let seq = link.next_seq;
            link.next_seq += 1;
            link.window.push_back((seq, partition, update.clone()));
            // Cap the window: a peer stranded past `window_cap` must not
            // grow this node without bound. Evicted entries cannot be
            // resent — the eviction counter is the loud signal that the
            // peer needs a fresh data dir when it returns.
            while link.window.len() > self.window_cap {
                if let Some((evicted, _, _)) = link.window.pop_front() {
                    link.evicted_high = link.evicted_high.max(evicted);
                }
                self.window_evicted += 1;
            }
            self.max_window = self.max_window.max(link.window.len() as u64);
            self.sent += 1;
            pairs.push((peer, seq));
            sends.push((peer, seq, partition, update.clone()));
        }
        if !pairs.is_empty() {
            // Track until every recipient acks: only then may the issue's
            // trace event be sealed out of the live log.
            let slot = self.partitions[partition.index()]
                .as_mut()
                // lint: allow(unwrap) hosting checked at the top of issue()
                .expect("slot checked above");
            slot.unacked.push_back((wire_id, pairs));
        }
        Some(sends)
    }

    /// Records a peer frame's seal barrier. Barriers are max-monotone and
    /// senders omit an unchanged one (decoded as 0), so an absent barrier
    /// leaves the link's recorded value as it was.
    fn raise_seal_barrier(&mut self, peer: usize, barrier: u64) {
        let link = &mut self.links[peer];
        link.seal_barrier = link.seal_barrier.max(barrier);
    }

    /// Applies one peer flush frame's sections: dedups against the link's
    /// receive watermark, feeds the replicas, and records apply events.
    /// Shared by the live path and WAL replay.
    ///
    /// The watermark's contiguous high-water is the acknowledgement line:
    /// acknowledging sequence `s` promises every sequence `<= s` is
    /// durable, so a gap — which can only mean an earlier frame was
    /// dropped (e.g. its WAL append failed) — holds the line (out-of-order
    /// arrivals wait in the watermark's residue) rather than being skipped
    /// over, or the sender would prune updates this node never kept.
    ///
    /// The same watermark is the duplicate filter: resend overlap after a
    /// reconnect is dropped *here*, at the link, in O(reordering window)
    /// memory — the per-replica id set that used to absorb it grew with
    /// history. Unsequenced updates (`seq == 0`, legacy v2 test traffic)
    /// bypass the filter and must be exactly-once.
    fn apply_sections(&mut self, protocol: &P, peer: usize, sections: FlushSections<P::Clock>) {
        let node = self.node;
        for (partition, updates) in sections {
            let Some(slot) = self
                .partitions
                .get_mut(partition.index())
                .and_then(Option::as_mut)
            else {
                // Misrouted section: the reader already validated the
                // partition range, so this is a hosting mismatch.
                self.dropped_misrouted += updates.len() as u64;
                eprintln!(
                    "prcc-service[{node}]: dropped {} updates for unhosted {partition}",
                    updates.len()
                );
                continue;
            };
            // Stage stamps: at most one clock read for the receive sweep
            // and one for the apply sweep, taken lazily only when the
            // frame actually carries sampled updates (replayed frames
            // never do — the durable codec dropped their stamps).
            let mut recv_now = 0u64;
            for (seq, update) in updates {
                self.received += 1;
                // Seal-barrier fast path: the origin advertised that every
                // sequence at or below the barrier is acknowledged here, so
                // a straggler resend underneath it is a duplicate by
                // construction — drop it without the watermark re-check.
                // Identical counter motion to the slow path (the watermark
                // would have returned `false`), so replay — which never
                // sees a barrier — lands on the same `duplicates_dropped`.
                if seq > 0 && seq <= self.links[peer].seal_barrier {
                    self.barrier_skips += 1;
                    self.duplicates_dropped += 1;
                    continue;
                }
                if seq > 0 && !self.links[peer].recv.observe(seq) {
                    self.duplicates_dropped += 1;
                    continue;
                }
                let stamp = update.issued_at.0;
                if stamp != 0 {
                    if recv_now == 0 {
                        recv_now = wall_us();
                    }
                    self.tel.wire_us.record(recv_now.saturating_sub(stamp));
                    self.tel.stall_stamps.insert(update.id.0, recv_now);
                }
                // The replica's own `received_at` stays at virtual zero:
                // pending-buffer state is snapshotted, and real time in it
                // would break byte-identical recovery. Stall accounting
                // lives in the side-table above instead.
                slot.replica.receive(update, VirtualTime::ZERO);
            }
            let mut apply_now = 0u64;
            for done in slot.replica.drain(protocol) {
                if let Some(recv_us) = self.tel.stall_stamps.remove(&done.id.0) {
                    if apply_now == 0 {
                        apply_now = wall_us();
                    }
                    self.tel
                        .pending_stall_us
                        .record(apply_now.saturating_sub(recv_us));
                    self.tel
                        .visibility_us
                        .record(apply_now.saturating_sub(done.issued_at.0));
                }
                if protocol.stores_value(slot.role, done.register) {
                    slot.log.push(TraceEvent::Apply {
                        replica: slot.role,
                        update: done.id.0,
                    });
                }
            }
        }
    }

    /// Prunes a link's window: the peer has acknowledged everything up to
    /// and including `acked`. Sampled copies leaving the window record the
    /// acknowledgement-stage latency (issue → this prune); entries
    /// restored from a snapshot lost their stamps in the durable codec and
    /// record nothing.
    fn prune(&mut self, peer: usize, acked: u64) {
        if let Some(link) = self.links.get_mut(peer) {
            link.acked_high = link.acked_high.max(acked);
            let mut now = 0u64;
            while link.window.front().is_some_and(|(seq, _, _)| *seq <= acked) {
                // lint: allow(unwrap) loop condition just saw a front entry
                let (_, _, update) = link.window.pop_front().expect("front checked");
                let stamp = update.issued_at.0;
                if stamp != 0 {
                    if now == 0 {
                        now = wall_us();
                    }
                    self.tel.ack_us.record(now.saturating_sub(stamp));
                }
            }
        }
    }

    /// Plans a trace compaction: for every hosted partition whose live log
    /// holds at least `min_events` entries, the longest log prefix whose
    /// issues have all been acknowledged by every remote recipient.
    /// Applies may always seal; an unacknowledged issue blocks itself and
    /// everything after it (the stitched oracle's liveness guarantee rests
    /// on sealed issues being durable at all their recipients).
    ///
    /// Consumes fully-acknowledged entries off the `unacked` queues (an
    /// un-logged mutation: which entries are acked is derived state, only
    /// the resulting seal lengths are logged and replayed).
    fn plan_seal(&mut self, min_events: usize) -> Vec<(PartitionId, u64)> {
        let mut seals = Vec::new();
        let links = &mut self.links;
        for (p, slot) in self.partitions.iter_mut().enumerate() {
            let Some(slot) = slot.as_mut() else { continue };
            if slot.log.len() < min_events.max(1) {
                continue;
            }
            while let Some((_, pairs)) = slot.unacked.front_mut() {
                // A pair stops blocking once acknowledged — or once its
                // window entry was evicted by the cap (it can never be
                // acknowledged then; `window_evicted` records the loss).
                // Pairs retired *because acknowledged* advance the link's
                // seal barrier: the peer provably observed them, so future
                // resends at or below `sealed_high` can skip its
                // dependency re-check. Evicted pairs must never advance it
                // — the peer never saw those.
                pairs.retain(|&(peer, seq)| {
                    let Some(link) = links.get_mut(peer) else {
                        // No such link: keep blocking, matching the
                        // pre-barrier behavior (this cannot happen for a
                        // validated map, but silently unblocking would
                        // falsely seal).
                        return true;
                    };
                    let keep = seq > link.acked_high && seq > link.evicted_high;
                    if !keep && seq <= link.acked_high {
                        link.sealed_high = link.sealed_high.max(seq);
                    }
                    keep
                });
                if pairs.is_empty() {
                    slot.unacked.pop_front();
                } else {
                    break;
                }
            }
            // Entries sit in wire-id order, so the first still-unacked
            // issue bounds the sealable prefix.
            let blocked = slot.unacked.front().map(|&(wire, _)| wire);
            let sealable = slot
                .log
                .iter()
                .take_while(|event| match event {
                    TraceEvent::Issue { update, .. } => blocked.is_none_or(|b| *update < b),
                    TraceEvent::Apply { .. } => true,
                })
                .count();
            if sealable > 0 {
                seals.push((PartitionId(p as u32), sealable as u64));
            }
        }
        seals
    }

    /// Applies a (planned or replayed) trace compaction: absorbs each
    /// partition's prefix into its checkpoint summary and discards it.
    /// Shared by the live path and WAL replay of [`WalRecord::Checkpoint`]
    /// records, so recovered checkpoint + suffix pairs match the pre-crash
    /// state exactly.
    fn apply_seal(&mut self, map: &PartitionMap, seals: &[(PartitionId, u64)]) {
        for &(partition, events) in seals {
            let Some(slot) = self
                .partitions
                .get_mut(partition.index())
                .and_then(Option::as_mut)
            else {
                continue;
            };
            let events = (events as usize).min(slot.log.len());
            // Seal-stage latency for sampled own issues leaving the live
            // log. Replay reaches here with an empty side-table, so
            // recorded seals replay silently.
            let mut now = 0u64;
            for event in &slot.log[..events] {
                if let TraceEvent::Issue { update, .. } = event {
                    if let Some(stamp) = self.tel.seal_stamps.remove(update) {
                        if now == 0 {
                            now = wall_us();
                        }
                        self.tel.seal_us.record(now.saturating_sub(stamp));
                    }
                }
            }
            slot.checkpoint.absorb(&slot.log[..events], |w| {
                map.role_on(partition, (w >> 40) as usize)
            });
            slot.log.drain(..events);
            // Drop queue entries the seal covered (replay reaches here
            // with post-snapshot ack state, where they may still linger).
            while slot
                .unacked
                .front()
                .is_some_and(|&(wire, _)| wire <= slot.checkpoint.last_issue)
            {
                slot.unacked.pop_front();
            }
        }
    }

    /// Handshake resume: prune to the peer's acknowledged offset and hand
    /// back the remaining window for retransmission.
    fn resume(&mut self, peer: usize, acked: u64) -> Vec<(u64, PartitionId, Update<P::Clock>)> {
        self.prune(peer, acked);
        self.links
            .get(peer)
            .map(|link| link.window.iter().cloned().collect())
            .unwrap_or_default()
    }

    fn status(&self) -> NodeStatus {
        let per_partition = self
            .partitions
            .iter()
            .map(|slot| match slot {
                Some(slot) => PartitionCounters {
                    issued: slot.issued,
                    applies: slot.replica.applies(),
                    pending: slot.replica.pending_len() as u64,
                },
                None => PartitionCounters::default(),
            })
            .collect();
        NodeStatus {
            node: self.node as u64,
            issued: self.issued,
            messages_sent: self.sent,
            messages_received: self.received,
            applies: self
                .partitions
                .iter()
                .flatten()
                .map(|s| s.replica.applies())
                .sum(),
            pending: self
                .partitions
                .iter()
                .flatten()
                .map(|s| s.replica.pending_len() as u64)
                .sum(),
            duplicates_dropped: self.duplicates_dropped,
            dropped_misrouted: self.dropped_misrouted,
            trace_events: self
                .partitions
                .iter()
                .flatten()
                .map(|s| s.log.len() as u64)
                .sum(),
            sealed_events: self
                .partitions
                .iter()
                .flatten()
                .map(|s| s.checkpoint.events)
                .sum(),
            max_window: self.max_window,
            window_evicted: self.window_evicted,
            barrier_skips: self.barrier_skips,
            // Socket byte/frame counters and reactor counters are filled
            // in by the core loop's status handler, WAL counters by the
            // core loop.
            bytes_out: 0,
            bytes_in: 0,
            batches_sent: 0,
            frames_sent: 0,
            flushes: 0,
            resent: 0,
            wal_appends: 0,
            snapshots_written: 0,
            wal_bytes: 0,
            snapshot_bytes: 0,
            first_snapshot_bytes: 0,
            reactor_wakeups: 0,
            reactor_events: 0,
            reactor_rearms: 0,
            reactor_outq_hiwat: 0,
            per_partition,
        }
    }

    /// Mirrors the core's logical state (and the durability sidecar's
    /// counters) into the registry's gauges, so a metrics snapshot taken
    /// right after reflects this instant. Cold path: runs only per scrape.
    fn mirror_gauges(&self, durable: &Option<Durable>) {
        let r = &self.tel.registry;
        r.gauge("core_issued").set(self.issued);
        r.gauge("core_applies").set(
            self.partitions
                .iter()
                .flatten()
                .map(|s| s.replica.applies())
                .sum(),
        );
        r.gauge("core_pending").set(
            self.partitions
                .iter()
                .flatten()
                .map(|s| s.replica.pending_len() as u64)
                .sum(),
        );
        r.gauge("core_duplicates_dropped")
            .set(self.duplicates_dropped);
        r.gauge("core_dropped_misrouted")
            .set(self.dropped_misrouted);
        r.gauge("core_max_window").set(self.max_window);
        r.gauge("core_window_evicted").set(self.window_evicted);
        r.gauge("core_barrier_skips").set(self.barrier_skips);
        r.gauge("trace_events_live").set(
            self.partitions
                .iter()
                .flatten()
                .map(|s| s.log.len() as u64)
                .sum(),
        );
        r.gauge("trace_events_sealed").set(
            self.partitions
                .iter()
                .flatten()
                .map(|s| s.checkpoint.events)
                .sum(),
        );
        if let Some(d) = durable {
            r.gauge("wal_appends").set(d.wal_appends);
            r.gauge("wal_writes").set(d.wal_writes);
            r.gauge("wal_bytes").set(d.wal.bytes());
            r.gauge("snapshots_written").set(d.snapshots_written);
            r.gauge("snapshot_bytes").set(d.snapshot_bytes);
        }
    }

    fn traces(&self) -> Vec<(TraceCheckpoint, Vec<TraceEvent>)> {
        self.partitions
            .iter()
            .map(|slot| match slot.as_ref() {
                Some(s) => (s.checkpoint.clone(), s.log.clone()),
                // Unhosted: an empty placeholder (the collector regroups
                // by hosted role and never reads these).
                None => (TraceCheckpoint::new(0, 0), Vec::new()),
            })
            .collect()
    }

    /// Folds the core into a snapshot covering WAL records `..= wal_high`.
    fn to_snapshot(&self, wal_high: u64) -> NodeSnapshot<P::Clock>
    where
        P::Clock: WireClock,
    {
        NodeSnapshot {
            wal_high,
            seq: self.seq,
            issued: self.issued,
            sent: self.sent,
            received: self.received,
            dropped_misrouted: self.dropped_misrouted,
            duplicates_dropped: self.duplicates_dropped,
            partitions: self
                .partitions
                .iter()
                .map(|slot| {
                    slot.as_ref().map(|slot| PartitionSnapshot {
                        state: slot.replica.export_state(),
                        issued: slot.issued,
                        checkpoint: slot.checkpoint.clone(),
                        log: slot.log.clone(),
                    })
                })
                .collect(),
            peers: self
                .links
                .iter()
                .map(|link| PeerSnapshot {
                    next_seq: link.next_seq,
                    acked_high: link.acked_high,
                    recv_high: link.recv.high(),
                    recv_residue: link.recv.residue().collect(),
                    window: link.window.iter().cloned().collect(),
                })
                .collect(),
        }
    }

    /// Rebuilds a core from a snapshot, validating it against the current
    /// deployment configuration.
    fn from_snapshot(
        protocol: &P,
        map: &PartitionMap,
        node: usize,
        window_cap: usize,
        snap: NodeSnapshot<P::Clock>,
        tel: CoreTelemetry,
    ) -> io::Result<Self> {
        let bad =
            |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("snapshot: {what}"));
        if snap.partitions.len() != map.num_partitions() as usize {
            return Err(bad("partition count differs from the map"));
        }
        if snap.peers.len() != map.num_nodes() {
            return Err(bad("peer count differs from the map"));
        }
        let mut partitions = Vec::with_capacity(snap.partitions.len());
        for (p, slot) in snap.partitions.into_iter().enumerate() {
            let expected = map.role_on(PartitionId(p as u32), node);
            match (slot, expected) {
                (None, None) => partitions.push(None),
                (Some(part), Some(role)) => {
                    if part.state.id != role {
                        return Err(bad("partition role differs from the map"));
                    }
                    let replica = Replica::from_state(protocol, part.state)
                        .map_err(|e| bad(&format!("replica state: {e}")))?;
                    partitions.push(Some(PartitionSlot {
                        role,
                        replica,
                        checkpoint: part.checkpoint,
                        log: part.log,
                        issued: part.issued,
                        unacked: VecDeque::new(),
                    }));
                }
                _ => return Err(bad("hosted partitions differ from the map")),
            }
        }
        let mut core = Core {
            node,
            partitions,
            links: snap
                .peers
                .into_iter()
                .map(|peer| PeerLink {
                    next_seq: peer.next_seq,
                    window: peer.window.into(),
                    acked_high: peer.acked_high,
                    evicted_high: 0,
                    recv: SeqWatermark::from_parts(peer.recv_high, peer.recv_residue),
                    frames_since_ack: 0,
                    // Seal-barrier state is live-only: a restarted node
                    // re-derives it from post-recovery acks, so replay
                    // stays byte-deterministic.
                    sealed_high: 0,
                    barrier_sent: 0,
                    seal_barrier: 0,
                })
                .collect(),
            seq: snap.seq,
            issued: snap.issued,
            sent: snap.sent,
            received: snap.received,
            dropped_misrouted: snap.dropped_misrouted,
            duplicates_dropped: snap.duplicates_dropped,
            barrier_skips: 0,
            window_cap: window_cap.max(1),
            max_window: 0,
            window_evicted: 0,
            tel,
            cuts: VecDeque::new(),
        };
        core.rebuild_unacked();
        Ok(core)
    }

    /// Rebuilds the per-partition unacknowledged-issue queues from the
    /// resend windows (the windows are the source of truth: an issue is
    /// fully acknowledged exactly when no window still parks a copy).
    /// Only this node's own issues gate trace sealing, so forwarded
    /// partitions' entries resolve through the wire id's node bits.
    fn rebuild_unacked(&mut self) {
        let own = (self.node as u64) << 40;
        let mut by_wire: HashMap<u64, (PartitionId, Vec<(usize, u64)>)> = HashMap::new();
        for (peer, link) in self.links.iter().enumerate() {
            for &(seq, partition, ref update) in &link.window {
                if update.id.0 & !WIRE_SEQ_MASK != own {
                    continue; // Not issued here (cannot happen today).
                }
                by_wire
                    .entry(update.id.0)
                    .or_insert_with(|| (partition, Vec::new()))
                    .1
                    .push((peer, seq));
            }
        }
        let mut wires: Vec<u64> = by_wire.keys().copied().collect();
        wires.sort_unstable();
        for slot in self.partitions.iter_mut().flatten() {
            slot.unacked.clear();
        }
        for wire in wires {
            // lint: allow(unwrap) key came from by_wire's own key set
            let (partition, pairs) = by_wire.remove(&wire).expect("collected above");
            if let Some(slot) = self
                .partitions
                .get_mut(partition.index())
                .and_then(Option::as_mut)
            {
                slot.unacked.push_back((wire, pairs));
            }
        }
    }
}

/// The durability sidecar of a core: the open WAL, record indexing, and
/// snapshot policy.
struct Durable {
    wal: Wal,
    snapshot_path: PathBuf,
    /// Index the next appended record gets (monotonic across truncations).
    next_index: u64,
    snapshot_every: u64,
    records_since_snapshot: u64,
    /// Sync snapshots through to disk before renaming (paired with the
    /// WAL's group commit).
    fsync: bool,
    /// Logical records appended (one per staged record).
    wal_appends: u64,
    /// Physical WAL writes issued (one per committed batch) — group commit
    /// makes this measurably smaller than `wal_appends` under load.
    wal_writes: u64,
    snapshots_written: u64,
    /// Payload size of the most recent snapshot, and of the first one this
    /// process wrote — the flat-snapshot regression gate's numerator and
    /// baseline.
    snapshot_bytes: u64,
    first_snapshot_bytes: u64,
    /// Encoded-but-unwritten records since the last commit: contiguous
    /// payload bytes plus `(start, len)` spans. [`Durable::commit`] hands
    /// all spans to the WAL as one group-committed batch.
    staged_buf: Vec<u8>,
    staged_spans: Vec<(usize, usize)>,
}

impl Durable {
    /// Stages one encoded payload; infallible (I/O happens at commit).
    /// Returns the record's WAL index.
    fn stage_payload(&mut self, encode: impl FnOnce(u64, &mut Vec<u8>)) -> u64 {
        let index = self.next_index;
        let start = self.staged_buf.len();
        encode(index, &mut self.staged_buf);
        self.staged_spans
            .push((start, self.staged_buf.len() - start));
        self.next_index += 1;
        self.records_since_snapshot += 1;
        self.wal_appends += 1;
        index
    }

    fn stage<C: WireClock>(&mut self, record: &WalRecord<C>) -> u64 {
        self.stage_payload(|index, out| prcc_storage::encode_record_into(index, record, out))
    }

    fn stage_receipt<C: WireClock>(&mut self, peer: u64, sections: &FlushSections<C>) -> u64 {
        self.stage_payload(|index, out| {
            prcc_storage::encode_receipt_record_into(index, peer, sections, out)
        })
    }

    /// How many records are staged but not yet committed.
    fn staged_records(&self) -> usize {
        self.staged_spans.len()
    }

    /// Writes every staged record as one framed batch: one buffer, one
    /// `write`, one group-commit tick — the sweep-scoped group commit.
    fn commit(&mut self) -> io::Result<()> {
        if self.staged_spans.is_empty() {
            return Ok(());
        }
        let payloads: Vec<&[u8]> = self
            .staged_spans
            .iter()
            .map(|&(start, len)| &self.staged_buf[start..start + len])
            .collect();
        let result = self.wal.append_batch(&payloads);
        drop(payloads);
        self.staged_buf.clear();
        self.staged_spans.clear();
        result?;
        self.wal_writes += 1;
        Ok(())
    }
}

/// Syncs the WAL before an acknowledgement leaves the node, when group
/// commit is enabled (without it, acks only promise process-crash
/// durability, which the flushed page cache already provides). Returns
/// false on a sync failure — the ack must not be sent over records the
/// disk may not hold, and a failing disk is fail-stop like every other
/// WAL error.
fn sync_before_ack(durable: &mut Option<Durable>, node: usize) -> bool {
    let Some(d) = durable.as_mut().filter(|d| d.fsync) else {
        return true;
    };
    if let Err(e) = d.wal.sync() {
        eprintln!("prcc-service[{node}]: WAL sync before ack failed, stopping: {e}");
        return false;
    }
    true
}

/// Seals every fully-acknowledged trace prefix of at least `min_events`
/// live events, staging the decision as a [`WalRecord::Checkpoint`]
/// through the same stage-before-apply path as the state-mutating inputs
/// (so replay reproduces the identical seal points). Staging is
/// infallible — the caller's sweep-end [`Durable::commit`] carries the
/// fail-stop.
fn compact_traces<P>(
    core: &mut Core<P>,
    durable: &mut Option<Durable>,
    map: &PartitionMap,
    min_events: usize,
) where
    P: Protocol,
    P::Clock: WireClock,
{
    let seals = core.plan_seal(min_events);
    if seals.is_empty() {
        return;
    }
    if let Some(d) = durable.as_mut() {
        let record = WalRecord::<P::Clock>::Checkpoint {
            seals: seals.clone(),
        };
        let index = d.stage(&record);
        core.tel.flight.record("wal_append", &[("index", index)]);
    }
    let sealed: u64 = seals.iter().map(|&(_, n)| n).sum();
    core.apply_seal(map, &seals);
    core.tel.flight.record(
        "seal",
        &[("partitions", seals.len() as u64), ("events", sealed)],
    );
}

/// Writes a snapshot of the (already compacted) core and truncates the
/// WAL. The caller runs [`compact_traces`] first — its WAL-append failure
/// is fail-stop, while a failure *here* (snapshot write, log reset) is
/// recoverable: the WAL still holds everything.
fn snapshot_state<P>(core: &Core<P>, d: &mut Durable) -> io::Result<u64>
where
    P: Protocol,
    P::Clock: WireClock,
{
    let snap = core.to_snapshot(d.next_index - 1);
    let payload = encode_snapshot(&snap);
    write_snapshot(&d.snapshot_path, &payload, d.fsync)?;
    d.wal.reset()?;
    d.records_since_snapshot = 0;
    d.snapshots_written += 1;
    d.snapshot_bytes = payload.len() as u64;
    if d.first_snapshot_bytes == 0 {
        d.first_snapshot_bytes = payload.len() as u64;
    }
    // Payload size for the caller's flight-recorder event (this function
    // only borrows the core immutably).
    Ok(payload.len() as u64)
}

/// Builds the post-snapshot [`WalRecord::Digest`]: one `(partition,
/// sealed events, chained digest)` triple per hosted partition, ascending
/// by partition index. Staged right after a snapshot truncates the log,
/// it is the first record replay sees, and recovery verifies it against
/// the checkpoints decoded from the snapshot file itself.
fn digest_record<P>(core: &Core<P>) -> WalRecord<P::Clock>
where
    P: Protocol,
    P::Clock: WireClock,
{
    WalRecord::Digest {
        partitions: core
            .partitions
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                slot.as_ref().map(|s| {
                    (
                        PartitionId(i as u32),
                        s.checkpoint.events,
                        s.checkpoint.digest,
                    )
                })
            })
            .collect(),
    }
}

/// Snapshots when due (every `snapshot_every` records): compacts trace
/// logs through the WAL'd checkpoint path, commits everything staged (the
/// snapshot folds staged effects, so they must be on disk before the log
/// truncates), then folds the core into a snapshot, truncates the log,
/// and stages the cross-restart [`WalRecord::Digest`] guard.
///
/// Returns false when the node must fail-stop: a failed *commit* may have
/// torn the log tail, and any later append would bury the tear mid-file
/// (the same invariant as every other append site). A failed snapshot
/// *write* is merely logged — the WAL alone still recovers everything.
fn maybe_snapshot<P>(core: &mut Core<P>, durable: &mut Option<Durable>, map: &PartitionMap) -> bool
where
    P: Protocol,
    P::Clock: WireClock,
{
    let due = durable
        .as_ref()
        .is_some_and(|d| d.snapshot_every > 0 && d.records_since_snapshot >= d.snapshot_every);
    if !due {
        return true;
    }
    compact_traces(core, durable, map, 1);
    // lint: allow(unwrap) `due` above required durable to be Some
    let d = durable.as_mut().expect("due implies a data dir");
    if let Err(e) = d.commit() {
        eprintln!(
            "prcc-service[{}]: WAL append failed, stopping (restart recovers \
             the log): {e}",
            core.node
        );
        return false;
    }
    match snapshot_state(core, d) {
        Ok(bytes) => {
            let record = digest_record(core);
            d.stage(&record);
            let wal_high = d.next_index - 1;
            core.tel
                .flight
                .record("snapshot", &[("bytes", bytes), ("wal_high", wal_high)]);
        }
        Err(e) => eprintln!("prcc-service[{}]: snapshot failed: {e}", core.node),
    }
    true
}

/// Boots a durable core: loads the snapshot (if any — v2, or a legacy v1
/// file converted on read), replays the WAL suffix past it through the
/// same transition functions the live loop uses, and returns the
/// recovered core plus the open log.
///
/// Replay never reconstructs sealed trace prefixes: the snapshot carries
/// their [`TraceCheckpoint`] summaries, records at or below the
/// snapshot's fold point are skipped outright, and
/// [`WalRecord::Checkpoint`] records in the suffix re-apply the exact
/// recorded seal points — so a recovered node's checkpoint + live-suffix
/// pair matches its pre-crash state byte for byte.
///
/// A [`WalRecord::Digest`] record (staged right after every snapshot)
/// carries the per-partition checkpoint digests the pre-crash node
/// computed; replay re-checks them against the checkpoints decoded from
/// the snapshot file and refuses to boot on a mismatch — a tampered or
/// bit-rotted snapshot must not silently seed the audit trail.
fn recover<P>(
    protocol: &P,
    map: &PartitionMap,
    node: usize,
    dir: &std::path::Path,
    cfg: &ServiceConfig,
    tel: CoreTelemetry,
    pool: &BufPool,
) -> io::Result<(Core<P>, Durable)>
where
    P: Protocol,
    P::Clock: WireClock,
{
    let node_dir = dir.join(format!("node-{node}"));
    std::fs::create_dir_all(&node_dir)?;
    let snapshot_path = node_dir.join("snapshot.bin");
    let wal_path = node_dir.join("wal.bin");
    let roles = map.graph().num_replicas();
    let (mut core, mut high) = match read_snapshot(&snapshot_path)? {
        Some((version, payload)) => {
            let snap = decode_snapshot(version, &payload, roles, |k| {
                (k.index() < roles).then(|| protocol.new_clock(k))
            })?;
            let high = snap.wal_high;
            (
                Core::from_snapshot(protocol, map, node, cfg.window_cap, snap, tel)?,
                high,
            )
        }
        None => (Core::new(protocol, map, node, cfg.window_cap, tel), 0),
    };
    // The whole-file image lives in a pooled lease: replay decodes records
    // as borrowed spans of it instead of one `Vec` per record, and the
    // buffer recycles into the node's frame pool when replay finishes.
    let mut image = pool.lease(0);
    let (mut wal, scan) = Wal::open_with_image(&wal_path, &mut image)?;
    wal.set_fsync_every(cfg.fsync_every);
    let torn_bytes = image.len() - scan.valid_len;
    if torn_bytes > 0 {
        eprintln!("prcc-service[{node}]: WAL recovery dropped a {torn_bytes}-byte torn tail");
    }
    let corrupt = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    for &(start, end) in &scan.spans {
        let payload = &image[start..end];
        let (index, record) = decode_record(payload, |k| {
            (k.index() < roles).then(|| protocol.new_clock(k))
        })?;
        if index <= high {
            // Already folded into the snapshot (a crash landed between
            // snapshot write and log truncation), or a duplicate.
            continue;
        }
        if index != high + 1 {
            // Legitimate operation can never produce a gap: appends are
            // consecutive and truncation only ever removes a snapshotted
            // prefix. A gap means the snapshot and log do not belong
            // together (stale snapshot restored from a backup, mixed-up
            // data dirs) — booting would silently drop acknowledged
            // records, so refuse instead.
            return Err(corrupt(format!(
                "WAL record {index} follows {high}: snapshot and log disagree"
            )));
        }
        high = index;
        match record {
            WalRecord::Issue {
                partition,
                register,
                value,
                wire_id,
            } => {
                if !core.can_write(protocol, partition, register) {
                    return Err(corrupt(format!(
                        "WAL record {index}: issue for unhosted {partition}/{register}"
                    )));
                }
                core.apply_write(protocol, map, partition, register, value, wire_id, 0)
                    .ok_or_else(|| {
                        corrupt(format!("WAL record {index}: issue failed to replay"))
                    })?;
            }
            WalRecord::Receipt { peer, sections } => {
                let peer = usize::try_from(peer)
                    .ok()
                    .filter(|&p| p < map.num_nodes())
                    .ok_or_else(|| corrupt(format!("WAL record {index}: peer out of range")))?;
                core.apply_sections(protocol, peer, sections);
            }
            WalRecord::Checkpoint { seals } => {
                core.apply_seal(map, &seals);
            }
            WalRecord::Digest { partitions } => {
                for (partition, events, digest) in partitions {
                    let actual = core
                        .partitions
                        .get(partition.index())
                        .and_then(Option::as_ref)
                        .map(|s| (s.checkpoint.events, s.checkpoint.digest));
                    if actual != Some((events, digest)) {
                        return Err(corrupt(format!(
                            "WAL record {index}: checkpoint digest mismatch for \
                             {partition} — the log expects {events} sealed events \
                             with digest {digest:#x}, the snapshot decodes to \
                             {actual:?}; the snapshot file is tampered or \
                             bit-rotted, refusing to boot"
                        )));
                    }
                }
            }
        }
    }
    Ok((
        core,
        Durable {
            wal,
            snapshot_path,
            next_index: high + 1,
            snapshot_every: cfg.snapshot_every,
            records_since_snapshot: 0,
            fsync: cfg.fsync_every > 0,
            wal_appends: 0,
            wal_writes: 0,
            snapshots_written: 0,
            snapshot_bytes: 0,
            first_snapshot_bytes: 0,
            staged_buf: Vec::new(),
            staged_spans: Vec::new(),
        },
    ))
}

/// Spawns a node: a small fixed pool of reactor event-loop threads plus
/// one core thread. With `cfg.data_dir` set, the node first recovers its
/// state from `<data_dir>/node-<i>/` (snapshot + WAL replay) and appends
/// every subsequent state-mutating input before applying it.
///
/// All socket I/O — both listeners, every peer link (inbound and
/// outbound, including redials), every client connection — lives on the
/// reactor's `cfg.reactor_threads` event-loop workers, so the node's
/// thread count is `reactor_threads + 1` regardless of how many clients
/// connect.
///
/// `protocol` must be configured for the partition map's per-partition
/// share graph; each hosted partition gets an independent [`Replica`] over
/// the shared protocol object (clocks are per-replica state, so partitions
/// do not share counters).
///
/// # Errors
///
/// Fails on listener introspection, a protocol/map share-graph mismatch,
/// reactor setup (epoll/eventfd), or an unrecoverable data dir (I/O
/// failure, corrupted snapshot, or a checksum-corrupted WAL record — a
/// torn WAL tail recovers silently); network errors after spawn are
/// handled per-connection (logged to stderr, connection dropped).
pub fn spawn_node<P>(
    protocol: Arc<P>,
    map: PartitionMap,
    seed: NodeSeed,
    cfg: ServiceConfig,
) -> io::Result<NodeHandle>
where
    P: Protocol + 'static,
    P::Clock: WireClock,
{
    let NodeSeed {
        node,
        peer_listener,
        client_listener,
        peer_addrs,
    } = seed;
    if protocol.share_graph() != map.graph() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "protocol share graph differs from the partition map's",
        ));
    }
    let map = Arc::new(map);
    let peer_addr = peer_listener.local_addr()?;
    let client_addr = client_listener.local_addr()?;
    let n = map.num_nodes();
    let stop = Arc::new(AtomicBool::new(false));
    let registry = Arc::new(Registry::new());
    let counters = Arc::new(NetMetrics::new(&registry));
    let tel = CoreTelemetry::new(Arc::clone(&registry), &cfg);
    // One buffer pool per node, shared by the reactor workers and the core
    // (and seeded by recovery's WAL image lease).
    let pool = BufPool::new(&registry);

    // Recover durable state before any I/O starts: peer links must see the
    // rebuilt windows on their first handshake.
    let (core, durable) = match &cfg.data_dir {
        Some(dir) => {
            let (core, mut durable) = recover(&*protocol, &map, node, dir, &cfg, tel, &pool)?;
            durable
                .wal
                .set_fsync_hist(registry.histogram("wal_fsync_us"));
            (core, Some(durable))
        }
        None => (Core::new(&*protocol, &map, node, cfg.window_cap, tel), None),
    };

    let (core_tx, core_rx) = mpsc::channel::<CoreMsg<P::Clock>>();

    // The reactor owns every socket. Registered connections (outbound peer
    // links) survive disconnects for redialing; accepted ones (inbound
    // peers, clients) are removed when they die.
    let reactor = Reactor::new(
        &format!("prcc-{node}"),
        cfg.reactor_threads,
        cfg.outbound_queue_bytes,
        pool.clone(),
        &registry,
    )?;
    let rh = reactor.handle().clone();

    // Outbound peer links: one socketless registration per remote peer.
    // Each driver dials from `on_start` and keeps its registration across
    // reconnects, so its `ConnId` is a stable address for the core's
    // commands for the node's whole lifetime.
    let mut peer_conns: Vec<Option<ConnId>> = Vec::with_capacity(n);
    for (k, &addr) in peer_addrs.iter().enumerate().take(n) {
        if k == node {
            peer_conns.push(None);
            continue;
        }
        let hello = PeerHello {
            node,
            map: (*map).clone(),
        };
        let driver = PeerOut {
            node,
            peer: k,
            addr,
            hello: encode_peer_hello(&hello),
            batch_max: cfg.batch_max.max(1),
            flush_interval: cfg.flush_interval,
            pad_bytes: cfg.pad_bytes,
            connect_timeout: cfg.connect_timeout,
            counters: Arc::clone(&counters),
            core_tx: core_tx.clone(),
            stop: Arc::clone(&stop),
            state: OutState::Down,
            pending: VecDeque::new(),
            batch: Vec::new(),
            covered: 0,
            barrier: 0,
            barrier_shipped: 0,
            acked: 0,
            generation: 0,
            deadline: None,
            backoff: Duration::from_millis(5),
            attempt: 0,
            flush_timer: false,
        };
        peer_conns.push(Some(rh.register(None, Box::new(driver))));
    }

    // Peer listener: each accepted connection gets a reader driver that
    // waits for the versioned handshake before it is bound to a link.
    {
        let rh2 = rh.clone();
        let protocol = Arc::clone(&protocol);
        let map = Arc::clone(&map);
        let core_tx = core_tx.clone();
        let counters = Arc::clone(&counters);
        rh.listen(
            peer_listener,
            Box::new(move |sock: TcpStream, _from: SocketAddr| {
                rh2.register(
                    Some(sock),
                    Box::new(PeerIn {
                        node,
                        protocol: Arc::clone(&protocol),
                        map: Arc::clone(&map),
                        core_tx: core_tx.clone(),
                        counters: Arc::clone(&counters),
                        peer: None,
                    }),
                );
            }),
        );
    }

    // Client listener: one lightweight driver per connection — no thread,
    // no stack, just the decode state machine and the shared core channel.
    {
        let rh2 = rh.clone();
        let map = Arc::clone(&map);
        let core_tx = core_tx.clone();
        let stop_c = Arc::clone(&stop);
        rh.listen(
            client_listener,
            Box::new(move |sock: TcpStream, _from: SocketAddr| {
                rh2.register(
                    Some(sock),
                    Box::new(ClientConn {
                        map: Arc::clone(&map),
                        core_tx: core_tx.clone(),
                        stop: Arc::clone(&stop_c),
                    }),
                );
            }),
        );
    }

    // The crash switch: stop everything without a graceful drain. Set
    // before the reactor stop so drivers racing the teardown observe it.
    let crashed = Arc::new(AtomicBool::new(false));
    let kill: Arc<dyn Fn() + Send + Sync> = {
        let stop = Arc::clone(&stop);
        let crashed = Arc::clone(&crashed);
        let core_tx = core_tx.clone();
        let rh = rh.clone();
        Arc::new(move || {
            crashed.store(true, Ordering::SeqCst);
            stop.store(true, Ordering::SeqCst);
            let _ = core_tx.send(CoreMsg::Crash);
            // Sever every connection and both listeners, dropping queued
            // output on the floor — in-flight client requests see their
            // connections die, exactly like a process crash.
            rh.stop(false);
        })
    };

    let io = CoreIo {
        handle: rh,
        peer_conns,
        pool,
        counters,
    };

    // The core event loop runs on the one thread the node owns outright.
    // It holds the crash switch so a fail-stop (WAL append failure) tears
    // the whole node down — reactor, listeners, connections — instead of
    // leaving a half-alive shell whose bound ports would mask the outage.
    let ack_every = cfg.ack_every;
    let trace_compact_at = cfg.trace_compact_at;
    let core_kill = Arc::clone(&kill);
    let core_thread = thread::Builder::new()
        .name(format!("prcc-core-{node}"))
        .spawn(move || {
            core_loop(
                &protocol,
                &map,
                node,
                &core_rx,
                &io,
                core,
                durable,
                ack_every,
                trace_compact_at,
                &core_kill,
            );
            // Graceful exits drain queued output (the shutdown Bye,
            // trailing acks) within the reactor's drain deadline; a crash
            // already severed everything, and this second stop is a no-op.
            reactor.stop(!crashed.load(Ordering::SeqCst));
            reactor.join();
        })?;

    Ok(NodeHandle {
        node,
        peer_addr,
        client_addr,
        core: Some(core_thread),
        kill,
    })
}

/// The core thread's grip on the reactor: the handle commands travel out
/// through, the per-peer outbound link registrations, and the shared pool
/// and socket counters for encoding replies in place.
struct CoreIo {
    handle: ReactorHandle,
    /// Outbound link `ConnId` per node index (`None` for self). Stable
    /// for the node's lifetime — links redial under the same id.
    peer_conns: Vec<Option<ConnId>>,
    pool: BufPool,
    counters: Arc<NetMetrics>,
}

/// One postponed side effect of a core sweep. Nothing a processed message
/// produced may escape the node — no client reply, no peer update, no
/// acknowledgement — until the sweep's staged WAL batch is committed:
/// releasing any of them earlier would let an effect outlive a crash that
/// loses its record. Emitted in arrival order at sweep end.
enum Deferred<C> {
    WriteReply(ConnId, bool),
    ReadReply(ConnId, (bool, Option<u64>)),
    /// An outbound update headed for `peer`'s link driver.
    Send(usize, u64, PartitionId, Update<C>),
    /// A streamed link acknowledgement — requires a WAL sync first.
    Ack(ConnId, u64),
    /// A handshake acknowledgement — same sync-before-promise rule.
    JoinReply(ConnId, u64),
    /// The resume window for a reconnected outbound link, plus the link's
    /// seal barrier at reply time.
    ResumeReply(ConnId, Vec<(u64, PartitionId, Update<C>)>, u64),
    Status(ConnId, Box<NodeStatus>),
    Trace(ConnId, Vec<(TraceCheckpoint, Vec<TraceEvent>)>),
    Metrics(ConnId, MetricsSnapshot),
    /// A consistent-cut reply to a client (the snapshot is live-only
    /// audit state, but the reply still waits for the sweep's commit like
    /// every other effect — simpler than a second release path).
    CutReply(ConnId, Option<CutSnapshot>),
    /// A cut marker to broadcast to every peer link. Deferred-in-order
    /// like the sends around it: an update processed before the marker in
    /// this sweep reaches the link's command queue first, one processed
    /// after it reaches the queue after — command order is exactly marker
    /// order on the wire.
    Marker(u64),
    /// A link's seal barrier advanced; ship the new value to its driver.
    Barrier(usize, u64),
}

/// Encodes a client response in place into a pooled buffer and pushes it
/// onto the requesting connection's outbound queue. An encode failure
/// (frame over the wire cap) drops the connection — the client sees a
/// reset, never a torn frame.
fn respond(io: &CoreIo, conn: ConnId, response: &ClientResponse) {
    let mut frame = io.pool.lease(256);
    match append_frame(&mut frame, |out| encode_response_into(response, out)) {
        Ok(_) => io.handle.send(conn, frame),
        Err(_) => io.handle.close(conn),
    }
}

/// The node's event loop, organized as *sweeps*: one blocking receive
/// opens a sweep, an opportunistic drain extends it (up to [`SWEEP_MAX`]
/// messages), and every WAL record staged so far is committed as one
/// group-committed batch at sweep end — one buffer, one `write`, one
/// fsync tick — before any of the sweep's deferred effects (replies,
/// acks, peer sends) are released. A sweep that releases no effect —
/// typically a peer frame between streamed acks — leaves its records
/// staged for the next commit: nothing that depends on them has left the
/// node, and a crash before that commit loses only unacknowledged
/// receipts, which their senders retransmit. Under load this collapses
/// the historical ~1.55 WAL writes per operation into a fraction of a
/// write per operation without weakening durability: an effect escapes
/// only after its record is on disk, exactly as in the
/// one-write-per-record regime.
#[allow(clippy::too_many_arguments)]
fn core_loop<P>(
    protocol: &Arc<P>,
    map: &PartitionMap,
    node: usize,
    core_rx: &mpsc::Receiver<CoreMsg<P::Clock>>,
    io: &CoreIo,
    mut core: Core<P>,
    mut durable: Option<Durable>,
    ack_every: u64,
    trace_compact_at: usize,
    kill: &Arc<dyn Fn() + Send + Sync>,
) where
    P: Protocol,
    P::Clock: WireClock,
{
    // Whether to dump the flight recorder on exit: set by every fail-stop
    // and crash-injection path, left unset by graceful shutdown.
    let mut dump = false;
    // Sweep-lived scratch, reused across sweeps.
    let mut deferred: Vec<Deferred<P::Clock>> = Vec::new();
    let mut wal_stamps: Vec<u64> = Vec::new();
    // The live inbound connection per peer, replaced on redial: the core
    // closes the stale predecessor so a half-open socket cannot keep the
    // peer writing into a black hole.
    let mut inbound: Vec<Option<ConnId>> = vec![None; map.num_nodes()];
    // lint: hot-path
    'run: while let Ok(first) = core_rx.recv() {
        let mut swept = 0usize;
        let mut shutdown = false;
        let mut pending = Some(first);
        while let Some(msg) = pending.take() {
            swept += 1;
            match msg {
                CoreMsg::Write {
                    partition,
                    register,
                    value,
                    conn,
                } => {
                    if !core.can_write(&**protocol, partition, register) {
                        deferred.push(Deferred::WriteReply(conn, false));
                    } else {
                        let wire_id = core.next_wire_id();
                        // Origin sampling decision: a non-zero stamp makes this
                        // write a traced one, at every stage and node it touches.
                        let stamp_us = if core.tel.sampler.hit() { wall_us() } else { 0 };
                        if let Some(d) = durable.as_mut() {
                            let record = WalRecord::<P::Clock>::Issue {
                                partition,
                                register,
                                value,
                                wire_id,
                            };
                            // Stage-before-apply: the record joins the sweep's
                            // batch; the client's ack and the peer sends below
                            // stay deferred until that batch is committed.
                            let index = d.stage(&record);
                            core.tel
                                .flight
                                .record("wal_append", &[("index", index), ("wire_id", wire_id)]);
                            if stamp_us != 0 {
                                wal_stamps.push(stamp_us);
                            }
                        }
                        let sends = core
                            .apply_write(
                                &**protocol,
                                map,
                                partition,
                                register,
                                value,
                                wire_id,
                                stamp_us,
                            )
                            // lint: allow(unwrap) can_write gated this branch
                            .expect("write validated before stage");
                        core.tel.flight.record(
                            "write",
                            &[
                                ("wire_id", wire_id),
                                ("partition", u64::from(partition.0)),
                                ("register", u64::from(register.0)),
                            ],
                        );
                        // The reply goes first: replication work runs in
                        // the same tick, and the client should not queue
                        // behind it.
                        deferred.push(Deferred::WriteReply(conn, true));
                        for (peer, seq, p, update) in sends {
                            deferred.push(Deferred::Send(peer, seq, p, update));
                        }
                        if trace_compact_at > 0 {
                            compact_traces(&mut core, &mut durable, map, trace_compact_at);
                        }
                        if !maybe_snapshot(&mut core, &mut durable, map) {
                            core.tel.flight.record("fail_stop_checkpoint", &[]);
                            dump = true;
                            deferred.clear();
                            kill();
                            break 'run;
                        }
                    }
                }
                CoreMsg::Read {
                    partition,
                    register,
                    conn,
                } => {
                    let answer = match core
                        .partitions
                        .get(partition.index())
                        .and_then(Option::as_ref)
                        .map(|slot| slot.replica.read(&**protocol, register))
                    {
                        Some(Ok(value)) => (true, value),
                        Some(Err(_)) | None => (false, None),
                    };
                    // Deferred like every reply: a read may observe a write
                    // staged earlier in this sweep, and that observation must
                    // not escape before the write's record is committed.
                    deferred.push(Deferred::ReadReply(conn, answer));
                }
                CoreMsg::Updates {
                    peer,
                    sections,
                    barrier,
                    conn,
                } => {
                    if peer < core.links.len() {
                        // Raise the link's seal barrier before applying, so
                        // the straggler fast path covers this very frame's
                        // own resend overlap.
                        core.raise_seal_barrier(peer, barrier);
                        let n_updates: u64 = sections.iter().map(|(_, us)| us.len() as u64).sum();
                        if let Some(d) = durable.as_mut() {
                            // Frame-level sampling for the receipt append: the
                            // issue-keyed stamps measure origin-side appends,
                            // this measures the recipient's.
                            let t0 = if core.tel.sampler.hit() { wall_us() } else { 0 };
                            // Stage-before-apply: the frame joins the sweep's
                            // batch, and the acknowledgement below stays
                            // deferred (and synced) behind the commit — a
                            // commit failure drops the frame *unacknowledged*
                            // and fail-stops the node, so the peer's window
                            // retransmits it to the restarted node.
                            let index = d.stage_receipt(peer as u64, &sections);
                            core.tel.flight.record("wal_append", &[("index", index)]);
                            if t0 != 0 {
                                wal_stamps.push(t0);
                            }
                        }
                        core.tel.flight.record(
                            "recv_frame",
                            &[("peer", peer as u64), ("updates", n_updates)],
                        );
                        core.apply_sections(&**protocol, peer, sections);
                        let link = &mut core.links[peer];
                        link.frames_since_ack += 1;
                        if ack_every > 0 && link.frames_since_ack >= ack_every {
                            link.frames_since_ack = 0;
                            // Acknowledge the watermark's contiguous line only:
                            // residue above a gap stays unacknowledged until
                            // the gap fills. An ack makes the peer prune its
                            // resend window, so with group commit the sweep
                            // syncs before releasing it.
                            let acked = link.recv.high();
                            deferred.push(Deferred::Ack(conn, acked));
                        }
                        if trace_compact_at > 0 {
                            compact_traces(&mut core, &mut durable, map, trace_compact_at);
                        }
                        if !maybe_snapshot(&mut core, &mut durable, map) {
                            core.tel.flight.record("fail_stop_checkpoint", &[]);
                            dump = true;
                            deferred.clear();
                            kill();
                            break 'run;
                        }
                    }
                }
                CoreMsg::PeerJoin { peer, conn } => {
                    let acked = core.links.get(peer).map_or(0, |link| link.recv.high());
                    // A redial replaces the peer's previous inbound
                    // connection: close the stale one. Binding happens only
                    // after a validated handshake, so a garbage connection
                    // cannot evict a healthy link.
                    if let Some(slot) = inbound.get_mut(peer) {
                        if let Some(old) = slot.replace(conn) {
                            if old != conn {
                                io.handle.close(old);
                            }
                        }
                    }
                    // The hello-ack is an acknowledgement too (the dialer
                    // prunes and resumes past it) — same sync-before-promise
                    // rule as the streamed acks, enforced at sweep end.
                    core.tel
                        .flight
                        .record("peer_join", &[("peer", peer as u64), ("acked", acked)]);
                    deferred.push(Deferred::JoinReply(conn, acked));
                }
                CoreMsg::PeerResume { peer, acked, conn } => {
                    let window = core.resume(peer, acked);
                    // Ship the link's seal barrier with the resume so the
                    // very first post-reconnect flush frames carry it; the
                    // reply doubles as the barrier's delivery, so mark it
                    // sent.
                    let barrier = core.links.get_mut(peer).map_or(0, |link| {
                        link.barrier_sent = link.barrier_sent.max(link.sealed_high);
                        link.sealed_high
                    });
                    core.tel.flight.record(
                        "peer_resume",
                        &[
                            ("peer", peer as u64),
                            ("acked", acked),
                            ("window", window.len() as u64),
                        ],
                    );
                    deferred.push(Deferred::ResumeReply(conn, window, barrier));
                }
                CoreMsg::PeerAcked { peer, seq } => {
                    core.prune(peer, seq);
                }
                CoreMsg::Cut { token, start, conn } => {
                    if start && !core.cut_seen(token) {
                        // Snapshot *now*, at this message's channel
                        // position: writes processed earlier in the sweep
                        // are inside the cut, later ones outside it.
                        core.record_cut(map, token);
                        core.tel.flight.record("cut_start", &[("token", token)]);
                        deferred.push(Deferred::Marker(token));
                    }
                    deferred.push(Deferred::CutReply(conn, core.cut_snapshot(token)));
                }
                CoreMsg::PeerMarker { token } => {
                    if !core.cut_seen(token) {
                        core.record_cut(map, token);
                        core.tel.flight.record("cut_marker", &[("token", token)]);
                        deferred.push(Deferred::Marker(token));
                    }
                }
                CoreMsg::Status(conn) => {
                    let mut status = core.status();
                    if let Some(d) = &durable {
                        status.wal_appends = d.wal_appends;
                        status.snapshots_written = d.snapshots_written;
                        status.wal_bytes = d.wal.bytes();
                        status.snapshot_bytes = d.snapshot_bytes;
                        status.first_snapshot_bytes = d.first_snapshot_bytes;
                    }
                    // Fold in the shared socket counters and the reactor's
                    // own telemetry — the core is the one place that can
                    // see both sides.
                    status.bytes_out = io.counters.bytes_out.get();
                    status.bytes_in = io.counters.bytes_in.get();
                    status.batches_sent = io.counters.batches_sent.get();
                    status.frames_sent = io.counters.frames_sent.get();
                    status.flushes = io.counters.flushes.get();
                    status.resent = io.counters.resent.get();
                    let rm = io.handle.metrics();
                    status.reactor_wakeups = rm.wakeups.get();
                    status.reactor_events = rm.events.get();
                    status.reactor_rearms = rm.rearms.get();
                    status.reactor_outq_hiwat = rm.outq_hiwat.get();
                    // lint: allow(alloc) status scrape is the cold admin path
                    deferred.push(Deferred::Status(conn, Box::new(status)));
                }
                CoreMsg::Trace(conn) => {
                    deferred.push(Deferred::Trace(conn, core.traces()));
                }
                CoreMsg::Metrics(conn) => {
                    // Gauges mirror authoritative core state at scrape time;
                    // counters and histograms are already live in the
                    // registry the reactor workers share.
                    core.mirror_gauges(&durable);
                    deferred.push(Deferred::Metrics(conn, core.tel.registry.snapshot()));
                }
                CoreMsg::Crash => {
                    // Drop the sweep on the floor: nothing staged commits
                    // (this sweep's records, nor any an effect-free earlier
                    // sweep left staged) and nothing deferred escapes —
                    // indistinguishable from the crash landing before these
                    // messages arrived, which is exactly the point the
                    // recovery suite replays from.
                    core.tel.flight.record("crash", &[]);
                    dump = true;
                    deferred.clear();
                    break 'run;
                }
                CoreMsg::Shutdown => {
                    // Stop draining; the sweep end below commits and releases
                    // what was already processed, then the final snapshot runs.
                    shutdown = true;
                }
            }
            if !shutdown && swept < SWEEP_MAX {
                pending = core_rx.try_recv().ok();
            }
        }

        // Seal barriers advance only under the acks this sweep processed;
        // ship any new value alongside the sweep's other effects.
        for (peer, link) in core.links.iter_mut().enumerate() {
            if link.sealed_high > link.barrier_sent {
                link.barrier_sent = link.sealed_high;
                deferred.push(Deferred::Barrier(peer, link.sealed_high));
            }
        }
        // Sweep end: one group-committed WAL write covers every record
        // staged since the last commit; only then do the sweep's effects
        // leave the node. Without effects to release, the records wait for
        // the next commit (bounded by SWEEP_MAX staged records).
        if let Some(d) = durable
            .as_mut()
            .filter(|d| !deferred.is_empty() || d.staged_records() >= SWEEP_MAX)
        {
            if let Err(e) = d.commit() {
                // Fail-stop: a failed write may have left partial bytes
                // in the log, and any further append would bury that
                // tear mid-file — turning recoverable torn-tail damage
                // into unrecoverable corruption. Every deferred effect
                // is dropped (unreplied, unacked), so clients see a
                // dead node and peers retransmit after restart.
                eprintln!(
                    "prcc-service[{node}]: WAL append failed, stopping (restart \
                     recovers the log): {e}"
                );
                core.tel.flight.record("fail_stop_wal_append", &[]);
                dump = true;
                deferred.clear();
                kill();
                break;
            }
            for &t0 in &wal_stamps {
                core.tel.wal_append_us.record(wall_us().saturating_sub(t0));
            }
            wal_stamps.clear();
        }
        let needs_sync = deferred
            .iter()
            .any(|d| matches!(d, Deferred::Ack(..) | Deferred::JoinReply(..)));
        if needs_sync && !sync_before_ack(&mut durable, node) {
            core.tel.flight.record("fail_stop_sync", &[]);
            dump = true;
            deferred.clear();
            kill();
            break;
        }
        for effect in deferred.drain(..) {
            match effect {
                Deferred::WriteReply(conn, ok) => {
                    respond(io, conn, &ClientResponse::WriteAck { ok });
                }
                Deferred::ReadReply(conn, (ok, value)) => {
                    respond(io, conn, &ClientResponse::ReadResp { ok, value });
                }
                Deferred::Send(peer, seq, p, update) => {
                    if let Some(conn) = io.peer_conns[peer] {
                        // lint: allow(alloc) one boxed command per cross-thread hop
                        let cmd = Box::new(PeerCmd::Update(seq, p, update));
                        io.handle.command(conn, cmd);
                    }
                }
                Deferred::Ack(conn, acked) => {
                    let mut frame = io.pool.lease(64);
                    match append_frame(&mut frame, |out| encode_peer_ack_into(acked, out)) {
                        Ok(_) => {
                            io.counters.bytes_out.add(frame.len() as u64);
                            io.handle.send(conn, frame);
                        }
                        Err(_) => io.handle.close(conn),
                    }
                }
                Deferred::JoinReply(conn, acked) => {
                    let mut frame = io.pool.lease(64);
                    match append_frame(&mut frame, |out| encode_hello_ack_into(acked, out)) {
                        Ok(_) => {
                            io.counters.bytes_out.add(frame.len() as u64);
                            io.handle.send(conn, frame);
                        }
                        Err(_) => io.handle.close(conn),
                    }
                }
                Deferred::ResumeReply(conn, window, barrier) => {
                    let cmd = Box::new(PeerCmd::Resume { window, barrier }); // lint: allow(alloc) one boxed command per reconnect
                    io.handle.command(conn, cmd);
                }
                Deferred::Status(conn, status) => {
                    respond(io, conn, &ClientResponse::Status(*status));
                }
                Deferred::Trace(conn, traces) => {
                    respond(io, conn, &ClientResponse::Trace(traces));
                }
                Deferred::Metrics(conn, snapshot) => {
                    respond(io, conn, &ClientResponse::Metrics(snapshot));
                }
                Deferred::CutReply(conn, snap) => {
                    respond(io, conn, &ClientResponse::Cut(snap));
                }
                Deferred::Marker(token) => {
                    for conn in io.peer_conns.iter().flatten() {
                        let cmd = Box::new(PeerCmd::<P::Clock>::Marker(token)); // lint: allow(alloc) one boxed command per audit
                        io.handle.command(*conn, cmd);
                    }
                }
                Deferred::Barrier(peer, barrier) => {
                    if let Some(conn) = io.peer_conns[peer] {
                        let cmd = Box::new(PeerCmd::<P::Clock>::Barrier(barrier)); // lint: allow(alloc) one boxed command per barrier advance
                        io.handle.command(conn, cmd);
                    }
                }
            }
        }
        if shutdown {
            // A final snapshot makes restart-after-shutdown instant and
            // keeps the WAL short; failure is non-fatal (the WAL alone
            // still recovers everything, and the node is stopping anyway —
            // no later append can bury a torn tail).
            if durable.is_some() {
                compact_traces(&mut core, &mut durable, map, 1);
                // lint: allow(unwrap) `durable.is_some()` gated this branch
                let d = durable.as_mut().expect("checked above");
                if let Err(e) = d.commit() {
                    eprintln!("prcc-service[{node}]: final WAL append failed: {e}");
                } else {
                    match snapshot_state(&core, d) {
                        Ok(_) => {
                            let record = digest_record(&core);
                            d.stage(&record);
                            if let Err(e) = d.commit() {
                                eprintln!("prcc-service[{node}]: final digest append failed: {e}");
                            }
                        }
                        Err(e) => eprintln!("prcc-service[{node}]: final snapshot failed: {e}"),
                    }
                }
            }
            break;
        }
    }
    // lint: end-hot-path
    // The flight dump is the crash's black box: written only on fail-stop
    // or injected crash, next to the node's WAL, so a post-mortem can line
    // the last recorded events up against the recovered log.
    if dump {
        if let Some(dir) = durable.as_ref().and_then(|d| d.snapshot_path.parent()) {
            let path = dir.join("flight.log");
            if let Err(e) = core.tel.flight.dump_to(&path) {
                eprintln!("prcc-service[{node}]: flight dump failed: {e}");
            }
        }
    }
}

/// Groups a run of `(seq, partition, update)` entries into multi-batch
/// sections, preserving first-seen section order and per-partition update
/// order (cross-partition order is irrelevant — partitions are causally
/// independent).
fn pack_sections<C>(
    entries: impl IntoIterator<Item = (u64, PartitionId, Update<C>)>,
) -> FlushSections<C> {
    let mut sections: FlushSections<C> = Vec::new();
    for (seq, partition, update) in entries {
        // Linear scan: a flush touches at most a handful of partitions.
        match sections.iter_mut().find(|(p, _)| *p == partition) {
            Some((_, updates)) => updates.push((seq, update)),
            None => sections.push((partition, vec![(seq, update)])),
        }
    }
    sections
}

/// Connection lifecycle of an outbound peer link driver.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OutState {
    /// No socket; waiting out a backoff timer before the next dial.
    Down,
    /// A non-blocking connect is in flight.
    Dialing,
    /// Connected; hello sent; waiting for the peer's hello-ack.
    AwaitAck,
    /// Hello-ack received; waiting for the core's resume window.
    AwaitResume,
    /// Streaming. Commands apply directly; acks flow back in.
    Established,
}

// lint: reactor
/// The outbound half of one peer link, driven entirely by reactor events:
/// dials (and redials, with the same seeded backoff jitter as the old
/// sender threads), handshakes, retransmits the resume window, batches
/// core-issued updates into multi-batch flush frames, and feeds streamed
/// acknowledgements back to the core. Registration is permanent: the
/// driver returns [`Fate::Keep`] from every disconnect while the node is
/// alive, so the core's command address never changes.
struct PeerOut<C> {
    /// This node's index (log prefix and backoff jitter key).
    node: usize,
    /// The remote node's index — the link this driver owns.
    peer: usize,
    addr: SocketAddr,
    /// The encoded hello payload, built once; framed per connection.
    hello: Vec<u8>,
    batch_max: usize,
    flush_interval: Duration,
    pad_bytes: usize,
    connect_timeout: Duration,
    counters: Arc<NetMetrics>,
    core_tx: mpsc::Sender<CoreMsg<C>>,
    stop: Arc<AtomicBool>,
    state: OutState,
    /// Commands that arrived mid-handshake, replayed in order once the
    /// resume window has been retransmitted.
    pending: VecDeque<PeerCmd<C>>,
    /// The open batch: updates waiting for the end of the tick (or the
    /// linger timer, when one is configured) or a full
    /// `batch_max * MAX_FLUSH_FRAMES` backlog.
    batch: Vec<(u64, PartitionId, Update<C>)>,
    /// Highest sequence already transmitted on this connection (the
    /// resume window's tail, advanced by every flush): entries at or
    /// below it still arriving through the command queue are duplicates
    /// of what the resume sent and are dropped before encoding.
    covered: u64,
    /// The link's seal barrier, carried in a flush frame when it advanced.
    barrier: u64,
    /// The barrier last written on this connection (reset on connect): a
    /// frame carries the barrier only when it exceeds this, and an absent
    /// barrier leaves the receiver's recorded one unchanged.
    barrier_shipped: u64,
    /// The peer's acknowledged offset from the current handshake.
    acked: u64,
    /// Connection generation: counts successful connects.
    generation: u64,
    /// The current dial window's deadline.
    deadline: Option<Instant>,
    backoff: Duration,
    attempt: u64,
    /// Whether the linger timer is armed for the open batch.
    flush_timer: bool,
}

impl<C: WireClock> PeerOut<C> {
    /// Opens a fresh dial window: full `connect_timeout`, backoff reset,
    /// and an immediate dial.
    fn begin_window(&mut self, ctx: &mut Ctx<'_>) {
        self.deadline = Some(ctx.now() + self.connect_timeout);
        self.backoff = Duration::from_millis(5);
        self.attempt = 0;
        self.state = OutState::Dialing;
        ctx.dial(self.addr);
    }

    /// Ships a run of `(seq, partition, update)` entries: packs each
    /// `batch_max`-sized chunk into one multi-batch frame encoded in
    /// place into a pooled buffer and enqueues it (the reactor coalesces
    /// queued frames into vectored writes). Maintains the
    /// flush/frame/batch counters.
    // lint: hot-path
    fn transmit(
        &mut self,
        ctx: &mut Ctx<'_>,
        entries: &[(u64, PartitionId, Update<C>)],
        record_send_us: bool,
    ) {
        if entries.is_empty() {
            return;
        }
        let mut batches = 0u64;
        for chunk in entries.chunks(self.batch_max) {
            // lint: allow(alloc) sections regroup one bounded chunk per flush
            let sections = pack_sections(chunk.iter().cloned());
            // `flushes` counts drain cycles at the moment a flush exists —
            // deliberately NOT at the same site as `frames_sent`, which counts
            // frame enqueues. Keeping the two sites apart is what makes
            // `frames_per_flush` a binding regression signal for the
            // prcc-load `--max-frames-per-flush` gate.
            self.counters.flushes.add(1);
            let barrier = if self.barrier > self.barrier_shipped {
                self.barrier_shipped = self.barrier;
                self.barrier
            } else {
                0
            };
            let mut frame = ctx.pool().lease(256);
            if append_frame(&mut frame, |out| {
                encode_multi_batch_sealed_into(&sections, self.pad_bytes, barrier, out)
            })
            .is_err()
            {
                // A frame over the wire cap is a config error (batch_max
                // times update size exceeded the frame bound); drop the
                // connection loudly rather than ship a torn frame.
                eprintln!(
                    "prcc-service[{}]: flush frame to {} over the wire cap; dropping link",
                    self.node, self.addr
                );
                ctx.close();
                return;
            }
            batches += sections.len() as u64;
            self.counters.frames_sent.add(1);
            self.counters.bytes_out.add(frame.len() as u64);
            ctx.send(frame);
        }
        self.counters.batches_sent.add(batches);
        // Send-stage latency (issue → first socket enqueue) for sampled
        // updates: one clock read per flush, taken lazily, and only on
        // the first-transmission path — window resends would
        // double-count the same stamps.
        if record_send_us {
            let mut now = 0u64;
            for (_, _, update) in entries {
                let stamp = update.issued_at.0;
                if stamp != 0 {
                    if now == 0 {
                        now = wall_us();
                    }
                    self.counters.send_us.record(now.saturating_sub(stamp));
                }
            }
        }
    }

    /// Flushes the open batch: drops entries the resume already covered,
    /// then ships complete `batch_max` chunks — all of it when `force`
    /// (tick end without linger, or the linger timer's deadline), only
    /// full chunks otherwise (a partial tail keeps accumulating, under the
    /// linger timer when one is configured, else until the tick ends).
    fn flush(&mut self, ctx: &mut Ctx<'_>, force: bool) {
        let covered = self.covered;
        self.batch.retain(|(seq, _, _)| *seq > covered);
        let ship = if force {
            self.batch.len()
        } else {
            (self.batch.len() / self.batch_max) * self.batch_max
        };
        if ship > 0 {
            let rest = self.batch.split_off(ship);
            let shipped = std::mem::replace(&mut self.batch, rest);
            if let Some(&(last, _, _)) = shipped.last() {
                self.covered = last;
            }
            self.transmit(ctx, &shipped, true);
        }
        if self.batch.is_empty() {
            self.flush_timer = false;
            ctx.clear_timer();
        } else if !self.flush_timer && !self.flush_interval.is_zero() {
            self.flush_timer = true;
            ctx.set_timer(self.flush_interval);
        }
    }
    // lint: end-hot-path

    /// Applies one established-state command (also used to replay the
    /// handshake-era backlog after a resume).
    fn apply_cmd(&mut self, ctx: &mut Ctx<'_>, cmd: PeerCmd<C>) {
        match cmd {
            PeerCmd::Update(seq, partition, update) => {
                self.batch.push((seq, partition, update));
                // Opportunistic backlog bound: a link that fell behind
                // flushes once MAX_FLUSH_FRAMES frames' worth piles up
                // instead of growing the batch without limit.
                if self.batch.len() >= self.batch_max * MAX_FLUSH_FRAMES {
                    self.flush(ctx, false);
                }
            }
            PeerCmd::Marker(token) => {
                // Everything queued before the marker must hit the wire
                // first, the marker next, everything after it later.
                self.flush(ctx, true);
                self.write_marker(ctx, token);
            }
            PeerCmd::Barrier(b) => self.barrier = self.barrier.max(b),
            // Resume is handled in on_command before dispatch; a stray one
            // (stale reply after a re-handshake) is ignored.
            PeerCmd::Resume { .. } => {}
        }
    }

    /// Writes a cut marker frame. A failure loses it (markers are not
    /// windowed) — the audit then reports the cut incomplete, never a
    /// wrong verdict.
    fn write_marker(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let mut frame = ctx.pool().lease(16);
        if append_frame(&mut frame, |out| {
            out.extend_from_slice(&encode_cut_marker(token))
        })
        .is_ok()
        {
            self.counters.bytes_out.add(frame.len() as u64);
            ctx.send(frame);
        }
    }

    /// The core answered the handshake with the resume window: retransmit
    /// it, mark the link established, and replay the command backlog.
    fn finish_resume(
        &mut self,
        ctx: &mut Ctx<'_>,
        window: Vec<(u64, PartitionId, Update<C>)>,
        barrier: u64,
    ) {
        self.barrier = self.barrier.max(barrier);
        // A cut marker parked mid-handshake keeps its channel position:
        // window entries the core issued after it (their commands sit
        // behind it in the backlog) are left to the backlog replay below,
        // which ships them after the marker. Sending them with the resume
        // would let the peer apply updates issued after the origin's cut
        // before it sees that cut's marker.
        let first_after_marker = self
            .pending
            .iter()
            .skip_while(|cmd| !matches!(cmd, PeerCmd::Marker(_)))
            .find_map(|cmd| match cmd {
                PeerCmd::Update(seq, ..) => Some(*seq),
                _ => None,
            });
        let resume = first_after_marker.map_or(window.len(), |first| {
            window.partition_point(|&(seq, _, _)| seq < first)
        });
        let window = &window[..resume];
        // Everything up to the resumed tail is covered by this resume:
        // entries still sitting in the command backlog at or below
        // `covered` are duplicates of what the resume sends and are
        // dropped by the flush filter.
        self.covered = window.last().map_or(self.acked, |&(seq, _, _)| seq);
        // A window shipped on the very first connection of a fresh link
        // (generation 1, nothing acked) is a first transmission — writes
        // merely raced the dial — not a retransmission; everything else
        // (reconnects, and restarts where the peer remembers the link) is.
        let resent = if self.generation > 1 || self.acked > 0 {
            window.len() as u64
        } else {
            0
        };
        self.transmit(ctx, window, false);
        self.counters.resent.add(resent);
        self.state = OutState::Established;
        while let Some(cmd) = self.pending.pop_front() {
            self.apply_cmd(ctx, cmd);
        }
    }
}

impl<C: WireClock> Driver for PeerOut<C> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.begin_window(ctx);
    }

    fn on_connected(&mut self, ctx: &mut Ctx<'_>) {
        // Each successful dial is a new connection generation. The
        // handshake opens every connection, including redials: the
        // acceptor's driver expects it and answers with the link's
        // acknowledged resume offset.
        self.generation += 1;
        self.state = OutState::AwaitAck;
        // A fresh connection's receiver may have restarted: the first
        // frame that follows carries the barrier again.
        self.barrier_shipped = 0;
        let mut frame = ctx.pool().lease(self.hello.len() + 8);
        if append_frame(&mut frame, |out| out.extend_from_slice(&self.hello)).is_ok() {
            self.counters.bytes_out.add(frame.len() as u64);
            ctx.send(frame);
        } else {
            ctx.close();
        }
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: Lease) -> io::Result<()> {
        self.counters.bytes_in.add(frame.len() as u64 + 4);
        match self.state {
            OutState::AwaitAck => {
                self.acked = decode_hello_ack(&frame)?;
                self.state = OutState::AwaitResume;
                // Fetch the unacked window past the peer's offset; the
                // core replies with a Resume command on this connection.
                if self
                    .core_tx
                    .send(CoreMsg::PeerResume {
                        peer: self.peer,
                        acked: self.acked,
                        conn: ctx.conn_id(),
                    })
                    .is_err()
                {
                    ctx.close(); // Core shut down.
                }
                Ok(())
            }
            _ => {
                // Streamed acknowledgements: forward to the core for
                // window pruning.
                let seq = decode_peer_ack(&frame)?;
                if self
                    .core_tx
                    .send(CoreMsg::PeerAcked {
                        peer: self.peer,
                        seq,
                    })
                    .is_err()
                {
                    ctx.close(); // Core shut down.
                }
                Ok(())
            }
        }
    }

    fn on_command(&mut self, ctx: &mut Ctx<'_>, cmd: Box<dyn Any + Send>) {
        let Ok(cmd) = cmd.downcast::<PeerCmd<C>>() else {
            return;
        };
        match *cmd {
            // Barriers are max-monotone, so applying one early (even
            // mid-handshake) is always safe.
            PeerCmd::Barrier(b) => self.barrier = self.barrier.max(b),
            PeerCmd::Resume { window, barrier } => {
                if self.state == OutState::AwaitResume {
                    self.finish_resume(ctx, window, barrier);
                }
            }
            cmd => {
                if self.state == OutState::Established {
                    self.apply_cmd(ctx, cmd);
                } else {
                    // Mid-handshake (or mid-backoff): park the command.
                    // Updates in it are also parked in the core's window,
                    // but replaying the backlog in order after the resume
                    // keeps markers at their command positions.
                    self.pending.push_back(cmd);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>) {
        match self.state {
            // The linger deadline: ship the open batch, full or not.
            OutState::Established => {
                self.flush_timer = false;
                self.flush(ctx, true);
            }
            // The backoff expired: dial again inside the current window.
            OutState::Down => {
                self.state = OutState::Dialing;
                ctx.dial(self.addr);
            }
            // A stale flush timer from before a disconnect; ignore.
            _ => {}
        }
    }

    fn on_flush(&mut self, ctx: &mut Ctx<'_>) {
        // End of a tick that delivered commands: without a linger, ship
        // everything the tick queued; with one, ship complete chunks now
        // and let a partial tail wait for more traffic or its timer.
        if self.state == OutState::Established {
            self.flush(ctx, self.flush_interval.is_zero());
        }
    }

    fn on_disconnect(&mut self, ctx: &mut Ctx<'_>, err: Option<&io::Error>) -> Fate {
        if self.stop.load(Ordering::SeqCst) {
            return Fate::Remove;
        }
        let was_established = self.state == OutState::Established;
        // The local batch dies with the connection: every update in it is
        // still parked in the core's window, and the resume on the next
        // successful handshake retransmits whatever the peer missed.
        self.batch.clear();
        self.flush_timer = false;
        if was_established {
            if let Some(e) = err {
                eprintln!(
                    "prcc-service[{}]: peer link {}: {e}; reconnecting",
                    self.node, self.addr
                );
            }
            self.begin_window(ctx);
            return Fate::Keep;
        }
        // A dial or handshake failed. Back off inside the current window;
        // when the window is exhausted, report once, discard the command
        // backlog (every entry is also parked in the core's window, which
        // the resume on the next successful dial retransmits), and open a
        // fresh window — a peer down longer than one connect_timeout
        // (e.g. a slow crash-restart) must not strand the link forever.
        let now = ctx.now();
        let deadline = self.deadline.unwrap_or(now);
        if now >= deadline {
            eprintln!(
                "prcc-service[{}]: peer {} unreachable for {:?}, backing off",
                self.node, self.addr, self.connect_timeout
            );
            self.pending.clear();
            self.begin_window(ctx);
            return Fate::Keep;
        }
        self.attempt += 1;
        // Seeded jitter, up to +50% of the base backoff: decorrelates the
        // redial storms a whole cluster restarting (or a partition
        // healing) would otherwise synchronize, without giving up
        // determinism — the jitter is a pure hash of (dialer, port,
        // attempt), so identical histories redial at identical times and
        // a seed-pinned chaos run replays exactly.
        let base_us = self.backoff.as_micros() as u64;
        let key = ((self.node as u64) << 48) | (u64::from(self.addr.port()) << 32) | self.attempt;
        let jitter = Duration::from_micros(mix64(key) % (base_us / 2).max(1));
        let wait = (self.backoff + jitter).min(deadline - now);
        self.backoff = (self.backoff * 2).min(Duration::from_millis(100));
        self.state = OutState::Down;
        ctx.set_timer(wait);
        Fate::Keep
    }
}

/// The inbound half of one peer link: validates the versioned handshake,
/// binds itself to the sender's node index, then decodes flush frames and
/// cut markers and fans them to the core. Acknowledgements travel the
/// other way on the same connection, pushed by the core at sweep end.
struct PeerIn<P: Protocol> {
    node: usize,
    protocol: Arc<P>,
    map: Arc<PartitionMap>,
    core_tx: mpsc::Sender<CoreMsg<P::Clock>>,
    counters: Arc<NetMetrics>,
    /// The sender's node index, `None` until the handshake validates.
    peer: Option<usize>,
}

impl<P> Driver for PeerIn<P>
where
    P: Protocol + 'static,
    P::Clock: WireClock,
{
    // lint: hot-path
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: Lease) -> io::Result<()> {
        self.counters.bytes_in.add(frame.len() as u64 + 4);
        let Some(peer) = self.peer else {
            // First frame: the handshake. Answering (the hello-ack) is the
            // core's job — it owns the link's acknowledged offset.
            let hello = decode_peer_hello(&frame)?;
            if hello.map != *self.map {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    // lint: allow(alloc) protocol-violation error, cold
                    format!("peer {} runs a different partition map", hello.node),
                ));
            }
            if hello.node >= self.map.num_nodes() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    // lint: allow(alloc) protocol-violation error, cold
                    format!("peer index {} out of range", hello.node),
                ));
            }
            self.peer = Some(hello.node);
            if self
                .core_tx
                .send(CoreMsg::PeerJoin {
                    peer: hello.node,
                    conn: ctx.conn_id(),
                })
                .is_err()
            {
                ctx.close(); // Core shut down.
            }
            return Ok(());
        };
        // Cut markers travel in the update stream — that is what gives
        // them a channel position — so they are intercepted here, before
        // batch decoding, and forwarded on the same core channel as the
        // updates around them (arrival order is cut order).
        if frame.first() == Some(&TAG_CUT_MARKER) {
            let token = decode_cut_marker(&frame)?;
            if self.core_tx.send(CoreMsg::PeerMarker { token }).is_err() {
                ctx.close(); // Core shut down.
            }
            return Ok(());
        }
        // One frame, many `(partition, [(seq, update)])` sections plus the
        // sender's seal barrier: validate each section, then hand the
        // whole frame to the core as one delivery (and one WAL receipt).
        let roles = self.map.graph().num_replicas();
        let protocol = &self.protocol;
        let (sections, barrier) = decode_sealed_batches(&frame, |k| {
            (k.index() < roles).then(|| protocol.new_clock(k))
        })?;
        for (partition, _) in &sections {
            if partition.0 >= self.map.num_partitions() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    // lint: allow(alloc) protocol-violation error, cold
                    format!("batch for out-of-range {partition}"),
                ));
            }
            if self.map.role_on(*partition, self.node).is_none() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    // lint: allow(alloc) protocol-violation error, cold
                    format!("peer {peer} misrouted {partition} updates here"),
                ));
            }
        }
        if self
            .core_tx
            .send(CoreMsg::Updates {
                peer,
                sections,
                barrier,
                conn: ctx.conn_id(),
            })
            .is_err()
        {
            ctx.close(); // Core shut down.
        }
        Ok(())
    }
    // lint: end-hot-path

    fn on_disconnect(&mut self, _ctx: &mut Ctx<'_>, err: Option<&io::Error>) -> Fate {
        if let Some(e) = err {
            eprintln!("prcc-service[{}]: peer reader: {e}", self.node);
        }
        Fate::Remove
    }
}

/// One client connection: decodes requests and routes them to the core
/// tagged with this connection's id; the core encodes the response and
/// pushes it back through the reactor at sweep end. `Config` and the
/// shutdown `Bye` are answered inline — neither touches core state.
struct ClientConn<C: WireClock> {
    map: Arc<PartitionMap>,
    core_tx: mpsc::Sender<CoreMsg<C>>,
    stop: Arc<AtomicBool>,
}

impl<C: WireClock> Driver for ClientConn<C> {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: Lease) -> io::Result<()> {
        let conn = ctx.conn_id();
        let msg = match decode_request(&frame)? {
            ClientRequest::Write {
                partition,
                register,
                value,
                ..
            } => CoreMsg::Write {
                partition,
                register,
                value,
                conn,
            },
            ClientRequest::Read {
                partition,
                register,
            } => CoreMsg::Read {
                partition,
                register,
                conn,
            },
            ClientRequest::Status => CoreMsg::Status(conn),
            ClientRequest::Trace => CoreMsg::Trace(conn),
            ClientRequest::Metrics => CoreMsg::Metrics(conn),
            ClientRequest::Cut { token, start } => CoreMsg::Cut { token, start, conn },
            ClientRequest::Config => {
                // Answered inline: pure configuration, no core state.
                let response = ClientResponse::Config {
                    version: WIRE_VERSION,
                    map: (*self.map).clone(),
                };
                let mut out = ctx.pool().lease(256);
                append_frame(&mut out, |buf| encode_response_into(&response, buf))?;
                ctx.send(out);
                return Ok(());
            }
            ClientRequest::Shutdown => {
                self.stop.store(true, Ordering::SeqCst);
                // Enqueue the ack *before* stopping the core: the reactor's
                // graceful drain flushes it even as the node winds down.
                let mut out = ctx.pool().lease(64);
                append_frame(&mut out, |buf| {
                    encode_response_into(&ClientResponse::Bye, buf)
                })?;
                ctx.send(out);
                let _ = self.core_tx.send(CoreMsg::Shutdown);
                return Ok(());
            }
        };
        if self.core_tx.send(msg).is_err() {
            ctx.close(); // Core shut down.
        }
        Ok(())
    }
}
// lint: end-reactor

#[cfg(test)]
mod tests {
    use super::*;
    use prcc_clock::EdgeProtocol;
    use prcc_graph::topologies;

    fn ring_core(
        node: usize,
        window_cap: usize,
    ) -> (EdgeProtocol, PartitionMap, Core<EdgeProtocol>) {
        let graph = topologies::ring(3);
        let map = PartitionMap::rotated(graph.clone(), 1, 3).expect("valid map");
        let protocol = EdgeProtocol::new(graph);
        let tel = CoreTelemetry::new(Arc::new(Registry::new()), &ServiceConfig::default());
        let core = Core::new(&protocol, &map, node, window_cap, tel);
        (protocol, map, core)
    }

    /// Issues one write on `core` that ships a copy to the other node,
    /// returning the `(peer, seq, partition, update)` send. Scans the
    /// register space for one this node's role may write with a remote
    /// recipient — the topology guarantees at least one exists.
    fn remote_write(
        protocol: &EdgeProtocol,
        map: &PartitionMap,
        core: &mut Core<EdgeProtocol>,
    ) -> (
        usize,
        u64,
        PartitionId,
        Update<<EdgeProtocol as Protocol>::Clock>,
    ) {
        let partition = PartitionId(0);
        for r in 0..map.graph().num_registers() {
            let register = RegisterId(r as u32);
            if !core.can_write(protocol, partition, register) {
                continue;
            }
            let wire_id = core.next_wire_id();
            let sends = core
                .apply_write(protocol, map, partition, register, 7, wire_id, 0)
                .expect("can_write gated");
            if let Some(send) = sends.into_iter().find(|(peer, ..)| *peer != core.node) {
                return send;
            }
        }
        panic!("no register with a remote recipient");
    }

    #[test]
    fn sealed_high_advances_only_on_acked_retirement() {
        let (protocol, map, mut core) = ring_core(0, 64);
        let (peer, seq, _, _) = remote_write(&protocol, &map, &mut core);

        // Unacknowledged: the pair blocks its seal and the barrier stays.
        assert!(core.plan_seal(1).is_empty());
        assert_eq!(core.links[peer].sealed_high, 0);

        // Acked retirement advances the barrier and unblocks the seal.
        core.prune(peer, seq);
        assert!(!core.plan_seal(1).is_empty());
        assert_eq!(core.links[peer].sealed_high, seq);
    }

    #[test]
    fn evicted_pairs_never_advance_sealed_high() {
        let (protocol, map, mut core) = ring_core(0, 1);
        let (peer, first_seq, _, _) = remote_write(&protocol, &map, &mut core);
        let (_, second_seq, _, _) = remote_write(&protocol, &map, &mut core);
        assert_eq!((first_seq, second_seq), (1, 2), "cap 1 evicts the first");
        assert_eq!(core.window_evicted, 1);

        // The evicted pair retires (it can never be acked) but must not
        // advance the barrier — the peer never observed it. The second
        // pair still blocks.
        core.plan_seal(1);
        assert_eq!(core.links[peer].sealed_high, 0);
        assert_eq!(core.links[peer].evicted_high, first_seq);
    }

    #[test]
    fn barrier_fast_path_matches_slow_path_counters() {
        let (protocol, map, mut origin) = ring_core(0, 64);
        let (peer, seq, partition, update) = remote_write(&protocol, &map, &mut origin);
        let sections: FlushSections<_> = vec![(partition, vec![(seq, update)])];

        let (_, _, mut receiver) = ring_core(peer, 64);
        receiver.apply_sections(&protocol, 0, sections.clone());
        let applied_log = receiver.partitions[partition.index()]
            .as_ref()
            .expect("hosted")
            .log
            .len();
        assert_eq!(receiver.duplicates_dropped, 0);

        // Straggler resend without a barrier: the watermark (slow path)
        // catches the duplicate.
        receiver.apply_sections(&protocol, 0, sections.clone());
        assert_eq!(receiver.duplicates_dropped, 1);
        assert_eq!(receiver.barrier_skips, 0);

        // With the origin's seal barrier covering the sequence, the fast
        // path drops it before the watermark — same counter motion, same
        // replica state.
        receiver.links[0].seal_barrier = seq;
        receiver.apply_sections(&protocol, 0, sections);
        assert_eq!(receiver.duplicates_dropped, 2);
        assert_eq!(receiver.barrier_skips, 1);
        assert_eq!(
            receiver.partitions[partition.index()]
                .as_ref()
                .expect("hosted")
                .log
                .len(),
            applied_log,
            "neither duplicate re-applied anything"
        );
    }

    #[test]
    fn barrier_less_frames_keep_the_recorded_barrier() {
        let (protocol, map, mut origin) = ring_core(0, 64);
        let (peer, seq, partition, update) = remote_write(&protocol, &map, &mut origin);
        let sections: FlushSections<_> = vec![(partition, vec![(seq, update)])];

        let (_, _, mut receiver) = ring_core(peer, 64);
        receiver.raise_seal_barrier(0, 0);
        receiver.apply_sections(&protocol, 0, sections.clone());
        assert_eq!(receiver.links[0].seal_barrier, 0);

        // A frame that carried the barrier, then frames that omit it (the
        // sender writes a barrier only when it advanced): the recorded
        // barrier holds, and stragglers at or below it still take the
        // fast path.
        receiver.raise_seal_barrier(0, seq);
        receiver.raise_seal_barrier(0, 0);
        assert_eq!(receiver.links[0].seal_barrier, seq);
        receiver.apply_sections(&protocol, 0, sections.clone());
        receiver.raise_seal_barrier(0, 0);
        receiver.apply_sections(&protocol, 0, sections);
        assert_eq!(receiver.links[0].seal_barrier, seq);
        assert_eq!(receiver.barrier_skips, 2);
        assert_eq!(receiver.duplicates_dropped, 2);
    }
}
