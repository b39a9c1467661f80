//! The packet path's allocation budget, enforced by counting.
//!
//! A stateful stage runs at line rate only if per-packet work touches
//! nothing shared, and the allocator is shared. This suite swaps in a
//! counting global allocator (hence its own test binary) and holds the
//! warmed-up path to a budget:
//!
//! * cloning a packet — symbol, string and custom field included — takes a
//!   pooled buffer and shares the text: no allocation;
//! * `inject_batch(64)` on a multi-switch fleet allocates one block per
//!   delivered packet (the `InjectOutcome::delivered` list the API hands
//!   the caller) plus a constant per batch (the result lists; on a larger
//!   network, also a block per 32 views the batch pins beyond the first);
//! * under the five-app stateful pipeline, writes to existing keys add
//!   nothing per packet.
//!
//! The update path has a budget too: a novel single-threshold edit through
//! a warm session requests a bounded number of blocks (a payload deep-copied
//! at some pool boundary shows up here as thousands); one agent's prepare of
//! that edit requests blocks for the delta, not for the program; and
//! flattening a program out of an agent's mirror requests the same bytes
//! whatever the program's size or the mirror's.
//!
//! Counts are per thread, so the tests of this binary can run in parallel
//! and the fleet's (idle) agent threads never show up.

use snap_apps as apps;
use snap_distrib::{
    deploy_in_process, DistNetwork, FromAgent, InProcessDeployment, PrepareMsg, SwitchAgent,
    SwitchMeta, ToAgent, EPOCH_HISTORY,
};
use snap_lang::prelude::*;
use snap_session::CompilerSession;
use snap_topology::generators::igen_topology;
use snap_topology::{NodeId as SwitchId, PortId, TrafficMatrix};
use snap_xfdd::{encode_delta, to_xfdd, Mirror, NodeId, Pool, StateDependencies, Test};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

struct CountingAllocator;

thread_local! {
    /// Blocks this thread has requested (fresh or resized). `const`
    /// initialised and without a destructor, so touching it from inside the
    /// allocator can neither allocate nor run during thread teardown.
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has requested, likewise.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_block(bytes: usize) {
    let _ = BLOCKS.try_with(|blocks| blocks.set(blocks.get() + 1));
    let _ = BYTES.try_with(|total| total.set(total.get() + bytes as u64));
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local counter
// bump that itself never allocates (see `BLOCKS`).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_block(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods of this impl.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_block(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_block(new_size);
        // SAFETY: `ptr` came from `System` through the methods of this impl.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Run `f` and report how many blocks this thread requested meanwhile.
fn blocks_requested<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BLOCKS.with(Cell::get);
    let out = f();
    (out, BLOCKS.with(Cell::get) - before)
}

/// Run `f` and report how many bytes this thread requested meanwhile.
fn bytes_requested<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

const SWITCHES: usize = 24;
const BATCH: usize = 64;
/// Blocks a batch may request beyond one per delivery. Measured: 1 under
/// the stateless policy and under the stateful pipeline alike (the result
/// list the driver returns), debug and release; the views a batch can pin
/// on [`SWITCHES`] switches fit the pin arena's inline block, and a state
/// access evaluates its key into a per-thread buffer.
const PER_BATCH: u64 = 2;

/// A fleet of [`SWITCHES`] agents running `policy`, trace sampling off (a
/// sampled packet records strings per hop by design), and a batch of
/// [`BATCH`] packets spread over every ingress port and egress subnet.
fn fleet(policy: impl Fn(usize) -> Policy) -> (InProcessDeployment, Vec<(PortId, Packet)>) {
    let topology = igen_topology(SWITCHES, 7);
    let ports: Vec<PortId> = topology.external_ports().map(|(port, _)| port).collect();
    assert!(ports.len() > 8);
    let traffic = TrafficMatrix::gravity(&topology, 1_000.0, 7);
    let session = CompilerSession::new(topology, traffic);
    let mut deployment = deploy_in_process(session, 4096);
    deployment
        .controller
        .update_policy(&policy(ports.len()))
        .expect("the policy commits");
    let tracer = deployment
        .network
        .telemetry()
        .expect("deployments record telemetry")
        .telemetry()
        .tracer();
    tracer.set_every(0);
    let batch = (0..BATCH)
        .map(|i| {
            let src = ports[i % ports.len()];
            let dst = ports[(i * 7 + 3) % ports.len()];
            let packet = Packet::new()
                .with(Field::InPort, src.0 as i64)
                .with(Field::SrcIp, Value::ip(10, 0, src.0 as u8, 1 + i as u8))
                .with(Field::DstIp, Value::ip(10, 0, dst.0 as u8, 9))
                .with(
                    Field::SrcPort,
                    if i % 7 == 0 { 53 } else { 2000 + i as i64 },
                )
                .with(Field::DstPort, 443)
                .with(Field::Proto, 6)
                .with(
                    Field::TcpFlags,
                    Value::sym(if i % 3 == 0 { "SYN" } else { "ACK" }),
                )
                .with(Field::DnsRdata, Value::ip(93, 184, 0, i as u8));
            (src, packet)
        })
        .collect();
    (deployment, batch)
}

/// Inject `batch` once, checking every packet succeeded, and return how
/// many deliveries it made and how many blocks the call requested. The
/// outcomes and the drained egress are dropped *outside* the measured call,
/// back into this thread's buffer pool.
fn inject_counted(
    network: &DistNetwork,
    batch: &[(PortId, Packet)],
    ports: &[PortId],
) -> (u64, u64) {
    let (results, blocks) = blocks_requested(|| network.inject_batch(batch));
    let delivered = results
        .iter()
        .map(|r| r.as_ref().expect("every packet executes").delivered.len() as u64)
        .sum();
    std::mem::drop(results);
    for &port in ports {
        std::mem::drop(network.drain_port(port));
    }
    (delivered, blocks)
}

/// Warm the path (buffer pool, wave scratch, queues, state keys), then hold
/// each of a few batches to the budget.
fn assert_batches_within_budget(deployment: &InProcessDeployment, batch: &[(PortId, Packet)]) {
    let network = &deployment.network;
    let ports: Vec<PortId> = network
        .topology()
        .external_ports()
        .map(|(p, _)| p)
        .collect();
    for _ in 0..8 {
        inject_counted(network, batch, &ports);
    }
    for round in 0..4 {
        let (delivered, blocks) = inject_counted(network, batch, &ports);
        assert!(
            delivered >= BATCH as u64 / 2,
            "most of the batch is delivered"
        );
        assert!(
            blocks <= delivered + PER_BATCH,
            "round {round}: {blocks} blocks requested for {delivered} deliveries \
             (budget: one per delivery + {PER_BATCH} per batch)"
        );
    }
}

#[test]
fn cloning_a_packet_allocates_nothing_once_the_pool_is_warm() {
    let packet = Packet::five_tuple(Value::ip(10, 0, 1, 1), Value::ip(10, 0, 2, 2), 1234, 80, 6)
        .with(Field::TcpFlags, Value::sym("SYN"))
        .with(Field::HttpUserAgent, "curl/8.5")
        .with(Field::from_name("vlan.tag"), 7);
    assert!(matches!(packet.iter().last(), Some((Field::Custom(_), _))));
    // One clone-and-drop leaves a recycled buffer in this thread's pool.
    std::mem::drop(packet.clone());
    let (copy, blocks) = blocks_requested(|| packet.clone());
    assert_eq!(copy, packet);
    assert_eq!(
        blocks, 0,
        "a warm clone takes a pooled buffer and shares the text"
    );
    let ((), blocks) = blocks_requested(|| std::mem::drop(copy));
    assert_eq!(blocks, 0);
}

#[test]
fn a_stateless_batch_allocates_one_block_per_delivery_plus_a_constant() {
    let (deployment, batch) = fleet(|ports| {
        filter(test_prefix(Field::SrcIp, 10, 0, 1, 192, 30).not()).seq(apps::assign_egress(ports))
    });
    assert_batches_within_budget(&deployment, &batch);
    deployment.shutdown();
}

#[test]
fn writes_to_existing_state_keys_add_no_allocation() {
    let (deployment, batch) = fleet(|ports| {
        apps::port_monitoring()
            .seq(apps::dns_tunnel_detect(1_000_000))
            .seq(apps::stateful_firewall())
            .seq(apps::heavy_hitter_detection(1_000_000))
            .seq(apps::assign_egress(ports))
    });
    assert_batches_within_budget(&deployment, &batch);
    // The pipeline did write: every packet counted itself at its ingress.
    let store = deployment.network.aggregate_store();
    let (port, _) = &batch[0];
    assert!(store.get(&"count".into(), &[Value::Int(port.0 as i64)]) != Value::Int(0));
    deployment.shutdown();
}

fn pipeline(threshold: i64, ports: usize) -> Policy {
    apps::port_monitoring()
        .seq(apps::dns_tunnel_detect(threshold))
        .seq(apps::stateful_firewall())
        .seq(apps::heavy_hitter_detection(1_000_000))
        .seq(apps::assign_egress(ports))
}

/// Blocks requested by each of a run of novel single-threshold edits —
/// `compile`, the session's half of an update — on a session warmed over
/// the five-app pipeline.
fn novel_edit_blocks() -> Vec<u64> {
    let topology = igen_topology(SWITCHES, 7);
    let ports = topology.num_external_ports();
    let traffic = TrafficMatrix::gravity(&topology, 1_000.0, 7);
    let mut session = CompilerSession::new(topology, traffic);
    // Warm: the working set a benchmark fleet starts from.
    for threshold in 0..6 {
        session
            .compile(&pipeline(1_000_000 + threshold, ports))
            .expect("the pipeline compiles");
    }
    let edit = |threshold: i64| {
        let policy = pipeline(2_000_000 + threshold, ports);
        let reuses = session.stats().placement_reuses;
        let (_, blocks) = blocks_requested(|| session.compile(&policy).expect("the edit compiles"));
        assert_eq!(session.stats().placement_reuses, reuses + 1);
        blocks
    };
    (0..12).map(edit).collect()
}

/// Budget of one novel edit's `compile`, in blocks: the twelve edits of the
/// run below request 1 187 to 1 196 each (the sequence repeats exactly,
/// debug and release alike), recorded with ~10 % slack. With payloads
/// deep-copied into the frozen pool and hashed twice, the packet-state
/// mapping a map of name sets, flatten + NetASM lowering on every compile,
/// the same run read 15 341 to 15 350.
const NOVEL_EDIT_BLOCKS: u64 = 1_310;

#[test]
fn a_novel_edit_requests_a_bounded_number_of_blocks() {
    let blocks = novel_edit_blocks();
    for (edit, &count) in blocks.iter().enumerate() {
        assert!(
            count <= NOVEL_EDIT_BLOCKS,
            "edit {edit}: {count} blocks requested (budget {NOVEL_EDIT_BLOCKS}): {blocks:?}"
        );
    }
    // Nothing about the count depends on the run: hash seeds, addresses and
    // timing change between two sessions, the blocks requested do not.
    assert_eq!(blocks, novel_edit_blocks());
}

/// The `ports`-port pipeline translated on its own and imported into the
/// distribution pool `dist`, as a controller ships it: only the nodes the
/// program reaches, and only those `dist` does not hold already.
fn import_pipeline(dist: &mut Pool, threshold: i64, ports: usize) -> NodeId {
    let mut scratch = Pool::new(dist.order().clone());
    let root = to_xfdd(&pipeline(threshold, ports), &mut scratch).expect("the pipeline translates");
    dist.import(&scratch, root)
}

/// A distribution pool holding the `ports`-port pipeline, and a mirror of
/// it bootstrapped from a full table.
fn mirrored_pipeline(threshold: i64, ports: usize) -> (Pool, NodeId, Mirror) {
    let order = StateDependencies::analyze(&pipeline(threshold, ports)).var_order();
    let mut dist = Pool::new(order);
    let fresh_len = dist.len();
    let root = import_pipeline(&mut dist, threshold, ports);
    let (mirror, _) =
        Mirror::decode_fresh(&encode_delta(&dist, fresh_len, root)).expect("a full table decodes");
    (dist, root, mirror)
}

/// Measured: 0 bytes on both programs, before and after the mirror grows
/// (`Mirror::flatten` hands out the mirror's table and a root).
#[test]
fn flattening_a_root_requests_the_same_bytes_whatever_the_program_or_mirror() {
    let requested = |ports: usize| {
        let (mut dist, root, mut mirror) = mirrored_pipeline(10, ports);
        let (program, before) = bytes_requested(|| mirror.flatten(root));

        // Ten thousand nodes of other programs arrive after it.
        let base = dist.len();
        let (id, drop) = (dist.id(), dist.drop());
        for port in 0..10_000 {
            dist.branch(
                Test::FieldValue(Field::SrcPort, Value::Int(100_000 + port)),
                id,
                drop,
            );
        }
        mirror
            .apply_delta(&encode_delta(&dist, base, root))
            .expect("the suffix applies");
        assert_eq!(mirror.len(), base + 10_000);
        let (again, after) = bytes_requested(|| mirror.flatten(root));
        assert_eq!(again.num_nodes(), program.num_nodes());
        (program.num_nodes(), [before, after])
    };
    let (small, small_bytes) = requested(6);
    let (large, large_bytes) = requested(24);
    assert!(large > small, "the 24-port program is the larger one");
    assert_eq!(
        small_bytes, large_bytes,
        "flatten requested bytes for the program or the mirror's growth"
    );
    assert_eq!(small_bytes[0], small_bytes[1]);
}

/// Blocks one warmed agent requests in `handle(Prepare)` for each of a run
/// of novel single-threshold edits of the `ports`-port pipeline: the delta
/// applied and lowered, the slots bound, the view built.
fn novel_prepare_blocks(ports: usize) -> Vec<u64> {
    let (mut dist, root, _) = mirrored_pipeline(1_000_000, ports);
    let fresh_len = Pool::new(dist.order().clone()).len();
    let local_vars: BTreeSet<StateVar> = dist.state_vars(root);
    let placement: BTreeMap<StateVar, SwitchId> = local_vars
        .iter()
        .map(|var| (var.clone(), SwitchId(0)))
        .collect();
    let agent = SwitchAgent::new(SwitchId(0), "s0", [], 64);
    let prepare = |epoch: u64, resync: bool, delta: Vec<u8>| {
        ToAgent::Prepare(Box::new(PrepareMsg {
            epoch,
            resync,
            delta,
            meta: resync.then(|| SwitchMeta {
                local_vars: local_vars.clone(),
                ports: BTreeSet::new(),
            }),
            placement: resync.then(|| placement.clone()),
        }))
    };
    let staged = |replies: Vec<FromAgent>| {
        assert!(
            matches!(replies.as_slice(), [FromAgent::Prepared { .. }]),
            "the agent stages the edit: {replies:?}"
        );
    };
    staged(agent.handle(prepare(1, true, encode_delta(&dist, fresh_len, root))));
    agent.handle(ToAgent::Commit { epoch: 1 });

    // Warm past the epoch ring, then count.
    let mut blocks = Vec::new();
    for edit in 0..(EPOCH_HISTORY + 12) as i64 {
        let base = dist.len();
        let root = import_pipeline(&mut dist, 2_000_000 + edit, ports);
        assert_eq!(
            dist.len() - base,
            21,
            "a threshold edit brings the same nodes"
        );
        let epoch = edit as u64 + 2;
        let message = prepare(epoch, false, encode_delta(&dist, base, root));
        let (replies, count) = blocks_requested(|| agent.handle(message));
        staged(replies);
        agent.handle(ToAgent::Commit { epoch });
        if edit >= EPOCH_HISTORY as i64 {
            blocks.push(count);
        }
    }
    blocks
}

/// Budget of one agent's prepare of a novel edit, in blocks: the twelve
/// counted prepares below request 64 to 67 each, for the 6-port and the
/// 24-port pipeline alike, debug and release, recorded with ~10 % slack. A
/// prepare that re-lowered the program would request blocks in proportion
/// to its size.
const NOVEL_PREPARE_BLOCKS: u64 = 74;

/// How far one prepare's count may sit above the run's least: a delta
/// whose nodes fill a table chunk, or grow the mirror pool's intern table,
/// requests a block or two more. Where that happens depends on the table's
/// length, not on the program's size.
const BOUNDARY_BLOCKS: u64 = 4;

#[test]
fn a_novel_prepare_requests_blocks_for_the_delta_not_the_program() {
    let small = novel_prepare_blocks(6);
    let large = novel_prepare_blocks(24);
    for blocks in [&small, &large] {
        let least = *blocks.iter().min().expect("prepares were counted");
        for (edit, &count) in blocks.iter().enumerate() {
            assert!(
                count <= NOVEL_PREPARE_BLOCKS && count - least <= BOUNDARY_BLOCKS,
                "edit {edit}: {count} blocks requested (budget {NOVEL_PREPARE_BLOCKS}): \
                 {blocks:?}"
            );
        }
    }
    assert_eq!(
        small.iter().min(),
        large.iter().min(),
        "a prepare's cost depends on the program: {small:?} vs {large:?}"
    );
    // Hash seeds, addresses and timing change between two runs, the blocks
    // requested do not.
    assert_eq!(small, novel_prepare_blocks(6));
    assert_eq!(large, novel_prepare_blocks(24));
}
