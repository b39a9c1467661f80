//! Golden structure of the cold-compile rows.
//!
//! Flat packet tags and full-table resync depend on the compiler's exact
//! node numbering, and the data plane on its exact placement and paths — so
//! a compiler optimisation must not move a single one of them. For the eight
//! `compile-cold` rows of the benchmark of record (the seven Table 5 presets
//! × the Table 6 policy, plus Figure 11's 20-application point on igen-50)
//! and the igen-50 five-application pipeline every other workload deploys,
//! this test pins the diagram size, the pool length, the wire sizes and the
//! `PlacementResult` to the values recorded before the all-pairs routing
//! oracle, the pruned packet-state walk and id-keyed composition went in.
//! When a change moves them on purpose, the failing assertion prints the new
//! `Structure` to record.

use snap_apps as apps;
use snap_core::{Compiled, Compiler};
use snap_lang::builder::*;
use snap_lang::{Field, Policy};
use snap_topology::generators::{self, presets};
use snap_topology::{Topology, TrafficMatrix};
use snap_xfdd::{encode_delta, Pool};

/// The benchmark's scenario constants (`benchmark/src/scenario.rs`).
const SCENARIO_SEED: u64 = 7;
const VOLUME: f64 = 10_000.0;
const THRESHOLD_BASE: i64 = 1_000_000;

struct Row {
    name: String,
    topology: Topology,
    traffic: TrafficMatrix,
    policy: Policy,
}

fn rows() -> Vec<Row> {
    let mut rows: Vec<Row> = presets::table5()
        .into_iter()
        .map(|mut spec| {
            // One OBS port per edge switch, as the benchmark compiles them.
            spec.external_ports = None;
            let topology = generators::random_topology(&spec);
            let traffic = TrafficMatrix::gravity(&topology, VOLUME, spec.seed);
            let ports = topology.num_external_ports().min(200);
            Row {
                name: spec.name.clone(),
                policy: apps::assumption(ports)
                    .seq(apps::dns_tunnel_detect(10))
                    .seq(apps::assign_egress(ports)),
                topology,
                traffic,
            }
        })
        .collect();

    let igen50 = generators::igen_topology(50, SCENARIO_SEED);
    let traffic = TrafficMatrix::gravity(&igen50, VOLUME, SCENARIO_SEED);
    let ports = igen50.num_external_ports();
    let components: Vec<Policy> = apps::catalogue()
        .into_iter()
        .take(20)
        .enumerate()
        .map(|(i, (_, policy))| {
            let port = (i % ports) + 1;
            ite(
                test_prefix(Field::DstIp, 10, 0, port as u8, 0, 24),
                policy,
                id(),
            )
        })
        .collect();
    rows.push(Row {
        name: "igen-50 x 20 apps".to_string(),
        policy: Policy::par_all(components).seq(apps::assign_egress(ports)),
        topology: igen50.clone(),
        traffic: traffic.clone(),
    });
    rows.push(Row {
        name: "igen-50 x 5 apps".to_string(),
        policy: apps::port_monitoring()
            .seq(apps::dns_tunnel_detect(THRESHOLD_BASE))
            .seq(apps::stateful_firewall())
            .seq(apps::heavy_hitter_detection(THRESHOLD_BASE))
            .seq(apps::assign_egress(ports)),
        topology: igen50,
        traffic,
    });
    rows
}

/// What must not move, in a form that is readable when it does.
#[derive(Debug, PartialEq)]
struct Structure {
    xfdd_size: usize,
    pool_len: usize,
    /// `encode_delta` from a fresh pool: the full-table resync payload.
    full_table_bytes: usize,
    /// `var@switch` for every placed variable, in variable order.
    placement: String,
    num_paths: usize,
    /// FNV-1a over every `(u, v, path)` in key order.
    paths_hash: u64,
    /// Bit patterns: identical paths sum identical loads in identical order.
    total_utilization_bits: u64,
    max_utilization_bits: u64,
}

fn structure(compiled: &Compiled) -> Structure {
    let pool = compiled.xfdd.pool();
    let fresh_len = Pool::new(pool.order().clone()).len();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: usize| {
        for byte in (word as u64).to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for ((u, v), path) in &compiled.placement.paths {
        mix(u.0);
        mix(v.0);
        mix(path.len());
        path.iter().for_each(|n| mix(n.0));
    }
    Structure {
        xfdd_size: compiled.xfdd.size(),
        pool_len: pool.len(),
        full_table_bytes: encode_delta(pool, fresh_len, compiled.xfdd.root()).len(),
        placement: compiled
            .placement
            .placement
            .iter()
            .map(|(var, node)| format!("{var}@{}", node.0))
            .collect::<Vec<_>>()
            .join(" "),
        num_paths: compiled.placement.paths.len(),
        paths_hash: hash,
        total_utilization_bits: compiled.placement.total_utilization.to_bits(),
        max_utilization_bits: compiled.placement.max_utilization.to_bits(),
    }
}

/// One recorded row, in the order of [`Structure`]'s fields.
#[allow(clippy::too_many_arguments)]
fn recorded(
    name: &'static str,
    xfdd_size: usize,
    pool_len: usize,
    full_table_bytes: usize,
    placement: &str,
    num_paths: usize,
    paths_hash: u64,
    total_utilization_bits: u64,
    max_utilization_bits: u64,
) -> (&'static str, Structure) {
    let structure = Structure {
        xfdd_size,
        pool_len,
        full_table_bytes,
        placement: placement.to_string(),
        num_paths,
        paths_hash,
        total_utilization_bits,
        max_utilization_bits,
    };
    (name, structure)
}

/// Recorded at commit f4d608a (PR 11), release and debug builds agreeing.
#[rustfmt::skip]
fn golden() -> Vec<(&'static str, Structure)> {
    vec![
        recorded("stanford-like", 763, 4863, 137772,
            "blacklist@15 orphan@15 susp-client@15",
            306, 6757319948120645210, 4629112505265746333, 4607226969432483168),
        recorded("berkeley-like", 763, 4863, 137772,
            "blacklist@5 orphan@5 susp-client@5",
            306, 6576892437614514593, 4628515476080359480, 4606142819010179170),
        recorded("purdue-like", 9943, 55506, 1528134,
            "blacklist@35 orphan@35 susp-client@35",
            4692, 1540707858397664635, 4633127038822951943, 4607493969575461906),
        recorded("AS1755-like", 7815, 43950, 1211826,
            "blacklist@39 orphan@39 susp-client@39",
            3660, 17564414940345727498, 4630582367691417512, 4600767440349143576),
        recorded("AS1221-like", 11103, 61788, 1699992,
            "blacklist@5 orphan@5 susp-client@5",
            5256, 2259536772791123838, 4631746041442639870, 4606774062237358336),
        recorded("AS6461-like", 19407, 106536, 2922996,
            "blacklist@86 orphan@86 susp-client@86",
            9312, 2134586477017535818, 4629823847277590125, 4595955746412510126),
        recorded("AS3257-like", 26223, 143088, 3921052,
            "blacklist@106 orphan@106 susp-client@106",
            12656, 13178482687581789531, 4630854922545851154, 4598510615018017386),
        recorded("igen-50 x 20 apps", 222, 25673, 1381134,
            "MTA-dir@31 active-session@1 benign-request@5 blacklist@1 count@15 dep-count@45 \
             domain-ip-pair@12 established@32 flow-size@4 flow-type@4 ftp-data-chan@37 \
             heavy-hitter@38 hh-counter@38 ip-domain-pair@18 kindle@19 large-sampler@4 \
             last-ttl@23 mail-counter@31 mal-domain-list@18 mal-ip-list@12 medium-sampler@43 \
             num-of-domains@12 num-of-ips@18 orphan@25 seen@23 sid2agent@1 sid2ip@1 \
             small-sampler@43 spreader@39 super-spreader@39 susp-client@25 syn-count@49 \
             syn-flooder@49 tcp-state@3 ttl-change@23 udp-counter@13 udp-flooder@13",
            1190, 7771265229571983993, 4630368980509601822, 4607524625327727578),
        recorded("igen-50 x 5 apps", 791, 10154, 432127,
            "blacklist@31 count@1 established@1 heavy-hitter@1 hh-counter@1 orphan@1 susp-client@1",
            1190, 7840958144510730405, 4632044923838492837, 4614841816093317700),
    ]
}

#[test]
fn cold_compile_rows_keep_their_recorded_structure() {
    let golden = golden();
    let rows = rows();
    assert_eq!(rows.len(), golden.len());
    for (row, (name, want)) in rows.iter().zip(&golden) {
        assert_eq!(row.name, *name);
        let compiled = Compiler::new(row.topology.clone(), row.traffic.clone())
            .compile(&row.policy)
            .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
        assert_eq!(
            structure(&compiled),
            *want,
            "{name}: compiled structure moved"
        );
    }
}
