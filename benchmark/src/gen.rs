//! The seeded input generator: everything the program under test is fed
//! comes from here, derived from `--seed` by the benchmark's own
//! splitmix64 (no dependency on the repo's `rand` shim, so a change to the
//! shim cannot change the inputs).
//!
//! What the seed draws: the flow table (gravity-weighted port pairs, host
//! octets, ports, flags), the order of edit classes, the novel-edit
//! parameters and the traffic matrices of TE updates. What it does *not*
//! draw: the topology and the base traffic matrix — those are part of a
//! workload's definition (see `scenario.rs`), because compile cost depends
//! on them and a metric whose cost moved with the seed could not carry a
//! regression bound.

use snap_lang::{Field, Packet, Value};
use snap_topology::{PortId, TrafficMatrix};

/// Packets per injected batch — the unit of work of the packet driver.
pub const BATCH: usize = 64;

/// Sebastiano Vigna's splitmix64: tiny, seedable with any 64-bit value,
/// and good enough for workload generation.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`, salted so each input stream (flows, edits,
    /// matrices) is independent of the others.
    pub fn new(seed: u64, salt: u64) -> SplitMix64 {
        SplitMix64(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias at these sizes (n far
    /// below 2^32) is irrelevant to a workload.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Demand-weighted `(src, dst)` sampling over a traffic matrix.
struct PairSampler {
    pairs: Vec<(PortId, PortId)>,
    cumulative: Vec<f64>,
}

impl PairSampler {
    fn new(matrix: &TrafficMatrix) -> PairSampler {
        let mut pairs = Vec::new();
        let mut cumulative = Vec::new();
        let mut total = 0.0;
        for (src, dst, demand) in matrix.iter() {
            if demand > 0.0 {
                total += demand;
                pairs.push((src, dst));
                cumulative.push(total);
            }
        }
        assert!(!pairs.is_empty(), "traffic matrix has no demand");
        PairSampler { pairs, cumulative }
    }

    fn sample(&self, rng: &mut SplitMix64) -> (PortId, PortId) {
        let x = rng.unit() * self.cumulative[self.cumulative.len() - 1];
        let at = self.cumulative.partition_point(|&c| c <= x);
        self.pairs[at.min(self.pairs.len() - 1)]
    }
}

/// One generated packet and what the generator knows about it.
pub struct RingPacket {
    /// OBS ingress port.
    pub src: PortId,
    /// The port serving the destination subnet (`10.0.<dst>.0/24`): where
    /// the packet must come out if it comes out at all.
    pub dst: PortId,
}

/// The pre-generated traffic: `batches × BATCH` packets cycling over
/// `flows` distinct flows, built before any clock starts (building packets
/// inside the timed loop would measure the generator).
pub struct Ring {
    /// The batches, in injection order, in the shape `inject_batch` takes.
    pub batches: Vec<Vec<(PortId, Packet)>>,
    /// Generator-side facts, parallel to `batches`.
    pub facts: Vec<Vec<RingPacket>>,
}

/// Host octets of generated sources stay below this, so edits can name
/// prefixes at or above it that no generated packet matches.
pub const MAX_HOST: u8 = 190;

impl Ring {
    /// Build the ring for `seed`: `flows` flows drawn from `matrix`,
    /// repeated round-robin over `batches` batches. Every header field any
    /// benchmark policy tests is present (a missing tested field is an
    /// evaluation error, which would count as a failure).
    pub fn build(matrix: &TrafficMatrix, seed: u64, flows: usize, batches: usize) -> Ring {
        let sampler = PairSampler::new(matrix);
        let mut rng = SplitMix64::new(seed, 1);
        let flow_table: Vec<(PortId, PortId, Packet)> = (0..flows)
            .map(|_| {
                let (src, dst) = sampler.sample(&mut rng);
                let packet = flow_packet(src, dst, &mut rng);
                (src, dst, packet)
            })
            .collect();
        let mut ring = Ring {
            batches: Vec::with_capacity(batches),
            facts: Vec::with_capacity(batches),
        };
        let mut next = 0usize;
        for _ in 0..batches {
            let mut batch = Vec::with_capacity(BATCH);
            let mut facts = Vec::with_capacity(BATCH);
            for _ in 0..BATCH {
                let (src, dst, packet) = &flow_table[next % flows];
                next += 1;
                batch.push((*src, packet.clone()));
                facts.push(RingPacket {
                    src: *src,
                    dst: *dst,
                });
            }
            ring.batches.push(batch);
            ring.facts.push(facts);
        }
        ring
    }

    /// Packets in one pass over the ring.
    pub fn packets(&self) -> usize {
        self.batches.len() * BATCH
    }
}

/// One flow's packet: source in its ingress port's subnet (so the
/// operator `assumption` policy holds), a seventh of the flows DNS
/// responses, a third TCP SYNs.
fn flow_packet(src: PortId, dst: PortId, rng: &mut SplitMix64) -> Packet {
    let dns = rng.below(7) == 0;
    let syn = rng.below(3) == 0;
    let src_host = 1 + rng.below(u64::from(MAX_HOST) - 1) as u8;
    let dst_host = 1 + rng.below(u64::from(MAX_HOST) - 1) as u8;
    Packet::new()
        .with(Field::InPort, src.0 as i64)
        .with(Field::SrcIp, Value::ip(10, 0, src.0 as u8, src_host))
        .with(Field::DstIp, Value::ip(10, 0, dst.0 as u8, dst_host))
        .with(
            Field::SrcPort,
            if dns {
                53
            } else {
                1024 + rng.below(60_000) as i64
            },
        )
        .with(Field::DstPort, if rng.below(2) == 0 { 443 } else { 80 })
        .with(Field::Proto, if dns { 17 } else { 6 })
        .with(Field::TcpFlags, Value::sym(if syn { "SYN" } else { "ACK" }))
        .with(
            Field::DnsRdata,
            Value::ip(93, 184, rng.below(256) as u8, rng.below(256) as u8),
        )
}

/// The class of one operator edit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditKind {
    /// Re-commit one of the pre-committed working-set variants (a session
    /// version-cache hit; the delta ships zero nodes).
    Flip,
    /// A policy never compiled before: one threshold (or prefix) in one
    /// subtree changed.
    Novel,
    /// `update_traffic` with a fresh gravity matrix (re-route only). Not
    /// part of the gated mix; see [`FLIPS_PER_BLOCK`].
    Traffic,
}

/// One scheduled edit: its class and a seed-drawn parameter (which variant
/// to flip to, or the novel edit's parameter).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edit {
    /// The class.
    pub kind: EditKind,
    /// Class-specific parameter.
    pub param: u64,
}

/// Ops per schedule block. Each block holds the exact class proportions,
/// so any whole number of blocks — whatever `--seconds` scales the op
/// count to — has the same mix.
pub const EDIT_BLOCK: usize = 20;

/// The gated edit mix, per block of 20: 16 flips and 4 novel edits. The
/// shares are chosen so that each gated percentile sits *inside* a class
/// rather than on the boundary between two: p50 is a flip, p90 is the
/// median novel edit (the slow class occupies the top 20 %).
///
/// Traffic-matrix updates are deliberately *not* in this mix.
/// `CompilerSession::update_traffic` clears the session's version cache,
/// so every TE update turns the next flip to each variant into a full
/// recompile; at one TE update per block that makes about half of all ops
/// slow and puts p50 exactly on the class boundary, where it flaps from
/// run to run. TE updates, and the flips that follow one, are measured
/// after the gated ops instead and reported per layer.
pub const FLIPS_PER_BLOCK: usize = 16;

/// A seeded schedule of `blocks × EDIT_BLOCK` flips and novel edits, the
/// exact mix in every block. Flips never re-commit the variant already
/// running (that would be a no-op update).
pub fn edit_schedule(seed: u64, blocks: usize, variants: usize) -> Vec<Edit> {
    let mut rng = SplitMix64::new(seed, 2);
    let mut out = Vec::with_capacity(blocks * EDIT_BLOCK);
    // Set-up leaves variant 0 committed; `None` while a novel policy
    // (not part of the working set) is running.
    let mut current = Some(0u64);
    let variants = variants as u64;
    // Novel parameters are unique within a schedule and differ by seed.
    let novel_base = rng.below(1_000_000);
    let mut novel = 0u64;
    for _ in 0..blocks {
        let mut kinds = [EditKind::Novel; EDIT_BLOCK];
        kinds[..FLIPS_PER_BLOCK].fill(EditKind::Flip);
        rng.shuffle(&mut kinds);
        for kind in kinds {
            let param = match kind {
                EditKind::Flip => {
                    let next = match current {
                        // Uniform over the *other* variants.
                        Some(c) => (c + 1 + rng.below(variants - 1)) % variants,
                        None => rng.below(variants),
                    };
                    current = Some(next);
                    next
                }
                _ => {
                    novel += 1;
                    current = None;
                    novel_base + novel
                }
            };
            out.push(Edit { kind, param });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_topology::generators;

    #[test]
    fn splitmix_is_deterministic_and_salted() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(7, 2);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = SplitMix64::new(1, 1);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn ring_is_reproducible_and_cycles_flows() {
        let topo = generators::campus();
        let tm = TrafficMatrix::gravity(&topo, 100.0, 1);
        let a = Ring::build(&tm, 7, 100, 8);
        let b = Ring::build(&tm, 7, 100, 8);
        let c = Ring::build(&tm, 8, 100, 8);
        assert_eq!(a.packets(), 8 * BATCH);
        assert_eq!(a.batches, b.batches);
        assert_ne!(a.batches, c.batches);
        // Flow 0 comes round again after `flows` packets.
        assert_eq!(a.batches[0][0], a.batches[1][100 - BATCH]);
        // Sources sit in their ingress port's subnet.
        for (batch, facts) in a.batches.iter().zip(&a.facts) {
            for ((port, pkt), fact) in batch.iter().zip(facts) {
                assert_eq!(*port, fact.src);
                assert_ne!(fact.src, fact.dst);
                assert_eq!(pkt.get(&Field::InPort), Some(&Value::Int(port.0 as i64)));
            }
        }
    }

    #[test]
    fn every_block_has_the_exact_mix_and_flips_always_change_variant() {
        let schedule = edit_schedule(7, 5, 5);
        assert_eq!(schedule.len(), 5 * EDIT_BLOCK);
        for block in schedule.chunks(EDIT_BLOCK) {
            let flips = block.iter().filter(|e| e.kind == EditKind::Flip).count();
            assert_eq!(flips, FLIPS_PER_BLOCK);
            assert!(block.iter().all(|e| e.kind != EditKind::Traffic));
        }
        let mut current = Some(0u64);
        let mut novels = Vec::new();
        for edit in &schedule {
            if edit.kind == EditKind::Flip {
                assert!(edit.param < 5);
                assert_ne!(Some(edit.param), current, "a flip must change the program");
                current = Some(edit.param);
            } else {
                novels.push(edit.param);
                current = None;
            }
        }
        // Novel parameters never repeat.
        let mut dedup = novels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), novels.len());
        // Same seed, same schedule; another seed, another one.
        assert_eq!(schedule, edit_schedule(7, 5, 5));
        assert_ne!(schedule, edit_schedule(8, 5, 5));
    }
}
