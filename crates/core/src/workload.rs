//! The workload abstraction of the experiment layer.
//!
//! The paper's programming model is application-agnostic; this module makes
//! the *experiment* layer agnostic too. A [`Workload`] owns everything
//! [`crate::experiment::run_on`] needs to execute one distributed
//! application on any runtime backend: the per-rank task factory (the
//! application's `Calculate()`), the solution assembly
//! (`Results_Aggregation()` in numeric form) and the residual metric that
//! judges the assembled solution's quality. The dispatch, bench and CLI
//! layers only ever see `&dyn Workload` and [`WorkloadKind`] — no
//! application-specific types.
//!
//! Three workloads ship today, each exercising a different communication
//! structure:
//!
//! * `obstacle` ([`crate::obstacle_app::ObstacleWorkload`]) — the paper's
//!   3-D obstacle problem; nearest-neighbour ghost-plane exchange along a
//!   line of peers.
//! * `heat` ([`crate::heat_app::HeatWorkload`]) — a 2-D steady-state heat
//!   equation solved by Jacobi relaxation; same line-of-peers ghost-row
//!   exchange, different stencil and convergence behaviour.
//! * `pagerank` ([`crate::pagerank_app::PageRankWorkload`]) — an
//!   asynchronous-iteration-friendly PageRank over a ring-with-chords
//!   graph; peers own vertex partitions and exchange rank mass with
//!   *arbitrary* neighbour peers, not just adjacent ranks.
//!
//! # Repartitioning
//!
//! All three workloads decompose a one-dimensional *item* space (z-planes,
//! interior rows, vertices) into contiguous per-rank ranges, and all three
//! serialize per-rank state in the same shape: a `(start, count)` header
//! followed by `count × width` little-endian `f64` values. That shared
//! structure is what makes *live repartitioning* — re-slicing a checkpointed
//! global state into a new decomposition while the run executes — a generic
//! operation: [`Repartitioner`] describes a workload's item space and builds
//! a rank's task for an explicit partition, while [`assemble_global`],
//! [`weighted_ranges`] and [`reslice_moved_items`] do the coordinate
//! arithmetic once for every workload. The volatility subsystem
//! ([`crate::churn`]) drives it: after a recovery the capacity-weighted
//! shares are applied for real, and a [`crate::churn::ChurnEventKind::Join`]
//! event lets a brand-new peer take a share of the work mid-run.
//!
//! # Examples
//!
//! Splitting an item space proportionally to measured capacities:
//!
//! ```
//! use p2pdc::workload::weighted_ranges;
//!
//! // 10 interior rows starting at absolute row 1, one peer twice as fast.
//! let parts = weighted_ranges(1, 10, &[2.0, 1.0, 1.0]);
//! assert_eq!(parts.iter().map(|&(_, len)| len).sum::<usize>(), 10);
//! assert_eq!(parts[0].0, 1, "ranges are contiguous from the base");
//! assert!(parts[0].1 > parts[1].1, "the fast peer owns more rows");
//! ```

use crate::app::IterativeTask;
use crate::heat_app::HeatWorkload;
use crate::obstacle_app::{ObstacleInstance, ObstacleParams, ObstacleWorkload};
use crate::pagerank_app::PageRankWorkload;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One distributed application, packaged for the workload-generic experiment
/// driver: problem construction happens when the workload is built, task
/// construction per rank on demand, and assembly/quality evaluation once the
/// per-rank results are in.
pub trait Workload: Send + Sync {
    /// Stable lowercase name ("obstacle", "heat", "pagerank").
    fn name(&self) -> &'static str;

    /// Number of peers the problem was decomposed for.
    fn peers(&self) -> usize;

    /// Build the task of peer `rank` (the application's `Calculate()`).
    fn task(&self, rank: usize) -> Box<dyn IterativeTask>;

    /// Assemble the global solution vector from the per-rank serialized
    /// results.
    fn assemble(&self, results: &[(usize, Vec<u8>)]) -> Vec<f64>;

    /// Quality metric of an assembled solution: the sup-norm fixed-point
    /// residual (how far the solution is from being invariant under one more
    /// global iteration). Converged runs report residuals on the order of
    /// the tolerance.
    fn residual(&self, solution: &[f64]) -> f64;

    /// Live-repartitioning support: re-slice a checkpointed global state
    /// into a new [`weighted_ranges`] decomposition mid-run. `None` (the
    /// default) means the workload cannot be repartitioned — recovery then
    /// restores the original blocks and join events are ignored. All three
    /// built-in workloads return `Some`.
    fn repartitioner(&self) -> Option<Arc<dyn Repartitioner>> {
        None
    }
}

/// A workload's handle for live repartitioning: the description of its
/// one-dimensional item space (planes / rows / vertices) plus a factory
/// that builds one rank's task for an *explicit* contiguous partition,
/// seeded from an assembled global state vector.
///
/// Implementations are cheap, `'static` and shareable (an [`Arc`] travels
/// through [`crate::runtime::RunConfig`] into the volatility coordinator),
/// so a workload typically implements this on a small struct holding its
/// shared problem data.
pub trait Repartitioner: Send + Sync {
    /// Number of divisible work items (z-planes, interior rows, vertices).
    fn items(&self) -> usize;

    /// First absolute item index (0 for obstacle planes and PageRank
    /// vertices; 1 for heat, whose interior rows start below the boundary
    /// row).
    fn item_base(&self) -> usize {
        0
    }

    /// `f64` values per item in the serialized state encoding (`n²` per
    /// obstacle plane, `n` per heat row, 1 per vertex).
    fn item_width(&self) -> usize;

    /// The canonical global value vector (initial iterate / boundary
    /// conditions) used as the canvas that per-rank checkpoint states are
    /// assembled onto. Length `(item_base() + items()) × item_width()` —
    /// plus any trailing boundary values the workload's absolute coordinates
    /// imply (the heat canvas is the full plate including both boundary
    /// rows).
    fn global_canvas(&self) -> Vec<f64>;

    /// Build the task of `rank` for the explicit partition `parts`
    /// (absolute `(start, len)` ranges, one per rank), with owned values
    /// *and* ghost/external seeds taken from `global` and the relaxation
    /// counter set to `iteration`. Seeding the boundaries from the same
    /// global vector keeps a synchronous run's next sweep identical to the
    /// sequential sweep of that iterate — the re-slice cannot perturb the
    /// decomposition-invariant relaxation count.
    fn task_for(
        &self,
        rank: usize,
        parts: &[(usize, usize)],
        global: &[f64],
        iteration: u64,
    ) -> Box<dyn IterativeTask>;
}

/// Shareable [`Repartitioner`] handle carried by
/// [`crate::runtime::RunConfig`] (a newtype so the config stays `Debug`).
#[derive(Clone)]
pub struct ReslicerHandle(pub Arc<dyn Repartitioner>);

impl std::fmt::Debug for ReslicerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ReslicerHandle(items={}, width={})",
            self.0.items(),
            self.0.item_width()
        )
    }
}

/// Split `items` items starting at absolute index `base` into contiguous
/// ranges proportional to `weights`, every range at least one item
/// (largest-remainder allocation, the same rule as
/// [`obstacle::BlockDecomposition::weighted`]). Returns absolute
/// `(start, len)` per rank.
pub fn weighted_ranges(base: usize, items: usize, weights: &[f64]) -> Vec<(usize, usize)> {
    let parts = weights.len();
    assert!(
        parts >= 1 && parts <= items,
        "{parts} parts of {items} items"
    );
    assert!(weights.iter().all(|w| *w > 0.0), "weights must be positive");
    let total: f64 = weights.iter().sum();
    let mut counts = vec![1usize; parts];
    let mut remaining = items - parts;
    let mut fractional: Vec<(usize, f64)> = Vec::with_capacity(parts);
    for (r, w) in weights.iter().enumerate() {
        let ideal = items as f64 * w / total;
        let extra = (ideal - 1.0).max(0.0);
        let whole = extra.floor() as usize;
        let take = whole.min(remaining);
        counts[r] += take;
        remaining -= take;
        fractional.push((r, extra - whole as f64));
    }
    fractional.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let mut i = 0;
    while remaining > 0 {
        counts[fractional[i % parts].0] += 1;
        remaining -= 1;
        i += 1;
    }
    let mut out = Vec::with_capacity(parts);
    let mut cursor = base;
    for count in counts {
        out.push((cursor, count));
        cursor += count;
    }
    out
}

/// Encode a block state in the shared result/checkpoint encoding: `start`
/// (u32), `count` (u32), then the block's `count × width` values as
/// little-endian `f64`s. Every task's `result` is this.
pub fn encode_block_state(start: usize, count: usize, values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + values.len() * 8);
    out.extend_from_slice(&(start as u32).to_le_bytes());
    out.extend_from_slice(&(count as u32).to_le_bytes());
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Split a serialized block state into its header and its value bytes,
/// borrowed: `(start, count, body)`. `None` for a header cut short or a body
/// that does not hold exactly `count × width` values — the bytes come off
/// the network, so nothing here may panic.
fn split_block_state(bytes: &[u8], width: usize) -> Option<(usize, usize, &[u8])> {
    let (header, body) = bytes.split_first_chunk::<8>()?;
    let (start, count) = header.split_at(4);
    let word = |raw: &[u8]| u32::from_le_bytes(raw.try_into().expect("a 4-byte word")) as usize;
    let (start, count) = (word(start), word(count));
    let values = count.checked_mul(width)?;
    (values.checked_mul(8)? == body.len()).then_some((start, count, body))
}

/// Overwrite `values` with the little-endian `f64`s of a body
/// [`split_block_state`] sized to them.
fn read_values(values: &mut [f64], body: &[u8]) {
    for (slot, raw) in values.iter_mut().zip(body.chunks_exact(8)) {
        *slot = f64::from_le_bytes(raw.try_into().expect("an 8-byte chunk"));
    }
}

/// Restore a task's owned block — `values`, the `values.len() / width`
/// items from item `start` on — from a serialized state. `false`, and
/// `values` untouched, unless the state names exactly that block and holds
/// all of it. Every task's `restore` is this.
pub fn restore_block_state(values: &mut [f64], start: usize, bytes: &[u8], width: usize) -> bool {
    match split_block_state(bytes, width) {
        Some((at, count, body)) if at == start && count * width == values.len() => {
            read_values(values, body);
            true
        }
        _ => false,
    }
}

/// Write one serialized block state onto `canvas` at its absolute
/// coordinates, decoding straight from the state's bytes. A state that fails
/// to split or would overrun the canvas is skipped whole; returns whether
/// the values were written.
pub fn write_block_state(canvas: &mut [f64], bytes: &[u8], width: usize) -> bool {
    let Some((start, count, body)) = split_block_state(bytes, width) else {
        return false;
    };
    let Some(target) = canvas.get_mut(start * width..(start + count) * width) else {
        return false;
    };
    read_values(target, body);
    true
}

/// Assemble a global value vector by writing per-rank serialized states
/// onto `canvas` at their absolute coordinates ([`write_block_state`] per
/// state). Skipped states leave the canvas (the workload's canonical
/// values, or the coordinator's last-known-value record) covering the gap.
/// Allocates nothing beyond the canvas the caller hands in. Every
/// `Workload::assemble` is this.
pub fn assemble_global<'a>(
    mut canvas: Vec<f64>,
    states: impl IntoIterator<Item = &'a [u8]>,
    width: usize,
) -> Vec<f64> {
    for bytes in states {
        write_block_state(&mut canvas, bytes, width);
    }
    canvas
}

/// Items whose owning rank changed between two contiguous partitions of the
/// same item space (the "moved work" a repartition pays for).
pub fn reslice_moved_items(old: &[(usize, usize)], new: &[(usize, usize)]) -> usize {
    let owner = |parts: &[(usize, usize)], item: usize| -> Option<usize> {
        parts
            .iter()
            .position(|&(start, len)| (start..start + len).contains(&item))
    };
    let Some(&(base, _)) = new.first() else {
        return 0;
    };
    let total: usize = new.iter().map(|&(_, len)| len).sum();
    (base..base + total)
        .filter(|&item| owner(old, item) != owner(new, item))
        .count()
}

/// The built-in workloads, enumerable by the bench matrix and the `repro`
/// CLI without naming any application-specific type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// The paper's 3-D obstacle problem (membrane instance).
    Obstacle,
    /// 2-D steady-state heat equation (Jacobi).
    Heat,
    /// PageRank on a ring-with-chords graph.
    PageRank,
}

impl WorkloadKind {
    /// Every workload, in the order the bench matrix reports them.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::Obstacle,
        WorkloadKind::Heat,
        WorkloadKind::PageRank,
    ];

    /// Stable lowercase label (JSON artifacts, bench ids).
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadKind::Obstacle => "obstacle",
            WorkloadKind::Heat => "heat",
            WorkloadKind::PageRank => "pagerank",
        }
    }

    /// Build the workload at the given problem size for `peers` peers.
    ///
    /// `size` is the workload's natural size knob: grid points per dimension
    /// for the PDE workloads (obstacle is 3-D, heat 2-D), vertex count for
    /// PageRank.
    pub fn build(&self, size: usize, peers: usize) -> Box<dyn Workload> {
        match self {
            WorkloadKind::Obstacle => Box::new(ObstacleWorkload::new(ObstacleParams {
                n: size,
                peers,
                instance: ObstacleInstance::Membrane,
            })),
            WorkloadKind::Heat => Box::new(HeatWorkload::new(size, peers)),
            WorkloadKind::PageRank => Box::new(PageRankWorkload::ring_with_chords(size, peers)),
        }
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Split `total` items into `parts` contiguous chunks as evenly as possible;
/// returns the `(start, len)` of chunk `k`. The first `total % parts` chunks
/// get one extra item — the same balancing rule the obstacle decomposition
/// uses, shared here by the heat row bands and the PageRank vertex
/// partitions.
pub fn balanced_partition(total: usize, parts: usize, k: usize) -> (usize, usize) {
    assert!(parts >= 1 && k < parts, "partition {k} of {parts}");
    let base = total / parts;
    let extra = total % parts;
    let len = base + usize::from(k < extra);
    let start = k * base + k.min(extra);
    (start, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn weighted_ranges_cover_the_item_space_with_min_one_item() {
        for (base, items) in [(0usize, 10usize), (1, 8), (0, 100)] {
            for weights in [vec![1.0; 4], vec![4.0, 1.0, 1.0], vec![0.1, 10.0]] {
                let parts = weighted_ranges(base, items, &weights);
                assert_eq!(parts.len(), weights.len());
                let mut next = base;
                for &(start, len) in &parts {
                    assert_eq!(start, next, "ranges are contiguous");
                    assert!(len >= 1, "every rank owns at least one item");
                    next = start + len;
                }
                assert_eq!(next, base + items, "ranges tile the item space");
            }
        }
        // Proportionality: a 4x-capacity peer gets the lion's share.
        let parts = weighted_ranges(0, 100, &[4.0, 1.0, 1.0]);
        assert!(parts[0].1 > 2 * parts[1].1);
    }

    #[test]
    fn block_state_codec_round_trips_and_rejects_mis_sized_input() {
        let values = vec![1.5, -2.25, 0.0, 7.75, 3.5, -1.0];
        let encoded = encode_block_state(3, 2, &values);
        assert_eq!(split_block_state(&encoded, 3), Some((3, 2, &encoded[8..])));
        let mut restored = vec![0.0; 6];
        assert!(restore_block_state(&mut restored, 3, &encoded, 3));
        assert_eq!(restored, values);
        assert_eq!(split_block_state(&encoded, 2), None, "width mismatch");
        assert_eq!(split_block_state(&encoded[..encoded.len() - 1], 3), None);
        assert_eq!(split_block_state(&[], 3), None);
    }

    #[test]
    fn moved_items_counts_ownership_changes_only() {
        let old = vec![(0usize, 4usize), (4, 4)];
        assert_eq!(reslice_moved_items(&old, &old), 0);
        let new = vec![(0usize, 6usize), (6, 2)];
        assert_eq!(reslice_moved_items(&old, &new), 2, "items 4 and 5 moved");
        // A grown partition moves item 3 (rank 0 → 1) and items 6–7
        // (rank 1 → the new rank 2); items 4–5 stay with rank 1.
        let grown = vec![(0usize, 3usize), (3, 3), (6, 2)];
        assert_eq!(reslice_moved_items(&old, &grown), 3);
    }

    proptest! {
        /// Decompose → re-slice → reassemble is lossless: encoding a global
        /// vector under any contiguous partition and assembling the states
        /// back (onto a canvas of different values) reproduces the vector
        /// exactly, for any item width — and re-slicing those states into a
        /// second partition before reassembling changes nothing.
        #[test]
        fn reslice_round_trip_is_lossless(
            width in 1usize..5,
            items in 2usize..24,
            seed in proptest::any::<u64>(),
            parts_a in 1usize..6,
            parts_b in 1usize..6,
        ) {
            let parts_a = parts_a.min(items);
            let parts_b = parts_b.min(items);
            // A deterministic pseudo-random global vector.
            let global: Vec<f64> = (0..items * width)
                .map(|i| ((seed.wrapping_add(i as u64).wrapping_mul(2654435761)) % 1000) as f64)
                .collect();
            let encode_under = |parts: usize, source: &[f64]| -> Vec<Vec<u8>> {
                (0..parts)
                    .map(|k| {
                        let (start, len) = balanced_partition(items, parts, k);
                        encode_block_state(start, len, &source[start * width..(start + len) * width])
                    })
                    .collect()
            };
            let states_a = encode_under(parts_a, &global);
            let nan_canvas = || vec![f64::NAN; items * width];
            let assembled =
                assemble_global(nan_canvas(), states_a.iter().map(Vec::as_slice), width);
            prop_assert_eq!(&assembled, &global, "decompose -> reassemble");
            // Re-slice: cut the assembled vector under partition B and
            // reassemble again.
            let states_b = encode_under(parts_b, &assembled);
            let again = assemble_global(nan_canvas(), states_b.iter().map(Vec::as_slice), width);
            prop_assert_eq!(&again, &global, "re-slice -> reassemble");
        }
    }

    proptest! {
        /// The codec reads bytes that come off the network: any input
        /// splits or is refused without a panic, and a state is written or
        /// restored only when it splits, as a whole block.
        #[test]
        fn block_state_codec_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..64),
            width in 1usize..4,
        ) {
            let split = split_block_state(&bytes, width);
            let mut canvas = vec![f64::NAN; 12];
            let written = write_block_state(&mut canvas, &bytes, width);
            let untouched = canvas.iter().filter(|v| v.is_nan()).count();
            match split {
                Some((_, count, _)) if written => prop_assert_eq!(untouched, 12 - count * width),
                _ => prop_assert_eq!(untouched, 12),
            }
            let mut block = vec![f64::NAN; 2 * width];
            let restored = restore_block_state(&mut block, 1, &bytes, width);
            prop_assert_eq!(restored, matches!(split, Some((1, 2, _))));
        }
    }

    /// The concrete three-workload round trip: every built-in workload's
    /// repartitioner re-slices live task states into a different partition
    /// without losing a value, and the re-sliced tasks assemble back to the
    /// identical global solution.
    #[test]
    fn every_workload_reslices_losslessly() {
        for kind in WorkloadKind::ALL {
            let size = match kind {
                WorkloadKind::Obstacle => 8,
                WorkloadKind::Heat => 9,
                WorkloadKind::PageRank => 12,
            };
            let workload = kind.build(size, 2);
            let rep = workload.repartitioner().expect("built-ins repartition");
            // Relax two tasks a few sweeps with synchronous exchanges so the
            // states are non-trivial.
            let mut tasks: Vec<_> = (0..2).map(|r| workload.task(r)).collect();
            for _ in 0..3 {
                for task in tasks.iter_mut() {
                    task.relax();
                }
                type Outbox = Vec<(usize, Vec<(usize, Vec<u8>)>)>;
                let outgoing: Outbox = tasks
                    .iter_mut()
                    .enumerate()
                    .map(|(r, t)| (r, t.outgoing()))
                    .collect();
                for (from, messages) in outgoing {
                    for (dst, payload) in messages {
                        tasks[dst].incorporate(from, &payload);
                    }
                }
            }
            let results: Vec<(usize, Vec<u8>)> = tasks
                .iter()
                .enumerate()
                .map(|(r, t)| (r, t.result()))
                .collect();
            let reference = workload.assemble(&results);
            // Re-slice into three uneven ranks seeded from the assembled
            // checkpoint states.
            let states: Vec<Vec<u8>> = tasks.iter().map(|t| t.checkpoint_state()).collect();
            let global = assemble_global(
                rep.global_canvas(),
                states.iter().map(Vec::as_slice),
                rep.item_width(),
            );
            let parts = weighted_ranges(rep.item_base(), rep.items(), &[2.0, 1.0, 1.0]);
            let new_results: Vec<(usize, Vec<u8>)> = (0..3)
                .map(|r| (r, rep.task_for(r, &parts, &global, 3).result()))
                .collect();
            let resliced = workload.assemble(&new_results);
            assert_eq!(
                reference, resliced,
                "{kind}: re-slice must preserve the global solution exactly"
            );
        }
    }

    /// Every workload speaks the one block-state codec: `result` is
    /// `encode_block_state` of the owned values, `restore` takes back
    /// exactly its own block, and `assemble` skips a state that does not
    /// split or does not fit as a whole block — never a prefix of it.
    #[test]
    fn every_workload_speaks_the_block_state_codec() {
        for kind in WorkloadKind::ALL {
            let size = match kind {
                WorkloadKind::Obstacle => 6,
                WorkloadKind::Heat => 8,
                WorkloadKind::PageRank => 12,
            };
            let workload = kind.build(size, 3);
            let rep = workload.repartitioner().expect("built-ins repartition");
            let width = rep.item_width();
            let seeded = |salt: f64| -> Vec<f64> {
                let len = rep.global_canvas().len();
                (0..len).map(|i| (i as f64 * 0.37 + salt).sin()).collect()
            };
            let (global, other) = (seeded(0.0), seeded(1.0));
            let parts = weighted_ranges(rep.item_base(), rep.items(), &[1.0; 3]);
            let mut results = Vec::new();
            for (rank, &(start, len)) in parts.iter().enumerate() {
                // `task_for` seeds the owned values from `global`.
                let task = rep.task_for(rank, &parts, &global, 3);
                let owned = &global[start * width..(start + len) * width];
                assert_eq!(
                    task.result(),
                    encode_block_state(start, len, owned),
                    "{kind}"
                );
                let state = task.checkpoint_state();
                assert_eq!(state, task.result(), "{kind}: the checkpoint is the result");

                let mut twin = rep.task_for(rank, &parts, &other, 0);
                let before = twin.result();
                let mut elsewhere = state.clone();
                elsewhere[..4].copy_from_slice(&(start as u32 + 1).to_le_bytes());
                for refused in [&elsewhere[..], &state[..state.len() - 1]] {
                    assert!(!twin.restore(refused, 7), "{kind}/{rank}: restore accepted");
                    assert_eq!(
                        twin.result(),
                        before,
                        "{kind}/{rank}: a refused restore wrote"
                    );
                }
                assert!(
                    twin.restore(&state, 7),
                    "{kind}/{rank}: own checkpoint refused"
                );
                assert_eq!((twin.result(), twin.relaxations()), (state, 7), "{kind}");
                results.push((rank, task.result()));
            }

            // Rank 1's body lost its last byte; rank 2's header is moved one
            // item past the end of the canvas; a 3-byte blob has no header.
            let canvas_items = workload.assemble(&[]).len() / width;
            let mut truncated = results[1].1.clone();
            truncated.pop();
            let mut past_the_end = results[2].1.clone();
            let count = parts[2].1;
            past_the_end[..4].copy_from_slice(&((canvas_items + 1 - count) as u32).to_le_bytes());
            let malformed = [
                results[0].clone(),
                (1, truncated),
                (2, past_the_end),
                (2, vec![1, 2, 3]),
            ];
            let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&workload.assemble(&malformed)),
                bits(&workload.assemble(&results[..1])),
                "{kind}: only rank 0 is assembled"
            );
        }
    }

    #[test]
    fn balanced_partition_covers_the_range_without_overlap() {
        for total in [1usize, 5, 7, 24, 100] {
            for parts in 1..=total.min(9) {
                let mut next = 0;
                for k in 0..parts {
                    let (start, len) = balanced_partition(total, parts, k);
                    assert_eq!(start, next, "total={total} parts={parts} k={k}");
                    assert!(len >= total / parts);
                    next = start + len;
                }
                assert_eq!(next, total);
            }
        }
    }

    #[test]
    fn every_kind_builds_a_consistent_workload() {
        for kind in WorkloadKind::ALL {
            let size = match kind {
                WorkloadKind::Obstacle => 6,
                WorkloadKind::Heat => 8,
                WorkloadKind::PageRank => 12,
            };
            let workload = kind.build(size, 2);
            assert_eq!(workload.name(), kind.label());
            assert_eq!(workload.peers(), 2);
            // Each rank produces a task that reports symmetric neighbours.
            let neighbors: Vec<Vec<usize>> =
                (0..2).map(|rank| workload.task(rank).neighbors()).collect();
            for (rank, nbs) in neighbors.iter().enumerate() {
                for &nb in nbs {
                    assert!(
                        neighbors[nb].contains(&rank),
                        "{kind}: neighbour sets must be symmetric"
                    );
                }
            }
        }
    }
}
