//! Per-peer block state for the distributed projected Richardson method.
//!
//! Each peer owns a contiguous range of z-planes (sub-blocks of `n²` points,
//! Section IV.B / Figure 4 of the paper). A relaxation sweep updates every
//! owned plane from the previous iterate (Jacobi ordering, so the synchronous
//! distributed scheme reproduces the sequential iterates exactly) using ghost
//! copies of the neighbouring peers' boundary planes. After a sweep the peer
//! sends its first plane to the peer below and its last plane to the peer
//! above.
//!
//! Every obstacle sweep of the crate runs one kernel, `relax_planes`: a walk
//! over planes and rows whose inner columns run in chunks of several points
//! side by side. The chunk loop has two interiors: four lanes of AVX2
//! intrinsics, chosen at run time on an x86_64 CPU that has AVX2, and two
//! lanes of portable code on every other host. Both give the iterates of the
//! per-point oracle [`NodeState::sweep_scalar`] bit for bit, so which one
//! runs never shows in a result ([`kernel_interior`] says which). The AVX2
//! interior holds the kernel's `unsafe` code.
//!
//! A block of at least two parts of [`SPLIT_POINTS`] points is cut in two by
//! plane range, and the calling thread relaxes one part while an idle helper
//! thread ([`crate::join`]) relaxes the other — on a host with a core to
//! spare, and only on a thread that may borrow one. Each part runs the same
//! plane walk on its own half of the output; the planes either side of the
//! cut are read from the other part's slice of the iterate, so the iterates
//! and the successive difference keep their bits.

use crate::grid::BlockDecomposition;
use crate::join;
use crate::problem::ObstacleProblem;
use crate::richardson::{RichardsonConfig, SolveResult};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// The state a peer keeps for its share of the iterate vector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeState {
    n: usize,
    z_start: usize,
    z_end: usize,
    u: Vec<f64>,
    next: Vec<f64>,
    ghost_lo: Vec<f64>,
    ghost_hi: Vec<f64>,
    relaxations: u64,
    /// All-zero plane standing in for absent neighbours (the homogeneous
    /// Dirichlet boundary) so the blocked kernel never branches per point.
    /// Scratch only — not part of the checkpointed state.
    #[serde(skip, default)]
    zeros: Vec<f64>,
}

impl NodeState {
    /// Create the state of peer `r` under `decomp`, initialised (including
    /// ghost planes) from the canonical initial iterate `P_K(0)` — projected
    /// over the planes the peer keeps only, elementwise the values of
    /// [`crate::initial_iterate`] without building all `n³` of them.
    pub fn new(problem: &ObstacleProblem, decomp: &BlockDecomposition, r: usize) -> Self {
        Self::seeded(problem, decomp, r, 0, |points| {
            let mut v = vec![0.0; points.len()];
            problem.project_from(points.start, &mut v);
            v
        })
    }

    /// Create the state of peer `r` under `decomp`, initialised (owned
    /// planes *and* ghost planes) from an explicit global iterate, with the
    /// relaxation counter set to `relaxations`. Live repartitioning uses
    /// this to hand a re-sliced block to a peer mid-run: seeding the ghosts
    /// from the same global vector keeps the next synchronous sweep
    /// identical to the sequential sweep of that iterate, so the re-slice
    /// does not perturb the decomposition-invariant relaxation count.
    pub fn from_global(
        problem: &ObstacleProblem,
        decomp: &BlockDecomposition,
        r: usize,
        full: &[f64],
        relaxations: u64,
    ) -> Self {
        assert_eq!(full.len(), problem.len(), "global iterate size mismatch");
        Self::seeded(problem, decomp, r, relaxations, |points| {
            full[points].to_vec()
        })
    }

    /// The state of peer `r` under `decomp` with its owned and ghost planes
    /// read off `seed` (a global point range → its values).
    fn seeded(
        problem: &ObstacleProblem,
        decomp: &BlockDecomposition,
        r: usize,
        relaxations: u64,
        seed: impl Fn(Range<usize>) -> Vec<f64>,
    ) -> Self {
        let n = problem.grid.n;
        let plane = problem.grid.plane_len();
        let planes = |z: Range<usize>| seed(z.start * plane..z.end * plane);
        let z_start = decomp.start(r);
        let z_end = decomp.end(r);
        let u = planes(z_start..z_end);
        let ghost_lo = if z_start > 0 {
            planes(z_start - 1..z_start)
        } else {
            Vec::new()
        };
        let ghost_hi = if z_end < n {
            planes(z_end..z_end + 1)
        } else {
            Vec::new()
        };
        let len = u.len();
        Self {
            n,
            z_start,
            z_end,
            u,
            next: vec![0.0; len],
            ghost_lo,
            ghost_hi,
            relaxations,
            zeros: vec![0.0; plane],
        }
    }

    /// First owned plane index (the paper's `o(k)`).
    pub fn z_start(&self) -> usize {
        self.z_start
    }

    /// One past the last owned plane index.
    pub fn z_end(&self) -> usize {
        self.z_end
    }

    /// Number of owned planes.
    pub fn plane_count(&self) -> usize {
        self.z_end - self.z_start
    }

    /// Number of owned unknowns.
    pub fn local_len(&self) -> usize {
        self.u.len()
    }

    /// Number of relaxation sweeps performed by this peer.
    pub fn relaxations(&self) -> u64 {
        self.relaxations
    }

    /// The first owned plane (sent to the peer below), borrowed straight
    /// from grid storage so the wire path can serialize without copying.
    pub fn first_plane_slice(&self) -> &[f64] {
        &self.u[0..self.n * self.n]
    }

    /// The last owned plane (sent to the peer above), borrowed straight
    /// from grid storage.
    pub fn last_plane_slice(&self) -> &[f64] {
        let plane = self.n * self.n;
        &self.u[self.u.len() - plane..]
    }

    /// Copy of the first owned plane (sent to the peer below).
    pub fn first_plane(&self) -> Vec<f64> {
        self.first_plane_slice().to_vec()
    }

    /// Copy of the last owned plane (sent to the peer above).
    pub fn last_plane(&self) -> Vec<f64> {
        self.last_plane_slice().to_vec()
    }

    /// Install the boundary plane received from the peer below (its last
    /// plane). Returns the sup-norm change with respect to the previous ghost
    /// (used by asynchronous convergence detection).
    pub fn set_ghost_lo(&mut self, plane: &[f64]) -> f64 {
        assert_eq!(plane.len(), self.n * self.n, "ghost plane size mismatch");
        assert!(self.z_start > 0, "peer 0 has no lower neighbour");
        let change = plane
            .iter()
            .zip(self.ghost_lo.iter())
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        self.ghost_lo.clear();
        self.ghost_lo.extend_from_slice(plane);
        change
    }

    /// Install the boundary plane received from the peer above (its first
    /// plane). Returns the sup-norm change with respect to the previous ghost.
    pub fn set_ghost_hi(&mut self, plane: &[f64]) -> f64 {
        assert_eq!(plane.len(), self.n * self.n, "ghost plane size mismatch");
        assert!(self.z_end < self.n, "the last peer has no upper neighbour");
        let change = plane
            .iter()
            .zip(self.ghost_hi.iter())
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        self.ghost_hi.clear();
        self.ghost_hi.extend_from_slice(plane);
        change
    }

    /// [`NodeState::set_ghost_lo`] straight from the plane's little-endian
    /// wire bytes, in one pass and without an intermediate vector. `None`
    /// (ghost untouched) unless `bytes` holds exactly one plane.
    pub fn set_ghost_lo_le(&mut self, bytes: &[u8]) -> Option<f64> {
        store_le_plane(&mut self.ghost_lo, bytes)
    }

    /// [`NodeState::set_ghost_hi`] straight from the plane's little-endian
    /// wire bytes. `None` (ghost untouched) unless `bytes` holds exactly one
    /// plane.
    pub fn set_ghost_hi_le(&mut self, bytes: &[u8]) -> Option<f64> {
        store_le_plane(&mut self.ghost_hi, bytes)
    }

    /// Perform one projected Richardson sweep over the owned planes using the
    /// previous iterate and the current ghost planes. Returns the sup-norm of
    /// the local successive difference.
    ///
    /// Runs `relax_planes`, the one obstacle kernel of the crate, with the
    /// ghost planes standing in for the neighbours' planes (an absent
    /// neighbour is a persistent zero plane — the homogeneous Dirichlet
    /// boundary — which is bit-identical to skipping the subtraction, since
    /// `x - 0.0 == x` for every `f64`), on the row interior of this host
    /// ([`kernel_interior`]), split with a helper thread when the block is
    /// large enough. Produces bit-identical iterates to
    /// [`NodeState::sweep_scalar`] and to the sequential
    /// [`crate::richardson::sweep`], preserving the decomposition-invariant
    /// relaxation counts.
    pub fn sweep(&mut self, problem: &ObstacleProblem, delta: f64) -> f64 {
        self.sweep_on(Interior::detected(), Split::SHIPPED, problem, delta)
    }

    /// [`NodeState::sweep`] on a given row interior and split rule.
    fn sweep_on(
        &mut self,
        interior: Interior,
        split: Split,
        problem: &ObstacleProblem,
        delta: f64,
    ) -> f64 {
        let plane = self.n * self.n;
        if self.zeros.len() < plane {
            // Deserialized states arrive without the scratch plane.
            self.zeros.resize(plane, 0.0);
        }
        let zeros = &self.zeros[..plane];
        let below = if self.z_start > 0 {
            &self.ghost_lo
        } else {
            zeros
        };
        let above = if self.z_end < self.n {
            &self.ghost_hi
        } else {
            zeros
        };
        let window = self.z_start * plane..self.z_end * plane;
        let max_diff = relax_planes_split(
            interior,
            split,
            self.n,
            &self.u,
            below,
            above,
            zeros,
            &problem.rhs[window.clone()],
            &problem.psi[window],
            &mut self.next,
            delta,
        );
        std::mem::swap(&mut self.u, &mut self.next);
        self.relaxations += 1;
        max_diff
    }

    /// The straightforward per-point sweep, independent of
    /// `relax_planes`: the equivalence oracle every interior of the
    /// lane-parallel kernel must match bit for bit, and the scalar side of
    /// the kernel bench.
    pub fn sweep_scalar(&mut self, problem: &ObstacleProblem, delta: f64) -> f64 {
        let n = self.n;
        let plane = n * n;
        let mut max_diff = 0.0f64;
        for lz in 0..self.plane_count() {
            let z = self.z_start + lz;
            for j in 0..n {
                for i in 0..n {
                    let li = i + n * j + plane * lz;
                    let gi = problem.grid.idx(i, j, z);
                    let center = self.u[li];
                    let mut acc = 6.0 * center;
                    if i > 0 {
                        acc -= self.u[li - 1];
                    }
                    if i + 1 < n {
                        acc -= self.u[li + 1];
                    }
                    if j > 0 {
                        acc -= self.u[li - n];
                    }
                    if j + 1 < n {
                        acc -= self.u[li + n];
                    }
                    // Below in z.
                    if lz > 0 {
                        acc -= self.u[li - plane];
                    } else if z > 0 {
                        acc -= self.ghost_lo[i + n * j];
                    }
                    // Above in z.
                    if lz + 1 < self.plane_count() {
                        acc -= self.u[li + plane];
                    } else if z + 1 < n {
                        acc -= self.ghost_hi[i + n * j];
                    }
                    let candidate = center - delta * (acc - problem.rhs[gi]);
                    let projected = project(candidate, problem.psi[gi]);
                    max_diff = max_diff.max((projected - center).abs());
                    self.next[li] = projected;
                }
            }
        }
        std::mem::swap(&mut self.u, &mut self.next);
        self.relaxations += 1;
        max_diff
    }

    /// Copy the owned planes into their place in a global solution vector.
    pub fn copy_into_global(&self, out: &mut [f64]) {
        let plane = self.n * self.n;
        let start = self.z_start * plane;
        out[start..start + self.u.len()].copy_from_slice(&self.u);
    }

    /// Owned values (planes concatenated in z order).
    pub fn local_values(&self) -> &[f64] {
        &self.u
    }

    /// Overwrite the owned values and the relaxation counter from a
    /// checkpoint (fault-tolerance restore). The ghost planes are left as
    /// they are — a restored peer refreshes them from its neighbours' next
    /// updates, and whatever it currently holds is at least as fresh as what
    /// the checkpoint saw. Returns `false` (and changes nothing) when the
    /// value count does not match this block.
    pub fn restore(&mut self, values: &[f64], relaxations: u64) -> bool {
        if values.len() != self.u.len() {
            return false;
        }
        self.u.copy_from_slice(values);
        self.relaxations = relaxations;
        true
    }
}

/// Overwrite `ghost` with the little-endian `f64` values in `bytes` and
/// return the sup-norm of the change, touching each value once: decode,
/// compare with the value it replaces, store. `None` — and `ghost` untouched
/// — unless `bytes` holds exactly `ghost.len()` values (the bytes come off
/// the network).
///
/// Four running maxima (`keep_max`) break the serial `max` chain; the
/// result is bit-identical to `fold(0.0, |m, d| m.max(d))` over the
/// differences front to back.
pub fn store_le_plane(ghost: &mut [f64], bytes: &[u8]) -> Option<f64> {
    if bytes.len() != ghost.len() * 8 {
        return None;
    }
    let store = |slot: &mut f64, raw: &[u8], max: &mut f64| {
        let value = f64::from_le_bytes(raw.try_into().expect("an 8-byte chunk"));
        keep_max(max, value, *slot);
        *slot = value;
    };
    let mut maxima = [0.0f64; 4];
    let mut slots = ghost.chunks_exact_mut(4);
    let mut raws = bytes.chunks_exact(32);
    for (slots, raws) in (&mut slots).zip(&mut raws) {
        for ((slot, raw), max) in slots.iter_mut().zip(raws.chunks_exact(8)).zip(&mut maxima) {
            store(slot, raw, max);
        }
    }
    let tail = slots.into_remainder().iter_mut();
    for (slot, raw) in tail.zip(raws.remainder().chunks_exact(8)) {
        store(slot, raw, &mut maxima[0]);
    }
    Some(maxima.into_iter().fold(0.0, f64::max))
}

/// The projection `P_K` of one candidate value onto `{ v ≥ ψ }`: the
/// candidate when it exceeds the obstacle, the obstacle otherwise. Every
/// obstacle kernel projects through this one rule, so they agree bit for bit
/// even on a signed-zero tie (`+0.0` against `-0.0` yields `ψ`, which
/// `f64::max` leaves unspecified). The comparison compiles to a single
/// `maxsd` / `maxpd`; `f64::max` checks for NaN on every call.
#[inline(always)]
fn project(candidate: f64, psi: f64) -> f64 {
    if candidate > psi {
        candidate
    } else {
        psi
    }
}

/// One projected Richardson update. The subtraction order (left, right,
/// front, back, below, above) matches the scalar kernel exactly so both
/// kernels produce bit-identical iterates.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn relax_point(
    center: f64,
    left: f64,
    right: f64,
    front: f64,
    back: f64,
    below: f64,
    above: f64,
    rhs: f64,
    psi: f64,
    delta: f64,
) -> f64 {
    let mut acc = 6.0 * center;
    acc -= left;
    acc -= right;
    acc -= front;
    acc -= back;
    acc -= below;
    acc -= above;
    project(center - delta * (acc - rhs), psi)
}

/// Points per chunk of the portable interior: the chunk's points are
/// relaxed side by side and each lane keeps its own running maximum, so
/// neither the stores nor the `max` reduction form one serial chain. Two
/// lanes — one SSE2 register of `f64` — measured fastest for portable code:
/// at n = 56 they and four lanes both sit within 5 % of the same loop with no
/// `max` at all, and at n = 24 / 36 four lanes are 7–9 % slower (more scalar
/// remainder). Compiled for AVX2, a portable 4-lane chunk stays in 128-bit
/// registers and runs slower still, so the 4-lane interior is written in
/// intrinsics ([`Interior::Avx2`]).
const LANES: usize = 2;

/// The loop over whole chunks of a row's inner columns — the one part of
/// [`relax_row`] that differs between hosts. [`Interior::detected`] picks
/// the widest one the CPU runs; nothing else chooses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Interior {
    /// Portable Rust, [`LANES`] points per chunk (SSE2 code on x86_64).
    Portable,
    /// Four points per chunk in AVX2 intrinsics; the token inside proves
    /// that the CPU has AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2(avx2::Avx2),
}

impl Interior {
    /// The interior this host runs: AVX2 where the CPU has it, the portable
    /// one everywhere else. The feature test is cached by the standard
    /// library, so calling this once per sweep costs one load.
    fn detected() -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2) = avx2::Avx2::detect() {
            return Self::Avx2(avx2);
        }
        Self::Portable
    }

    fn name(self) -> &'static str {
        match self {
            Self::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Self::Avx2(_) => "avx2",
        }
    }
}

/// The interior of the row kernel that every obstacle sweep on this host
/// runs: `"avx2"` (four lanes of AVX2 intrinsics) where the CPU has AVX2,
/// `"portable"` (two lanes of portable code) everywhere else. Both give the
/// same bits; benches and logs print this to say which one they measured.
pub fn kernel_interior() -> &'static str {
    Interior::detected().name()
}

/// The points the calling thread relaxes while a parked helper wakes up and
/// starts on its part: the mean start in a loopback `obstacle-kernel` run
/// measured 16–19 µs (a futex wake; the `join/handoff` rows of the kernel
/// bench read 7–9 µs for a helper parked 10 µs, 17 µs for one parked
/// 200 µs), at about 2.2 ns a point. The caller's part is larger by this
/// many points, so both parts end together.
const HANDOFF_POINTS: usize = 8_192;

/// The fewest points each part of a split sweep holds: four hand-offs, so
/// the wake-up costs a part at most a quarter of its time, and a helper
/// that has not started by the end of the caller's part is not waited for
/// (the caller takes its part back, [`join::join`]). It splits
/// `obstacle-kernel`'s 87 808-point peer blocks (28 planes of 56², cut
/// 16 + 12) and the 175 616-point sequential grid, and never
/// `obstacle-lockstep`'s blocks of 5 184–6 480 points.
pub const SPLIT_POINTS: usize = 4 * HANDOFF_POINTS;

/// When a sweep cuts its block in two, and where.
#[derive(Debug, Clone, Copy)]
enum Split {
    /// Cut a block whose parts each hold at least `min_points` points; the
    /// calling thread's part is larger by about `lead_points` — the points
    /// it relaxes while the helper wakes up — so both parts end together.
    Sized {
        min_points: usize,
        lead_points: usize,
    },
    /// Cut before this plane, and the parts no further.
    #[cfg(test)]
    At(usize),
    /// Cut every block of two planes or more in halves, and the parts again.
    #[cfg(test)]
    Every,
}

impl Split {
    /// The rule every sweep of the program runs.
    const SHIPPED: Self = Self::Sized {
        min_points: SPLIT_POINTS,
        lead_points: HANDOFF_POINTS,
    };

    /// The plane before which a block of `planes` planes of `plane` points
    /// is cut, if it is cut. `Sized` cuts only where this thread may borrow
    /// a helper, and the helper takes half of what is left after the
    /// caller's lead, rounded down. The test rules cut whether or not a
    /// helper exists, so a one-core host checks the cut too.
    fn cut(self, planes: usize, plane: usize) -> Option<usize> {
        match self {
            Self::Sized {
                min_points,
                lead_points,
            } => {
                let helper = (planes * plane).saturating_sub(lead_points) / (2 * plane);
                let holds = |planes: usize| planes > 0 && planes * plane >= min_points;
                let cut = holds(helper) && holds(planes - helper);
                (cut && join::helpers_allowed()).then_some(planes - helper)
            }
            #[cfg(test)]
            Self::At(cut) => (0 < cut && cut < planes).then_some(cut),
            #[cfg(test)]
            Self::Every => (planes >= 2).then_some(planes - planes / 2),
        }
    }

    /// The rule the two parts of a cut block follow.
    fn parts(self) -> Self {
        match self {
            #[cfg(test)]
            Self::At(_) => Self::At(0),
            sized => sized,
        }
    }
}

/// Relax whole planes: `u` holds `u.len() / n²` consecutive z-planes, the
/// relaxed values go to `next`, and the sup-norm of `next − u` is returned.
/// This is the obstacle kernel: [`NodeState::sweep`] runs it over a peer's
/// block with its ghost planes, [`crate::richardson::sweep`] over the whole
/// grid with zero planes, so the distributed sweep, the sequential reference
/// and the residual cannot disagree. It runs the row interior the host
/// supports ([`kernel_interior`]), so all of them switch together, and every
/// interior gives the same bits. A block of two parts of at least
/// [`SPLIT_POINTS`] points each is cut in two, and an idle helper thread
/// relaxes one part while the caller relaxes the other; the cut changes no
/// bit either.
///
/// `below` / `above` are the planes just outside the block (zeros on the
/// grid's boundary), `zeros` holds at least `n` zeros (the boundary row),
/// and `rhs` / `psi` are the problem data over the block.
#[allow(clippy::too_many_arguments)]
pub(crate) fn relax_planes(
    n: usize,
    u: &[f64],
    below: &[f64],
    above: &[f64],
    zeros: &[f64],
    rhs: &[f64],
    psi: &[f64],
    next: &mut [f64],
    delta: f64,
) -> f64 {
    relax_planes_split(
        Interior::detected(),
        Split::SHIPPED,
        n,
        u,
        below,
        above,
        zeros,
        rhs,
        psi,
        next,
        delta,
    )
}

/// [`relax_planes`] on a given row interior and split rule: cut the block
/// where `split` says, or relax it whole.
#[allow(clippy::too_many_arguments)]
fn relax_planes_split(
    interior: Interior,
    split: Split,
    n: usize,
    u: &[f64],
    below: &[f64],
    above: &[f64],
    zeros: &[f64],
    rhs: &[f64],
    psi: &[f64],
    next: &mut [f64],
    delta: f64,
) -> f64 {
    let plane = n * n;
    let planes = u.len() / plane.max(1);
    match split.cut(planes, plane) {
        Some(cut) => relax_cut(
            interior,
            split.parts(),
            cut,
            n,
            u,
            below,
            above,
            zeros,
            rhs,
            psi,
            next,
            delta,
        ),
        None => relax_planes_with(interior, n, u, below, above, zeros, rhs, psi, next, delta),
    }
}

/// The block cut before plane `cut`: the calling thread relaxes planes
/// `..cut` and a helper, if one is idle, planes `cut..` at the same time
/// ([`join::join`]; inline after the first part when none is). Each part
/// writes its own half of `next`, and the plane either side of the cut is
/// its neighbour's, read from the other part's slice of `u` — exactly what
/// the walk over the whole block reads there. Either part may cut again
/// under `split` (a nested cut takes a second idle helper). The two maxima
/// fold by [`keep_max`]'s rule, which no grouping of the differences
/// changes, so the result has the bits of the uncut walk.
#[allow(clippy::too_many_arguments)]
fn relax_cut(
    interior: Interior,
    split: Split,
    cut: usize,
    n: usize,
    u: &[f64],
    below: &[f64],
    above: &[f64],
    zeros: &[f64],
    rhs: &[f64],
    psi: &[f64],
    next: &mut [f64],
    delta: f64,
) -> f64 {
    let plane = n * n;
    let at = cut * plane;
    assert!(
        cut > 0 && at < u.len() && [rhs, psi].iter().all(|s| s.len() == u.len()),
        "cut outside the block"
    );
    let (u_lo, u_hi) = u.split_at(at);
    let (rhs_lo, rhs_hi) = rhs.split_at(at);
    let (psi_lo, psi_hi) = psi.split_at(at);
    let (next_lo, next_hi) = next.split_at_mut(at);
    let (lo, hi) = join::join(
        || {
            let above = &u_hi[..plane];
            relax_planes_split(
                interior, split, n, u_lo, below, above, zeros, rhs_lo, psi_lo, next_lo, delta,
            )
        },
        || {
            let below = &u_lo[at - plane..];
            relax_planes_split(
                interior, split, n, u_hi, below, above, zeros, rhs_hi, psi_hi, next_hi, delta,
            )
        },
    );
    if hi > lo {
        hi
    } else {
        lo
    }
}

/// [`relax_planes`] on a given row interior. Never inlined, so the hot
/// loop's code layout is fixed per plane walk and does not move with the
/// code of its callers; the AVX2 walk is compiled for AVX2 as a whole, so
/// its rows call no function.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn relax_planes_with(
    interior: Interior,
    n: usize,
    u: &[f64],
    below: &[f64],
    above: &[f64],
    zeros: &[f64],
    rhs: &[f64],
    psi: &[f64],
    next: &mut [f64],
    delta: f64,
) -> f64 {
    match interior {
        Interior::Portable => walk_planes(
            LANES,
            portable_chunks,
            n,
            u,
            below,
            above,
            zeros,
            rhs,
            psi,
            next,
            delta,
        ),
        #[cfg(target_arch = "x86_64")]
        Interior::Avx2(avx2) => avx2.relax_planes(n, u, below, above, zeros, rhs, psi, next, delta),
    }
}

/// The plane walk shared by every interior: resolve each row's neighbour
/// rows and relax it with [`relax_row`], whose inner columns run `chunks`
/// in chunks of `width` points.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn walk_planes(
    width: usize,
    chunks: impl Fn(Inner<'_>, f64) -> f64,
    n: usize,
    u: &[f64],
    below: &[f64],
    above: &[f64],
    zeros: &[f64],
    rhs: &[f64],
    psi: &[f64],
    next: &mut [f64],
    delta: f64,
) -> f64 {
    let plane = n * n;
    let len = u.len();
    assert!(
        plane > 0
            && len.is_multiple_of(plane)
            && below.len() == plane
            && above.len() == plane
            && zeros.len() >= n
            && rhs.len() == len
            && psi.len() == len
            && next.len() == len,
        "block shape mismatch"
    );
    let zero_row = &zeros[..n];
    let planes = len / plane;
    let mut max_diff = 0.0f64;
    for lz in 0..planes {
        let at = lz * plane;
        let u_plane = &u[at..at + plane];
        let below = if lz > 0 { &u[at - plane..at] } else { below };
        let above = if lz + 1 < planes {
            &u[at + plane..at + 2 * plane]
        } else {
            above
        };
        let rhs_plane = &rhs[at..at + plane];
        let psi_plane = &psi[at..at + plane];
        let next_plane = &mut next[at..at + plane];
        for j in 0..n {
            let row = j * n..(j + 1) * n;
            let front = if j > 0 {
                &u_plane[row.start - n..row.start]
            } else {
                zero_row
            };
            let back = if j + 1 < n {
                &u_plane[row.end..row.end + n]
            } else {
                zero_row
            };
            let d = relax_row(
                width,
                &chunks,
                &u_plane[row.clone()],
                front,
                back,
                &below[row.clone()],
                &above[row.clone()],
                &rhs_plane[row.clone()],
                &psi_plane[row.clone()],
                &mut next_plane[row],
                delta,
            );
            if d > max_diff {
                max_diff = d;
            }
        }
    }
    max_diff
}

/// Raise the running maximum `lane` to `|p − center|`. The maximum of
/// non-negative values does not depend on their order, the comparison skips
/// a NaN difference exactly as `f64::max` does, and a maximum started at 0
/// is never NaN — so any grouping of the differences into lanes gives the
/// bits of the serial `f64::max` fold, and the comparison compiles to a bare
/// `maxpd` where `f64::max` is a NaN-checking sequence.
#[inline(always)]
fn keep_max(lane: &mut f64, p: f64, center: f64) {
    let d = (p - center).abs();
    if d > *lane {
        *lane = d;
    }
}

/// Relax one contiguous row of `n` points with every neighbour row resolved
/// up front, and return the row's sup-norm successive difference.
///
/// Columns `0` and `n-1`, whose left / right neighbour is the zero boundary,
/// are peeled, and the inner columns past the last whole chunk of `width`
/// points run point by point too. The interior `chunks` runs over slices cut
/// to a whole number of chunks, so it carries no boundary branch and no
/// bounds check per point: each chunk relaxes its points side by side,
/// stores them, and raises one running maximum per lane, and the lanes are
/// folded once per row.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn relax_row(
    width: usize,
    chunks: impl Fn(Inner<'_>, f64) -> f64,
    row: &[f64],
    front: &[f64],
    back: &[f64],
    below: &[f64],
    above: &[f64],
    rhs: &[f64],
    psi: &[f64],
    out: &mut [f64],
    delta: f64,
) -> f64 {
    let n = row.len();
    // A grid has at least two points per dimension (`Grid3::new`).
    assert!(
        n >= 2
            && front.len() == n
            && back.len() == n
            && below.len() == n
            && above.len() == n
            && rhs.len() == n
            && psi.len() == n
            && out.len() == n
    );
    let point = |i: usize, left: f64, right: f64| {
        relax_point(
            row[i], left, right, front[i], back[i], below[i], above[i], rhs[i], psi[i], delta,
        )
    };
    let mut max_diff = 0.0f64;
    let last = n - 1;
    let columns = last - 1;
    let chunked = columns - columns % width;
    // The peeled columns and the interior's remainder, point by point.
    let mut single = |i: usize, p: f64| {
        out[i] = p;
        keep_max(&mut max_diff, p, row[i]);
    };
    single(0, point(0, 0.0, row[1]));
    single(last, point(last, row[last - 1], 0.0));
    for i in 1 + chunked..last {
        single(i, point(i, row[i - 1], row[i + 1]));
    }
    let inner = Inner {
        center: &row[1..=chunked],
        left: &row[..chunked],
        right: &row[2..chunked + 2],
        front: &front[1..=chunked],
        back: &back[1..=chunked],
        below: &below[1..=chunked],
        above: &above[1..=chunked],
        rhs: &rhs[1..=chunked],
        psi: &psi[1..=chunked],
        out: &mut out[1..=chunked],
    };
    max_diff.max(chunks(inner, delta))
}

/// A row's inner columns cut to a whole number of chunks: every slice is
/// the same length, and index `i` is column `i + 1` of the row.
struct Inner<'a> {
    center: &'a [f64],
    left: &'a [f64],
    right: &'a [f64],
    front: &'a [f64],
    back: &'a [f64],
    below: &'a [f64],
    above: &'a [f64],
    rhs: &'a [f64],
    psi: &'a [f64],
    out: &'a mut [f64],
}

/// The portable interior: [`LANES`]-point chunks of [`relax_point`], one
/// running maximum per lane; returns the inner columns' sup-norm
/// difference. The compiler turns a chunk into straight SSE2 code,
/// projection and `max` included.
#[inline(always)]
fn portable_chunks(inner: Inner<'_>, delta: f64) -> f64 {
    let Inner {
        center,
        left,
        right,
        front,
        back,
        below,
        above,
        rhs,
        psi,
        out,
    } = inner;
    // Cut every slice to one length that is visibly a whole number of
    // chunks, so the loop carries no bounds check and the compiler
    // vectorizes the chunk.
    let chunks = center.len() / LANES;
    let len = chunks * LANES;
    let (c, l, r) = (&center[..len], &left[..len], &right[..len]);
    let (f, b) = (&front[..len], &back[..len]);
    let (lo, hi) = (&below[..len], &above[..len]);
    let (rh, ps) = (&rhs[..len], &psi[..len]);
    let o = &mut out[..len];
    let mut maxima = [0.0f64; LANES];
    for chunk in 0..chunks {
        let mut p = [0.0f64; LANES];
        for (k, p) in p.iter_mut().enumerate() {
            let i = chunk * LANES + k;
            *p = relax_point(
                c[i], l[i], r[i], f[i], b[i], lo[i], hi[i], rh[i], ps[i], delta,
            );
        }
        for k in 0..LANES {
            let i = chunk * LANES + k;
            o[i] = p[k];
            keep_max(&mut maxima[k], p[k], c[i]);
        }
    }
    maxima.into_iter().fold(0.0, f64::max)
}

/// The AVX2 interior: [`relax_point`] four lanes wide in intrinsics, in the
/// same operation order and with no fused multiply-add, so every lane gives
/// the bits of the scalar update. `_mm256_max_pd(a, b)` is `a > b ? a : b`
/// per lane — `project` when `b` is the obstacle (signed-zero ties and NaN
/// included) and [`keep_max`] when `b` is the running maximum — and clearing
/// the sign bit is `f64::abs`.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::Inner;
    use std::arch::x86_64::*;

    /// Points per chunk: one AVX2 register of `f64`.
    const WIDTH: usize = 4;

    /// Proof that this CPU runs AVX2: [`Avx2::detect`] is the only way to
    /// make one.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) struct Avx2(());

    impl Avx2 {
        /// `Some` exactly when the CPU has AVX2.
        pub(super) fn detect() -> Option<Self> {
            is_x86_feature_detected!("avx2").then_some(Self(()))
        }

        /// `relax_planes` on the AVX2 interior.
        #[allow(clippy::too_many_arguments)]
        pub(super) fn relax_planes(
            self,
            n: usize,
            u: &[f64],
            below: &[f64],
            above: &[f64],
            zeros: &[f64],
            rhs: &[f64],
            psi: &[f64],
            next: &mut [f64],
            delta: f64,
        ) -> f64 {
            // SAFETY: an `Avx2` exists only where `detect` found AVX2 on
            // this CPU, which is all `relax_planes` needs beyond its
            // arguments.
            unsafe { relax_planes(n, u, below, above, zeros, rhs, psi, next, delta) }
        }
    }

    /// The shared plane walk compiled for AVX2, with [`chunks`] as its
    /// interior.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    fn relax_planes(
        n: usize,
        u: &[f64],
        below: &[f64],
        above: &[f64],
        zeros: &[f64],
        rhs: &[f64],
        psi: &[f64],
        next: &mut [f64],
        delta: f64,
    ) -> f64 {
        let chunks = |inner: Inner<'_>, delta| chunks(inner, delta);
        super::walk_planes(
            WIDTH, chunks, n, u, below, above, zeros, rhs, psi, next, delta,
        )
    }

    /// Relax the inner columns four points at a time and return their
    /// sup-norm difference.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn chunks(inner: Inner<'_>, delta: f64) -> f64 {
        let Inner {
            center: c,
            left: l,
            right: r,
            front: f,
            back: b,
            below: lo,
            above: hi,
            rhs: rh,
            psi: ps,
            out: o,
        } = inner;
        let len = c.len();
        assert!(
            len.is_multiple_of(WIDTH)
                && [l, r, f, b, lo, hi, rh, ps].iter().all(|s| s.len() == len)
                && o.len() == len,
            "interior shape mismatch"
        );
        let six = _mm256_set1_pd(6.0);
        let delta = _mm256_set1_pd(delta);
        let magnitude = _mm256_castsi256_pd(_mm256_set1_epi64x(i64::MAX));
        let mut max = _mm256_setzero_pd();
        for i in (0..len).step_by(WIDTH) {
            // SAFETY: `i + 4 <= len` because `len` is a multiple of 4, and
            // every slice read here holds `len` values (asserted above), so
            // each load reads four in-bounds `f64`s. The loads are written
            // out, not mapped over an array: LLVM does not always inline
            // `array::map` into this AVX2 function, and an outlined map
            // calls a closure per load and ran the kernel 5× slower.
            let [center, left, right, front, back, below, above, rhs, psi] = unsafe {
                [
                    _mm256_loadu_pd(c.as_ptr().add(i)),
                    _mm256_loadu_pd(l.as_ptr().add(i)),
                    _mm256_loadu_pd(r.as_ptr().add(i)),
                    _mm256_loadu_pd(f.as_ptr().add(i)),
                    _mm256_loadu_pd(b.as_ptr().add(i)),
                    _mm256_loadu_pd(lo.as_ptr().add(i)),
                    _mm256_loadu_pd(hi.as_ptr().add(i)),
                    _mm256_loadu_pd(rh.as_ptr().add(i)),
                    _mm256_loadu_pd(ps.as_ptr().add(i)),
                ]
            };
            let mut acc = _mm256_mul_pd(six, center);
            acc = _mm256_sub_pd(acc, left);
            acc = _mm256_sub_pd(acc, right);
            acc = _mm256_sub_pd(acc, front);
            acc = _mm256_sub_pd(acc, back);
            acc = _mm256_sub_pd(acc, below);
            acc = _mm256_sub_pd(acc, above);
            let step = _mm256_mul_pd(delta, _mm256_sub_pd(acc, rhs));
            let p = _mm256_max_pd(_mm256_sub_pd(center, step), psi);
            // SAFETY: `o` holds `len` values (asserted above) and
            // `i + 4 <= len`, so the store writes four in-bounds `f64`s.
            unsafe { _mm256_storeu_pd(o.as_mut_ptr().add(i), p) };
            let d = _mm256_and_pd(_mm256_sub_pd(p, center), magnitude);
            max = _mm256_max_pd(d, max);
        }
        // Fold the four lane maxima: none is NaN, so the order is free.
        let pair = _mm_max_pd(_mm256_castpd256_pd128(max), _mm256_extractf128_pd::<1>(max));
        _mm_cvtsd_f64(_mm_max_sd(pair, _mm_unpackhi_pd(pair, pair)))
    }
}

/// Sequentially emulate the *synchronous* distributed scheme with `alpha`
/// peers: every iteration, all peers sweep from the same iteration-`p` ghost
/// planes, then exchange boundaries. Produces exactly the same iterates as
/// [`crate::richardson::solve_sequential`]; used to validate the distributed
/// runtime and as a fast harness baseline.
pub fn solve_block_synchronous(
    problem: &ObstacleProblem,
    alpha: usize,
    config: RichardsonConfig,
) -> SolveResult {
    let decomp = BlockDecomposition::balanced(problem.grid.n, alpha);
    let delta = config.delta.unwrap_or_else(|| problem.optimal_delta());
    let mut nodes: Vec<NodeState> = (0..alpha)
        .map(|r| NodeState::new(problem, &decomp, r))
        .collect();
    let mut iterations = 0;
    let mut converged = false;
    let mut diff = f64::INFINITY;
    while iterations < config.max_iterations {
        diff = nodes
            .iter_mut()
            .map(|node| node.sweep(problem, delta))
            .fold(0.0f64, f64::max);
        iterations += 1;
        // Synchronous boundary exchange.
        for r in 0..alpha {
            if r > 0 {
                let plane = nodes[r - 1].last_plane();
                nodes[r].set_ghost_lo(&plane);
            }
            if r + 1 < alpha {
                let plane = nodes[r + 1].first_plane();
                nodes[r].set_ghost_hi(&plane);
            }
        }
        if diff <= config.tolerance {
            converged = true;
            break;
        }
    }
    let mut u = vec![0.0; problem.len()];
    for node in &nodes {
        node.copy_into_global(&mut u);
    }
    SolveResult {
        u,
        iterations,
        converged,
        final_diff: diff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::richardson::solve_sequential;

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn node_state_covers_decomposition() {
        let problem = ObstacleProblem::membrane(8);
        let decomp = BlockDecomposition::balanced(8, 3);
        let nodes: Vec<NodeState> = (0..3)
            .map(|r| NodeState::new(&problem, &decomp, r))
            .collect();
        let total: usize = nodes.iter().map(|s| s.local_len()).sum();
        assert_eq!(total, problem.len());
        assert_eq!(nodes[0].z_start(), 0);
        assert_eq!(nodes[2].z_end(), 8);
        assert_eq!(nodes[1].first_plane().len(), 64);
    }

    /// Seeding a peer's own slab is slicing the whole `P_K(0)`, bit for bit:
    /// owned planes, both ghosts and the sweep buffer.
    #[test]
    fn slab_seeded_state_is_the_sliced_initial_iterate() {
        use crate::richardson::initial_iterate;
        for problem in [ObstacleProblem::membrane(9), ObstacleProblem::financial(7)] {
            let full = initial_iterate(&problem);
            let n = problem.grid.n;
            for peers in [1, 2, 3, n] {
                let decomp = BlockDecomposition::balanced(n, peers);
                for r in 0..peers {
                    let seeded = NodeState::new(&problem, &decomp, r);
                    let sliced = NodeState::from_global(&problem, &decomp, r, &full, 0);
                    let state =
                        |s: &NodeState| [&s.u, &s.ghost_lo, &s.ghost_hi, &s.next].map(|v| bits(v));
                    assert_eq!(state(&seeded), state(&sliced), "{peers} peers, rank {r}");
                }
            }
        }
    }

    #[test]
    fn block_synchronous_matches_sequential_exactly() {
        let problem = ObstacleProblem::membrane(10);
        let config = RichardsonConfig {
            tolerance: 1e-6,
            ..Default::default()
        };
        let reference = solve_sequential(&problem, config);
        for alpha in [1usize, 2, 3, 5, 10] {
            let distributed = solve_block_synchronous(&problem, alpha, config);
            assert_eq!(
                distributed.iterations, reference.iterations,
                "synchronous relaxation count must not depend on the decomposition (alpha={alpha})"
            );
            assert_eq!(
                bits(&distributed.u),
                bits(&reference.u),
                "alpha={alpha}: distributed sync iterates diverged from sequential"
            );
            assert_eq!(
                distributed.final_diff.to_bits(),
                reference.final_diff.to_bits()
            );
        }
    }

    #[test]
    fn block_synchronous_matches_on_validation_problem_too() {
        let problem = ObstacleProblem::poisson_validation(8);
        let config = RichardsonConfig {
            tolerance: 1e-5,
            ..Default::default()
        };
        let a = solve_sequential(&problem, config);
        let b = solve_block_synchronous(&problem, 4, config);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn stale_ghosts_change_the_iterates_but_not_feasibility() {
        // An "asynchronous-like" emulation: never exchange ghosts. The result
        // differs from the reference but every iterate stays feasible.
        let problem = ObstacleProblem::membrane(6);
        let decomp = BlockDecomposition::balanced(6, 2);
        let mut node = NodeState::new(&problem, &decomp, 0);
        let delta = problem.optimal_delta();
        for _ in 0..50 {
            node.sweep(&problem, delta);
        }
        for (lz, value) in node.local_values().iter().enumerate() {
            let z = node.z_start() + lz / problem.grid.plane_len();
            let within = lz % problem.grid.plane_len();
            let i = within % problem.grid.n;
            let j = within / problem.grid.n;
            let gi = problem.grid.idx(i, j, z);
            assert!(*value >= problem.psi[gi] - 1e-12);
        }
        assert_eq!(node.relaxations(), 50);
    }

    #[test]
    #[should_panic(expected = "ghost plane size mismatch")]
    fn wrong_ghost_size_rejected() {
        let problem = ObstacleProblem::membrane(6);
        let decomp = BlockDecomposition::balanced(6, 2);
        let mut node = NodeState::new(&problem, &decomp, 1);
        node.set_ghost_lo(&[0.0; 3]);
    }

    /// Drive `sweeps` synchronous iterations with boundary exchange using the
    /// given kernel, returning the concatenated per-node values.
    fn drive(
        problem: &ObstacleProblem,
        alpha: usize,
        sweeps: usize,
        kernel: impl Fn(&mut NodeState, &ObstacleProblem, f64) -> f64,
    ) -> (Vec<f64>, Vec<f64>) {
        let decomp = BlockDecomposition::balanced(problem.grid.n, alpha);
        let delta = problem.optimal_delta();
        let mut nodes: Vec<NodeState> = (0..alpha)
            .map(|r| NodeState::new(problem, &decomp, r))
            .collect();
        let mut diffs = Vec::new();
        for _ in 0..sweeps {
            let diff = nodes
                .iter_mut()
                .map(|node| kernel(node, problem, delta))
                .fold(0.0f64, f64::max);
            diffs.push(diff);
            for r in 0..alpha {
                if r > 0 {
                    let plane = nodes[r - 1].last_plane();
                    nodes[r].set_ghost_lo(&plane);
                }
                if r + 1 < alpha {
                    let plane = nodes[r + 1].first_plane();
                    nodes[r].set_ghost_hi(&plane);
                }
            }
        }
        let mut u = vec![0.0; problem.len()];
        for node in &nodes {
            node.copy_into_global(&mut u);
        }
        (u, diffs)
    }

    /// Every row interior this host runs, each to be called directly: the
    /// portable one always, and AVX2 where the CPU has it.
    fn interiors() -> Vec<Interior> {
        let mut all = vec![Interior::Portable, Interior::detected()];
        all.dedup();
        all
    }

    /// The rule that never cuts a block.
    const WHOLE: Split = Split::Sized {
        min_points: usize::MAX,
        lead_points: 0,
    };

    /// `drive` on one interior and split rule.
    fn drive_on(
        problem: &ObstacleProblem,
        alpha: usize,
        sweeps: usize,
        interior: Interior,
        split: Split,
    ) -> (Vec<f64>, Vec<f64>) {
        drive(problem, alpha, sweeps, |node, problem, delta| {
            node.sweep_on(interior, split, problem, delta)
        })
    }

    /// The same iterates and successive differences, bit for bit.
    fn assert_same_bits(got: &(Vec<f64>, Vec<f64>), want: &(Vec<f64>, Vec<f64>), what: &str) {
        for (idx, (a, b)) in got.0.iter().zip(&want.0).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: iterate bit mismatch at {idx}"
            );
        }
        assert_eq!(
            bits(&got.1),
            bits(&want.1),
            "{what}: sup-norm diff mismatch"
        );
    }

    /// Each interior of the blocked kernel against the scalar oracle, with
    /// its blocks whole and cut in halves on every sweep (two planes or
    /// more): the same iterates and successive differences, bit for bit.
    fn assert_bit_identical(problem: &ObstacleProblem, alpha: usize, sweeps: usize) {
        let scalar = drive(problem, alpha, sweeps, NodeState::sweep_scalar);
        for interior in interiors() {
            for split in [WHOLE, Split::Every] {
                let blocked = drive_on(problem, alpha, sweeps, interior, split);
                let what = format!("{} {split:?}, alpha={alpha}", interior.name());
                assert_same_bits(&blocked, &scalar, &what);
            }
        }
    }

    /// Say in the test log which interior this host's sweeps run and how
    /// many helper threads a large sweep may split with: a host without
    /// AVX2 checks only the portable interior, and on a one-core host only
    /// the forced cuts of the tests ran the split.
    #[test]
    fn reports_the_dispatched_interior() {
        let names: Vec<_> = interiors().into_iter().map(Interior::name).collect();
        eprintln!(
            "obstacle kernel: sweeps run the {} interior with {} helper thread(s); \
             interiors tested here: {names:?}",
            kernel_interior(),
            join::helpers()
        );
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            kernel_interior() == "avx2",
            std::arch::is_x86_feature_detected!("avx2")
        );
        assert_eq!(kernel_interior(), *names.last().expect("portable"));
    }

    #[test]
    fn blocked_kernel_is_bit_identical_to_scalar() {
        for problem in [
            ObstacleProblem::membrane(10),
            ObstacleProblem::financial(9),
            ObstacleProblem::poisson_validation(8),
        ] {
            for alpha in [1usize, 2, 3, problem.grid.n] {
                assert_bit_identical(&problem, alpha, 25);
            }
        }
    }

    /// The split rule of the program: the benchmark's peer blocks and
    /// sequential grid are cut, the caller keeping the larger part, and
    /// `obstacle-lockstep`'s blocks never are.
    #[test]
    fn shipped_rule_cuts_large_blocks_only() {
        let cut = |planes: usize, n: usize| Split::SHIPPED.cut(planes, n * n);
        if !join::helpers_allowed() {
            assert_eq!(cut(28, 56), None, "no helper to cut for");
            return;
        }
        assert_eq!(cut(28, 56), Some(16), "obstacle-kernel peer block");
        assert_eq!(cut(56, 56), Some(30), "obstacle-kernel sequential grid");
        for planes in [4, 5] {
            assert_eq!(cut(planes, 36), None, "obstacle-lockstep block");
        }
    }

    /// Eight threads sweeping at once: most find no idle helper and run
    /// their cuts inline, some hand a part off, all give the scalar bits.
    #[test]
    fn concurrent_split_sweeps_keep_their_bits() {
        let problem = ObstacleProblem::financial(12);
        let scalar = drive(&problem, 2, 10, NodeState::sweep_scalar);
        std::thread::scope(|scope| {
            let runs: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| drive_on(&problem, 2, 10, Interior::detected(), Split::Every))
                })
                .collect();
            for run in runs {
                assert_same_bits(&run.join().expect("sweeping thread"), &scalar, "thread");
            }
        });
    }

    /// A thread that may not borrow a helper runs its sweeps whole, even a
    /// block the program's rule would cut.
    #[test]
    fn a_thread_that_may_not_borrow_never_hands_off() {
        std::thread::spawn(|| {
            join::allow_helpers(false);
            let problem = ObstacleProblem::membrane(44);
            let decomp = BlockDecomposition::balanced(44, 1);
            let mut node = NodeState::new(&problem, &decomp, 0);
            for _ in 0..3 {
                node.sweep(&problem, problem.optimal_delta());
            }
            assert_eq!(join::handoffs(), 0);
        })
        .join()
        .expect("the test thread");
    }

    #[test]
    fn blocked_kernel_handles_single_point_rows() {
        // n = 2 rows consist of the two peeled columns alone; n = 3..=11
        // add 1..=9 inner columns: every remainder of a 2- and a 4-point
        // chunk, alone and after one or two whole chunks.
        for n in 2usize..=11 {
            let problem = ObstacleProblem::membrane(n);
            assert_bit_identical(&problem, 1, 10);
        }
    }

    mod ghost_store_proptests {
        use super::*;
        use proptest::prelude::*;

        /// Values a plane can carry, the awkward ones included.
        fn plane_value(rng: &mut proptest::TestRng) -> f64 {
            match rng.below(8) {
                0 => [
                    0.0,
                    -0.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::NAN,
                    5e-324,
                ][rng.below(6) as usize],
                _ => (rng.unit_f64() - 0.5) * 1e6,
            }
        }

        proptest! {
            /// Storing a plane from its wire bytes is `set_ghost_*` of the
            /// decoded plane, bit for bit: the same ghost afterwards and the
            /// same sup-norm change, whatever the values; bytes of any other
            /// length are refused and leave the ghost alone.
            #[test]
            fn le_store_matches_set_ghost(n in 2usize..9, seed in any::<u64>()) {
                let mut rng = proptest::TestRng::new(seed);
                let problem = ObstacleProblem::membrane(n);
                let decomp = BlockDecomposition::balanced(n, 2);
                let mut fused = NodeState::new(&problem, &decomp, rng.below(2) as usize);
                let lower = fused.z_start() > 0;
                for slot in fused.ghost_lo.iter_mut().chain(&mut fused.ghost_hi) {
                    *slot = plane_value(&mut rng);
                }
                let mut oracle = fused.clone();
                let plane: Vec<f64> = (0..n * n).map(|_| plane_value(&mut rng)).collect();
                let bytes: Vec<u8> = plane.iter().flat_map(|v| v.to_le_bytes()).collect();

                for wrong in [bytes.len() - 8, bytes.len() - 1, bytes.len() + 8, 0] {
                    let mut resized = bytes.clone();
                    resized.resize(wrong, 0);
                    let refused = if lower {
                        fused.set_ghost_lo_le(&resized)
                    } else {
                        fused.set_ghost_hi_le(&resized)
                    };
                    prop_assert_eq!(refused, None);
                    prop_assert_eq!(bits(&fused.ghost_lo), bits(&oracle.ghost_lo));
                    prop_assert_eq!(bits(&fused.ghost_hi), bits(&oracle.ghost_hi));
                }

                let (got, expected) = if lower {
                    (fused.set_ghost_lo_le(&bytes), oracle.set_ghost_lo(&plane))
                } else {
                    (fused.set_ghost_hi_le(&bytes), oracle.set_ghost_hi(&plane))
                };
                prop_assert_eq!(got.map(f64::to_bits), Some(expected.to_bits()));
                prop_assert_eq!(bits(&fused.ghost_lo), bits(&oracle.ghost_lo));
                prop_assert_eq!(bits(&fused.ghost_hi), bits(&oracle.ghost_hi));
            }
        }
    }

    mod kernel_equivalence_proptests {
        use super::*;
        use crate::grid::Grid3;
        use crate::problem::NO_OBSTACLE;
        use crate::richardson::{initial_iterate, sweep};
        use proptest::prelude::*;

        /// A problem whose obstacle mixes random values with exact `0.0`,
        /// `-0.0` and [`NO_OBSTACLE`], and whose right-hand side is zero half
        /// the time, so that candidates land on signed-zero ties with the
        /// obstacle.
        fn awkward_problem(n: usize, seed: u64) -> ObstacleProblem {
            let mut rng = proptest::TestRng::new(seed);
            let grid = Grid3::new(n);
            let zero_rhs = rng.below(2) == 0;
            let rhs = (0..grid.len())
                .map(|_| {
                    if zero_rhs {
                        0.0
                    } else {
                        rng.unit_f64() * 2.0 - 1.0
                    }
                })
                .collect();
            let psi = (0..grid.len())
                .map(|_| match rng.below(6) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => NO_OBSTACLE,
                    _ => rng.unit_f64() - 0.5,
                })
                .collect();
            ObstacleProblem::new(grid, rhs, psi)
        }

        proptest! {
            /// Every interior of the lane-parallel kernel is bit-identical to
            /// the scalar kernel on random problems, decompositions and sweep
            /// counts. Rows of 2..20 points have 0..=17 inner columns: every
            /// remainder of a 2- and a 4-point chunk after up to four whole
            /// 4-point chunks.
            #[test]
            fn blocked_matches_scalar_on_random_problems(
                n in 2usize..20,
                alpha_seed in 1usize..16,
                sweeps in 1usize..12,
                seed in any::<u64>(),
            ) {
                let problem = awkward_problem(n, seed);
                let alpha = 1 + alpha_seed % n;
                assert_bit_identical(&problem, alpha, sweeps);
            }

            /// Every cut of every block, on every interior, is bit-identical
            /// to the scalar kernel and to the uncut kernel.
            #[test]
            fn every_cut_matches_the_uncut_kernel(
                n in 2usize..20,
                alpha_seed in 1usize..16,
                sweeps in 1usize..6,
                seed in any::<u64>(),
            ) {
                let problem = awkward_problem(n, seed);
                let alpha = 1 + alpha_seed % n;
                let planes = n.div_ceil(alpha);
                let scalar = drive(&problem, alpha, sweeps, NodeState::sweep_scalar);
                for interior in interiors() {
                    let whole = drive_on(&problem, alpha, sweeps, interior, WHOLE);
                    assert_same_bits(&whole, &scalar, interior.name());
                    for cut in 1..planes {
                        let cut_run = drive_on(&problem, alpha, sweeps, interior, Split::At(cut));
                        let what = format!("{} cut {cut}, alpha={alpha}", interior.name());
                        assert_same_bits(&cut_run, &whole, &what);
                    }
                }
            }

            /// The sequential sweep is the distributed kernel over the whole
            /// grid: at one peer both give the same iterate and the same
            /// successive difference, bit for bit, sweep after sweep.
            #[test]
            fn sequential_sweep_matches_single_peer_sweep(
                n in 2usize..14,
                sweeps in 1usize..12,
                seed in any::<u64>(),
            ) {
                let problem = awkward_problem(n, seed);
                let delta = problem.optimal_delta();
                let decomp = BlockDecomposition::balanced(n, 1);
                let mut node = NodeState::new(&problem, &decomp, 0);
                let mut u = initial_iterate(&problem);
                let mut next = vec![0.0; problem.len()];
                for _ in 0..sweeps {
                    let sequential = sweep(&problem, &u, &mut next, delta);
                    std::mem::swap(&mut u, &mut next);
                    let distributed = node.sweep(&problem, delta);
                    prop_assert_eq!(sequential.to_bits(), distributed.to_bits());
                    prop_assert_eq!(bits(&u), bits(node.local_values()));
                }
            }
        }
    }
}
