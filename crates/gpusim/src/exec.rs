//! The leaf-pair kernel executor: Algorithm 1 of the paper in software.
//!
//! A kernel is expressed in the separable form of Eq. (2):
//! per-particle *partials* `f_i(alpha_i, ...)` plus a per-pair *combine*
//! `phi_ij = f_i * g_j * h_ij`. The executor walks the leaf interaction
//! in fixed-width lane batches ("tiles") of `dev.half_warp()` particles —
//! the same tile geometry the warp-split cost model charges — and
//! evaluates every *unordered* pair exactly once, scattering the shared
//! pair term into both accumulators through
//! [`SplitKernel::interact_pair`]. This is the software mirror of the
//! paper's warp-splitting transformation: the pre-fix executor evaluated
//! each pair from both sides (2x the work the cost model credited).
//!
//! The cost model still distinguishes the two launch formulations:
//!
//! * **Naive** (gather) mode: one lane per i-particle; every lane loads
//!   each j-state from global memory and recomputes the j-partial, holding
//!   both full states in registers. Symmetric kernels need a second
//!   launch for the j-side.
//! * **WarpSplit** mode: half the warp holds i-particles, half holds
//!   j-particles; states are loaded once (coalesced), partials are
//!   computed once per lane and exchanged via register shuffles; both
//!   sides accumulate in one launch and flush with one leaf-level atomic
//!   per lane.
//!
//! Physics is identical in both modes *and* on every device: the tiled
//! traversal visits each accumulator's partners in globally ascending
//! index order for any tile width (see DESIGN.md, "Tiled symmetric
//! execution"), so results are bit-for-bit reproducible across modes and
//! modeled devices, and identical to the untiled one-sided oracle in
//! [`crate::reference`]. The same order argument lets [`sweep`], the one
//! walk of an interaction list every pipeline makes, hand the tiles
//! *compacted* leaves — only the lanes within reach of the partner leaf's
//! box, in slot order — without moving a bit (DESIGN.md, "Lane
//! compaction"), and sweep a pair that meets across a periodic seam
//! against its second leaf's moved image.

use crate::counters::{KernelCounters, PairFlops};
use crate::device::DeviceSpec;

/// Execution strategy for the interaction kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One-lane-per-i gather kernel (the pre-optimization baseline).
    Naive,
    /// The paper's warp-splitting kernel (Algorithm 1).
    WarpSplit,
}

/// A separable pairwise interaction kernel (Eq. 2 of the paper).
pub trait SplitKernel: Sync {
    /// Per-particle input state.
    type State: Copy + Send + Sync;
    /// The shared partial term (`f_i` / `g_j`) exchanged between lanes.
    type Partial: Copy + Send + Sync;
    /// Per-particle accumulator (`phi_i`).
    type Accum: Copy + Default + Send;

    /// Kernel name for profiles.
    fn name(&self) -> &'static str;

    /// f32 words per particle state (global-memory footprint).
    fn state_words(&self) -> u64;
    /// f32 words per partial (shuffle payload).
    fn partial_words(&self) -> u64;
    /// f32 words per accumulator (atomic flush payload).
    fn accum_words(&self) -> u64;

    /// Cost of one partial evaluation.
    fn partial_flops(&self) -> PairFlops;
    /// Cost of evaluating one *unordered* pair on the symmetric path —
    /// the shared geometry/kernel work plus **both** accumulator
    /// scatters. The warp-split model charges this once per useful pair;
    /// the naive gather model charges it per ordered side (a deliberate
    /// overcount: the gather kernel really does redo the shared work).
    fn pair_flops(&self) -> PairFlops;

    /// Compute the shared partial for one particle.
    fn partial(&self, s: &Self::State) -> Self::Partial;

    /// Accumulate the contribution of `j` onto `i`'s accumulator.
    ///
    /// This one-sided form is what the oracle in [`crate::reference`]
    /// calls (and the hook asymmetric kernels implement); the executor
    /// calls [`SplitKernel::interact_pair`] instead.
    fn interact(
        &self,
        si: &Self::State,
        pi: &Self::Partial,
        sj: &Self::State,
        pj: &Self::Partial,
        out: &mut Self::Accum,
    );

    /// Evaluate one unordered pair and scatter into *both* accumulators.
    ///
    /// The default forwards to two one-sided [`SplitKernel::interact`]
    /// calls (i-side first), so asymmetric or unported kernels keep their
    /// exact semantics. Symmetric kernels override this to compute the
    /// shared pair term (separation, kernel values, table lookups) once.
    /// Overrides must preserve the contract that each side's scatter is
    /// value-identical to the corresponding one-sided call — the
    /// tiled-vs-reference tests in this crate and in `hacc-grav` /
    /// `hacc-sph` pin that, bitwise, on generic inputs.
    #[inline]
    fn interact_pair(
        &self,
        si: &Self::State,
        pi: &Self::Partial,
        sj: &Self::State,
        pj: &Self::Partial,
        out_i: &mut Self::Accum,
        out_j: &mut Self::Accum,
    ) {
        self.interact(si, pi, sj, pj, out_i);
        self.interact(sj, pj, si, pi, out_j);
    }

    /// Position and interaction radius of one particle, for the lane
    /// compaction of [`sweep`]. The contract: with `r2 = dx*dx + dy*dy +
    /// dz*dz` from the componentwise position differences (the expression
    /// the pair bodies evaluate) and `cut = max(reach_i, reach_j)`,
    /// [`SplitKernel::interact_pair`] leaves both accumulators bitwise
    /// untouched whenever `r2 >= cut * cut * (1.0 + 1e-12)`. `None` — the
    /// default — makes no such promise, and the kernel is swept dense.
    #[inline]
    fn reach(&self, _s: &Self::State) -> Option<([f64; 3], f64)> {
        None
    }

    /// The state of the periodic image of a particle moved by `by`: its
    /// position plus `by`, component by component, and every other field
    /// as is. [`sweep`] calls it on the second leaf of a pair
    /// that meets across a periodic seam; a kernel whose lists never hold
    /// such a pair needs no override, and the default refuses.
    fn translated(&self, _s: &Self::State, _by: [f64; 3]) -> Self::State {
        // e1: allow: a wrapped list swept with a kernel that cannot move its states is a programming error, not a fault the supervisor could recover from
        panic!("kernel {} cannot sweep a periodic leaf pair", self.name())
    }
}

/// Scratch registers every kernel needs (loop counters, addresses...).
const SCRATCH_REGS: u64 = 8;

/// Per-lane register usage of the two formulations. Warp splitting holds
/// one state + two partials + the partner's position-sized slice; the
/// naive kernel holds both full states and both partials.
pub fn register_usage<K: SplitKernel>(k: &K, mode: ExecMode) -> u64 {
    match mode {
        ExecMode::Naive => 2 * k.state_words() + 2 * k.partial_words() + k.accum_words() + SCRATCH_REGS,
        ExecMode::WarpSplit => {
            k.state_words() + 2 * k.partial_words() + k.accum_words() + SCRATCH_REGS
        }
    }
}

/// Execute the interactions between two *distinct* leaves, updating both
/// sides. Each unordered `(i, j)` cross pair is evaluated exactly once,
/// in half-warp-wide tile batches, and scattered into both accumulators;
/// `counters.pairs` therefore equals the number of pair-term evaluations
/// performed. Physics is mode- and device-independent; counters model the
/// chosen formulation on `dev`.
pub fn execute_leaf_pair<K: SplitKernel>(
    kernel: &K,
    dev: &DeviceSpec,
    mode: ExecMode,
    states_i: &[K::State],
    states_j: &[K::State],
    accum_i: &mut [K::Accum],
    accum_j: &mut [K::Accum],
    counters: &mut KernelCounters,
) {
    assert_eq!(states_i.len(), accum_i.len());
    assert_eq!(states_j.len(), accum_j.len());
    if states_i.is_empty() || states_j.is_empty() {
        return;
    }
    // --- physics: symmetric tiled traversal ---
    // Leaves arrive as contiguous slices (the pipelines gather them from
    // the stores' SoA columns in chaining-mesh slot order); the tile loop
    // walks them in `half_warp`-wide lane batches so the evaluation
    // structure matches the cost model's tile geometry. Tiles and lanes
    // advance in ascending order, which keeps every accumulator's partner
    // sequence identical to the untiled reference for any tile width.
    let partials_i: Vec<K::Partial> = states_i.iter().map(|s| kernel.partial(s)).collect();
    let partials_j: Vec<K::Partial> = states_j.iter().map(|s| kernel.partial(s)).collect();
    let (ni, nj) = (states_i.len(), states_j.len());
    let hw = (dev.half_warp() as usize).max(1);
    let pairs_before = counters.pairs;
    let mut evals: u64 = 0;
    for ti in (0..ni).step_by(hw) {
        let ie = (ti + hw).min(ni);
        for tj in (0..nj).step_by(hw) {
            let je = (tj + hw).min(nj);
            let (sj_tile, pj_tile) = (&states_j[tj..je], &partials_j[tj..je]);
            for i in ti..ie {
                let (si, pi) = (&states_i[i], &partials_i[i]);
                let out_i = &mut accum_i[i];
                // Zipped subslices keep the inner loop free of per-lane
                // bounds checks (the tile is the GPU's register window).
                let aj_tile = &mut accum_j[tj..je];
                for ((sj, pj), out_j) in sj_tile.iter().zip(pj_tile).zip(aj_tile) {
                    kernel.interact_pair(si, pi, sj, pj, out_i, out_j);
                    if cfg!(debug_assertions) {
                        evals += 1;
                    }
                }
            }
        }
    }
    // --- cost model ---
    count_pair(kernel, dev, mode, ni, nj, false, counters);
    debug_assert_eq!(
        counters.pairs - pairs_before,
        evals,
        "cost model must credit exactly the pair evaluations performed"
    );
}

/// Execute the self-interactions of a single leaf. Each unordered pair
/// `i < j` is evaluated exactly once (the strict upper triangle, walked
/// in half-warp tiles with triangular diagonal tiles) and scattered into
/// both accumulators, so `counters.pairs == n(n-1)/2` equals the
/// evaluations performed.
pub fn execute_leaf_self<K: SplitKernel>(
    kernel: &K,
    dev: &DeviceSpec,
    mode: ExecMode,
    states: &[K::State],
    accum: &mut [K::Accum],
    counters: &mut KernelCounters,
) {
    assert_eq!(states.len(), accum.len());
    let n = states.len();
    if n < 2 {
        return;
    }
    let partials: Vec<K::Partial> = states.iter().map(|s| kernel.partial(s)).collect();
    let hw = (dev.half_warp() as usize).max(1);
    let pairs_before = counters.pairs;
    let mut evals: u64 = 0;
    for ti in (0..n).step_by(hw) {
        let ie = (ti + hw).min(n);
        // Mirrored tile pairs are skipped; the diagonal tile is triangular.
        for tj in (ti..n).step_by(hw) {
            let je = (tj + hw).min(n);
            for i in ti..ie {
                let j0 = tj.max(i + 1);
                if j0 >= je {
                    continue;
                }
                // Split so `accum[i]` and `accum[j > i]` can be borrowed
                // together (the GPU analogue holds both in registers).
                let (left, right) = accum.split_at_mut(i + 1);
                let out_i = &mut left[i];
                let (si, pi) = (&states[i], &partials[i]);
                let (sj_tile, pj_tile) = (&states[j0..je], &partials[j0..je]);
                let aj_tile = &mut right[(j0 - i - 1)..(je - i - 1)];
                for ((sj, pj), out_j) in sj_tile.iter().zip(pj_tile).zip(aj_tile) {
                    kernel.interact_pair(si, pi, sj, pj, out_i, out_j);
                    if cfg!(debug_assertions) {
                        evals += 1;
                    }
                }
            }
        }
    }
    count_pair(kernel, dev, mode, n, n, true, counters);
    debug_assert_eq!(
        counters.pairs - pairs_before,
        evals,
        "cost model must credit exactly the pair evaluations performed"
    );
}

/// What the lane compaction reads of one particle: position and reach
/// ([`SplitKernel::reach`]), four words per slot in one per-sweep array.
type Lane = ([f64; 3], f64);

/// f32 words of one [`Lane`] (the cull pass's global-memory read).
const LANE_WORDS: u64 = 4;

/// Cost of one lane-against-box test, audited against
/// [`LeafBox::may_reach`]: two subtractions per axis (6 add), the squared
/// distance (1 mul + 2 fma), the bound `cut * cut * (1 + eps)` (2 mul).
const CULL_TEST: PairFlops = PairFlops {
    adds: 6,
    muls: 3,
    fmas: 2,
    trans: 0,
};

/// Tight bounding box and largest reach of one leaf's lanes.
#[derive(Debug, Clone, Copy)]
struct LeafBox {
    lo: [f64; 3],
    hi: [f64; 3],
    reach: f64,
}

impl LeafBox {
    /// An empty leaf gives an inverted box, infinitely far from any lane.
    fn of(lanes: &[Lane]) -> Self {
        let mut b = LeafBox {
            lo: [f64::INFINITY; 3],
            hi: [f64::NEG_INFINITY; 3],
            reach: 0.0,
        };
        for (p, reach) in lanes {
            for d in 0..3 {
                b.lo[d] = b.lo[d].min(p[d]);
                b.hi[d] = b.hi[d].max(p[d]);
            }
            b.reach = b.reach.max(*reach);
        }
        b
    }

    /// The box of the leaf's image moved by `by`. Adding a constant is
    /// monotone under rounding, so this is bitwise the box of the moved
    /// lanes.
    fn shifted(&self, by: [f64; 3]) -> Self {
        LeafBox {
            lo: [0, 1, 2].map(|d| self.lo[d] + by[d]),
            hi: [0, 1, 2].map(|d| self.hi[d] + by[d]),
            reach: self.reach,
        }
    }

    /// False only when the lane is out of reach of every particle of the
    /// leaf: the kernels' own `r2 >= cut * cut * (1 + 1e-12)` rejection
    /// ([`SplitKernel::reach`]) with the box distance for `r2` and the
    /// leaf's largest reach for the partner's.
    ///
    /// Exact, not approximately so. A partner coordinate lies inside
    /// `[lo, hi]`, so each per-axis box distance is the same correctly
    /// rounded subtraction with an operand no nearer — at most the
    /// magnitude of the pair body's own difference — and squares, sums
    /// and `cut * cut * (1 + 1e-12)`, evaluated here in the pair bodies'
    /// order, are monotone under rounding: `d2 <= r2` and `bound >=` the
    /// pair's own bound as computed floats, for every partner in the box.
    #[inline]
    fn may_reach(&self, (p, reach): &Lane) -> bool {
        let d = |k: usize| (self.lo[k] - p[k]).max(p[k] - self.hi[k]).max(0.0);
        let (dx, dy, dz) = (d(0), d(1), d(2));
        let cut = reach.max(self.reach);
        dx * dx + dy * dy + dz * dz < cut * cut * (1.0 + 1e-12)
    }
}

/// Copy the kept slots' states, moved by `by` when given, and their
/// accumulators into compact scratch.
fn gather<K: SplitKernel>(
    kernel: &K,
    keep: impl Iterator<Item = usize> + Clone,
    by: Option<[f64; 3]>,
    states: &[K::State],
    accums: &[K::Accum],
    compact_states: &mut Vec<K::State>,
    compact_accums: &mut Vec<K::Accum>,
) {
    compact_states.clear();
    match by {
        Some(by) => compact_states.extend(keep.clone().map(|i| kernel.translated(&states[i], by))),
        None => compact_states.extend(keep.clone().map(|i| states[i])),
    }
    compact_accums.clear();
    compact_accums.extend(keep.map(|i| accums[i]));
}

/// One kernel launch over a leaf interaction list: the single walk every
/// short-range pipeline shares. `states` / `accums` are in tree (slot)
/// order, `leaf_range` maps a leaf id to its contiguous slot range, and
/// every pair `(a, b)` has `a == b` (self) or `a`'s range entirely below
/// `b`'s, which is what lets the two accumulator slices be borrowed
/// together.
///
/// `image(a, b)` is the periodic image under which the cross pair meets:
/// `Some(by)` sweeps `a` against `b`'s lanes moved by `by`
/// ([`SplitKernel::translated`], the chaining mesh's `image_shift`),
/// `None` against `b` as it lies; a list with no periodic pairs passes
/// `|_, _| None`. A moved side always goes through the
/// gathered scratch below; `b`'s accumulators are written back in place.
///
/// A tiled sweep of a kernel that states its [`SplitKernel::reach`]
/// compacts every cross pair first: the lanes of each leaf that
/// `LeafBox::may_reach` the partner leaf's box are kept, in slot order,
/// and [`execute_leaf_pair`] runs on the survivors — in place when nobody
/// was removed, through gathered scratch otherwise, not at all when a
/// side is empty. A pair whose leaves both fit one half-warp tile is left
/// alone: it launches one tile either way, so compaction has no tile to
/// save it and its scan and gather would only cost (64 ranks of
/// 8-particle leaves measured +3.6% on the whole step before this rule).
/// Every removed pair is one `interact_pair` would have
/// left both accumulators untouched on, and each accumulator still meets
/// its partners in ascending slot order, so the accumulators are bitwise
/// those of the dense sweep; `counters.pairs` counts the pairs evaluated,
/// `counters.culled_pairs` the ones removed, and the cull pass is charged
/// one four-word lane read and one box test per lane offered.
/// [`crate::reference::sweep`] walks the same list through the one-sided
/// oracle, dense, with this signature.
pub fn sweep<K: SplitKernel>(
    kernel: &K,
    dev: &DeviceSpec,
    mode: ExecMode,
    leaf_range: impl Fn(u32) -> std::ops::Range<usize>,
    image: impl Fn(u32, u32) -> Option<[f64; 3]>,
    pairs: &[(u32, u32)],
    states: &[K::State],
    accums: &mut [K::Accum],
    counters: &mut KernelCounters,
) {
    let lanes: Option<Vec<Lane>> = states.iter().map(|s| kernel.reach(s)).collect();
    // One box per leaf, built when a cross pair first names the leaf, and
    // scratch for the widest leaf the list names.
    let (mut n_leaves, mut widest) = (0, 0);
    for &(a, b) in pairs {
        n_leaves = n_leaves.max(a.max(b) as usize + 1);
        widest = widest.max(leaf_range(a).len()).max(leaf_range(b).len());
    }
    let mut boxes: Vec<Option<LeafBox>> = vec![None; if lanes.is_some() { n_leaves } else { 0 }];
    let (mut keep_a, mut keep_b) = (Vec::with_capacity(widest), Vec::with_capacity(widest));
    let (mut states_a, mut states_b) =
        (Vec::<K::State>::with_capacity(widest), Vec::<K::State>::with_capacity(widest));
    let (mut accums_a, mut accums_b) =
        (Vec::<K::Accum>::with_capacity(widest), Vec::<K::Accum>::with_capacity(widest));
    let tile = (dev.half_warp() as usize).max(1);
    // p1: hot-loop
    for &(a, b) in pairs {
        let ra = leaf_range(a);
        if a == b {
            let (s, acc) = (&states[ra.clone()], &mut accums[ra]);
            execute_leaf_self(kernel, dev, mode, s, acc, counters);
            continue;
        }
        let rb = leaf_range(b);
        debug_assert!(ra.end <= rb.start, "leaf ranges must be ordered");
        let by = image(a, b);
        if let Some(lanes) = lanes.as_ref().filter(|_| ra.len().max(rb.len()) > tile) {
            let box_a = *boxes[a as usize].get_or_insert_with(|| LeafBox::of(&lanes[ra.clone()]));
            let box_b = *boxes[b as usize].get_or_insert_with(|| LeafBox::of(&lanes[rb.clone()]));
            // `b`'s box and lanes where the pair meets them.
            let box_b = by.map_or(box_b, |by| box_b.shifted(by));
            let lane_b = |j: usize| -> Lane {
                let (p, reach) = lanes[j];
                (by.map_or(p, |by| [0, 1, 2].map(|d| p[d] + by[d])), reach)
            };
            keep_a.clear();
            keep_a.extend(ra.clone().filter(|&i| box_b.may_reach(&lanes[i])));
            keep_b.clear();
            keep_b.extend(rb.clone().filter(|&j| box_a.may_reach(&lane_b(j))));
            let offered = (ra.len() + rb.len()) as u64;
            counters.global_reads += LANE_WORDS * offered;
            counters.flops += CULL_TEST.total() * offered;
            counters.culled_pairs += (ra.len() * rb.len() - keep_a.len() * keep_b.len()) as u64;
            if keep_a.is_empty() || keep_b.is_empty() {
                continue;
            }
            if keep_a.len() < ra.len() || keep_b.len() < rb.len() {
                let (ka, kb) = (keep_a.iter().copied(), keep_b.iter().copied());
                gather(kernel, ka, None, states, accums, &mut states_a, &mut accums_a);
                gather(kernel, kb, by, states, accums, &mut states_b, &mut accums_b);
                execute_leaf_pair(
                    kernel, dev, mode, &states_a, &states_b, &mut accums_a, &mut accums_b, counters,
                );
                for (&i, acc) in keep_a.iter().zip(&accums_a) {
                    accums[i] = *acc;
                }
                for (&j, acc) in keep_b.iter().zip(&accums_b) {
                    accums[j] = *acc;
                }
                continue;
            }
        }
        // Dense: `a` in place; `b` in place too, or moved through scratch.
        if by.is_some() {
            gather(kernel, rb.clone(), by, states, accums, &mut states_b, &mut accums_b);
        }
        let (left, right) = accums.split_at_mut(rb.start);
        let si = &states[ra.clone()];
        let (sj, aj) = match by {
            Some(_) => (&states_b[..], &mut accums_b[..]),
            None => (&states[rb.clone()], &mut right[..rb.len()]),
        };
        let ai = &mut left[ra];
        execute_leaf_pair(kernel, dev, mode, si, sj, ai, aj, counters);
        if by.is_some() {
            right[..rb.len()].copy_from_slice(&accums_b);
        }
    }
}

/// Model the launch cost of an `ni x nj` leaf-pair interaction.
pub(crate) fn count_pair<K: SplitKernel>(
    kernel: &K,
    dev: &DeviceSpec,
    mode: ExecMode,
    ni: usize,
    nj: usize,
    self_pair: bool,
    counters: &mut KernelCounters,
) {
    let (ni, nj) = (ni as u64, nj as u64);
    let state_w = kernel.state_words();
    let partial_w = kernel.partial_words();
    let accum_w = kernel.accum_words();
    let pf = kernel.partial_flops();
    let cf = kernel.pair_flops();
    // Unordered unique pairs evaluated once (symmetric kernels share the
    // pair term between both lanes).
    let useful_pairs = if self_pair { ni * (ni - 1) / 2 } else { ni * nj };
    counters.pairs += useful_pairs;
    counters.max_registers = counters.max_registers.max(register_usage(kernel, mode));

    match mode {
        ExecMode::WarpSplit => {
            let hw = dev.half_warp() as u64;
            let tiles_i = ni.div_ceil(hw);
            let tiles_j = nj.div_ceil(hw);
            let mut issued_pairs = 0u64;
            for ti in 0..tiles_i {
                let li = (ni - ti * hw).min(hw);
                // A self-leaf launch skips mirrored tile pairs.
                let tj0 = if self_pair { ti } else { 0 };
                for tj in tj0..tiles_j {
                    let lj = (nj - tj * hw).min(hw);
                    counters.warps += 1;
                    // Two coalesced state loads.
                    counters.global_reads += (li + lj) * state_w;
                    // Partials once per lane.
                    counters.flops += pf.total() * (li + lj);
                    // hw shuffle rounds exchanging position+partial words.
                    counters.shuffles +=
                        hw * (li + lj) * (partial_w + 3);
                    // Issue slots: full half-warp x half-warp tile.
                    issued_pairs += hw * hw;
                    // Leaf-level atomic flush.
                    counters.atomics += li + lj;
                    counters.global_writes += (li + lj) * accum_w;
                }
            }
            counters.flops += cf.total() * useful_pairs;
            counters.masked_lane_flops +=
                cf.total() * issued_pairs.saturating_sub(useful_pairs);
        }
        ExecMode::Naive => {
            // Gather formulation: launch for the i side, and (symmetric
            // kernels) a second launch for the j side.
            let w = dev.warp_width as u64;
            let mut side = |na: u64, nb: u64| {
                let tiles = na.div_ceil(w);
                for t in 0..tiles {
                    let lanes = (na - t * w).min(w);
                    counters.warps += 1;
                    // i-state loads once, j-state loads per iteration per
                    // lane (uncoalesced gather).
                    counters.global_reads += lanes * state_w;
                    counters.global_reads += lanes * nb * state_w;
                    // Own partial once; partner partial recomputed per pair.
                    counters.flops += pf.total() * lanes;
                    counters.flops += pf.total() * lanes * nb;
                    // Pair combine per (lane, j).
                    let pairs_here = lanes * nb;
                    counters.flops += cf.total() * pairs_here;
                    counters.masked_lane_flops += cf.total() * (w - lanes) * nb;
                    counters.global_writes += lanes * accum_w;
                }
            };
            side(ni, nj);
            if !self_pair {
                side(nj, ni);
            }
        }
    }
}

/// Run a kernel launch with retry-on-failure semantics.
///
/// `launch` produces a result plus the counters the attempt accrued;
/// `failed(attempt)` reports whether that attempt is to be treated as a
/// failed launch (the fault plane decides — this crate stays ignorant of
/// plans and probes). A failed attempt's result *and counters* are
/// discarded — the relaunch recomputes from the same inputs, so results
/// are bit-identical to a clean launch — while `counters.relaunches`
/// records the wasted attempt. Panics after `max_attempts` consecutive
/// failures (a hard-down device is not survivable in-place; the
/// supervisor's rollback path owns that case).
pub fn execute_with_relaunch<R>(
    max_attempts: u32,
    counters: &mut KernelCounters,
    mut failed: impl FnMut(u32) -> bool,
    mut launch: impl FnMut() -> (R, KernelCounters),
) -> R {
    assert!(max_attempts > 0);
    for attempt in 0..max_attempts {
        let (result, attempt_counters) = launch();
        if failed(attempt) {
            // The launch died: its work never landed. Count only the
            // fact of the relaunch.
            counters.relaunches += 1;
            continue;
        }
        counters.merge(&attempt_counters);
        return result;
    }
    // e1: allow: fatal by design once the relaunch budget is spent; the fault supervisor catches this and rolls back
    panic!("kernel launch failed {max_attempts} consecutive attempts");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, execute_leaf_pair_reference, execute_leaf_self_reference};
    use std::ops::Range;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A gravity-flavored test kernel: phi_i += m_j / (|r_i - r_j|^2 + eps).
    struct TestKernel;

    #[derive(Clone, Copy)]
    struct State {
        pos: [f32; 3],
        mass: f32,
    }

    impl SplitKernel for TestKernel {
        type State = State;
        type Partial = f32; // "g_j" = mass scaled by a constant
        type Accum = f64;

        fn name(&self) -> &'static str {
            "test-gravity"
        }
        fn state_words(&self) -> u64 {
            4
        }
        fn partial_words(&self) -> u64 {
            1
        }
        fn accum_words(&self) -> u64 {
            1
        }
        fn partial_flops(&self) -> PairFlops {
            PairFlops {
                muls: 1,
                ..Default::default()
            }
        }
        fn pair_flops(&self) -> PairFlops {
            PairFlops {
                adds: 3,
                fmas: 3,
                muls: 1,
                trans: 0,
            }
        }
        fn partial(&self, s: &State) -> f32 {
            2.0 * s.mass
        }
        fn interact(&self, si: &State, _pi: &f32, sj: &State, pj: &f32, out: &mut f64) {
            let dx = si.pos[0] - sj.pos[0];
            let dy = si.pos[1] - sj.pos[1];
            let dz = si.pos[2] - sj.pos[2];
            let r2 = dx * dx + dy * dy + dz * dz + 1e-3;
            *out += (*pj / r2) as f64;
        }
        // Symmetric path: the squared separation is shared between the
        // two scatters ((-x)*(-x) == x*x bitwise, so each side matches
        // its one-sided reference call exactly).
        fn interact_pair(
            &self,
            si: &State,
            pi: &f32,
            sj: &State,
            pj: &f32,
            out_i: &mut f64,
            out_j: &mut f64,
        ) {
            let dx = si.pos[0] - sj.pos[0];
            let dy = si.pos[1] - sj.pos[1];
            let dz = si.pos[2] - sj.pos[2];
            let r2 = dx * dx + dy * dy + dz * dz + 1e-3;
            *out_i += (*pj / r2) as f64;
            *out_j += (*pi / r2) as f64;
        }
    }

    fn make_states(n: usize, offset: f32) -> Vec<State> {
        (0..n)
            .map(|i| State {
                pos: [i as f32 * 0.1 + offset, offset, 0.0],
                mass: 1.0 + i as f32 * 0.01,
            })
            .collect()
    }

    fn run(mode: ExecMode, ni: usize, nj: usize) -> (Vec<f64>, Vec<f64>, KernelCounters) {
        let dev = DeviceSpec::mi250x_gcd();
        let si = make_states(ni, 0.0);
        let sj = make_states(nj, 5.0);
        let mut ai = vec![0.0; ni];
        let mut aj = vec![0.0; nj];
        let mut c = KernelCounters::default();
        execute_leaf_pair(&TestKernel, &dev, mode, &si, &sj, &mut ai, &mut aj, &mut c);
        (ai, aj, c)
    }

    #[test]
    fn modes_produce_identical_physics() {
        let (ai_n, aj_n, _) = run(ExecMode::Naive, 100, 73);
        let (ai_s, aj_s, _) = run(ExecMode::WarpSplit, 100, 73);
        assert_eq!(ai_n, ai_s);
        assert_eq!(aj_n, aj_s);
    }

    #[test]
    fn devices_produce_identical_physics() {
        // The tiled traversal preserves per-accumulator partner order for
        // any tile width, so AMD (half-warp 32) and Nvidia (16) tilings
        // must agree bitwise.
        let run_dev = |dev: DeviceSpec| {
            let si = make_states(100, 0.0);
            let sj = make_states(73, 5.0);
            let mut ai = vec![0.0; 100];
            let mut aj = vec![0.0; 73];
            let mut c = KernelCounters::default();
            execute_leaf_pair(&TestKernel, &dev, ExecMode::WarpSplit, &si, &sj, &mut ai, &mut aj, &mut c);
            let mut a_self = vec![0.0; 100];
            execute_leaf_self(&TestKernel, &dev, ExecMode::WarpSplit, &si, &mut a_self, &mut c);
            (ai, aj, a_self)
        };
        let amd = run_dev(DeviceSpec::mi250x_gcd());
        let nvd = run_dev(DeviceSpec::h100());
        assert_eq!(amd, nvd);
    }

    #[test]
    fn tiled_matches_reference_at_tile_boundaries() {
        // Ragged tails around the lane width: 1, hw-1, hw, hw+1, 2hw+3.
        for dev in [DeviceSpec::mi250x_gcd(), DeviceSpec::h100()] {
            let hw = dev.half_warp() as usize;
            let sizes = [1, hw - 1, hw, hw + 1, 2 * hw + 3];
            for &ni in &sizes {
                for &nj in &sizes {
                    let si = make_states(ni, 0.0);
                    let sj = make_states(nj, 5.0);
                    let mut ai = vec![0.0; ni];
                    let mut aj = vec![0.0; nj];
                    let mut ai_ref = vec![0.0; ni];
                    let mut aj_ref = vec![0.0; nj];
                    let mut c = KernelCounters::default();
                    let mut c_ref = KernelCounters::default();
                    execute_leaf_pair(
                        &TestKernel, &dev, ExecMode::WarpSplit, &si, &sj, &mut ai, &mut aj, &mut c,
                    );
                    execute_leaf_pair_reference(
                        &TestKernel, &dev, ExecMode::WarpSplit, &si, &sj, &mut ai_ref, &mut aj_ref,
                        &mut c_ref,
                    );
                    assert_eq!(ai, ai_ref, "cross i-side ni={ni} nj={nj}");
                    assert_eq!(aj, aj_ref, "cross j-side ni={ni} nj={nj}");
                    assert_eq!(c.pairs, c_ref.pairs);
                }
                let s = make_states(ni, 0.0);
                let mut a = vec![0.0; ni];
                let mut a_ref = vec![0.0; ni];
                let mut c = KernelCounters::default();
                let mut c_ref = KernelCounters::default();
                execute_leaf_self(&TestKernel, &dev, ExecMode::WarpSplit, &s, &mut a, &mut c);
                execute_leaf_self_reference(
                    &TestKernel, &dev, ExecMode::WarpSplit, &s, &mut a_ref, &mut c_ref,
                );
                assert_eq!(a, a_ref, "self n={ni}");
                assert_eq!(c.pairs, c_ref.pairs);
            }
        }
    }

    /// Kernel wrapper that counts actual pair-term evaluations, pinning
    /// the `counters.pairs == evaluations` contract (Issue 6 satellite).
    struct CountingKernel<'a> {
        evals: &'a AtomicU64,
    }

    impl SplitKernel for CountingKernel<'_> {
        type State = State;
        type Partial = f32;
        type Accum = f64;

        fn name(&self) -> &'static str {
            "counting"
        }
        fn state_words(&self) -> u64 {
            4
        }
        fn partial_words(&self) -> u64 {
            1
        }
        fn accum_words(&self) -> u64 {
            1
        }
        fn partial_flops(&self) -> PairFlops {
            PairFlops::default()
        }
        fn pair_flops(&self) -> PairFlops {
            PairFlops::default()
        }
        fn partial(&self, s: &State) -> f32 {
            s.mass
        }
        fn interact(&self, _: &State, _: &f32, _: &State, pj: &f32, out: &mut f64) {
            *out += *pj as f64;
        }
        fn interact_pair(
            &self,
            si: &State,
            pi: &f32,
            sj: &State,
            pj: &f32,
            out_i: &mut f64,
            out_j: &mut f64,
        ) {
            self.evals.fetch_add(1, Ordering::Relaxed);
            self.interact(si, pi, sj, pj, out_i);
            self.interact(sj, pj, si, pi, out_j);
        }
    }

    #[test]
    fn counted_pairs_equal_actual_evaluations() {
        let evals = AtomicU64::new(0);
        let k = CountingKernel { evals: &evals };
        for dev in [DeviceSpec::mi250x_gcd(), DeviceSpec::h100()] {
            for (ni, nj) in [(1, 1), (7, 50), (64, 64), (65, 33), (128, 1)] {
                let si = make_states(ni, 0.0);
                let sj = make_states(nj, 5.0);
                let mut ai = vec![0.0; ni];
                let mut aj = vec![0.0; nj];
                let mut c = KernelCounters::default();
                evals.store(0, Ordering::Relaxed);
                execute_leaf_pair(&k, &dev, ExecMode::WarpSplit, &si, &sj, &mut ai, &mut aj, &mut c);
                assert_eq!(c.pairs, evals.load(Ordering::Relaxed), "cross {ni}x{nj}");
            }
            for n in [2, 31, 32, 33, 50, 67, 128] {
                let s = make_states(n, 0.0);
                let mut a = vec![0.0; n];
                let mut c = KernelCounters::default();
                evals.store(0, Ordering::Relaxed);
                execute_leaf_self(&k, &dev, ExecMode::WarpSplit, &s, &mut a, &mut c);
                assert_eq!(c.pairs, (n * (n - 1) / 2) as u64);
                assert_eq!(c.pairs, evals.load(Ordering::Relaxed), "self {n}");
            }
        }
    }

    #[test]
    fn split_reduces_registers() {
        let n = register_usage(&TestKernel, ExecMode::Naive);
        let s = register_usage(&TestKernel, ExecMode::WarpSplit);
        assert!(s < n, "split {s} !< naive {n}");
    }

    #[test]
    fn split_reduces_global_traffic() {
        let (_, _, cn) = run(ExecMode::Naive, 128, 128);
        let (_, _, cs) = run(ExecMode::WarpSplit, 128, 128);
        assert!(
            cs.global_bytes() < cn.global_bytes() / 10,
            "split {} vs naive {}",
            cs.global_bytes(),
            cn.global_bytes()
        );
    }

    #[test]
    fn split_uses_shuffles_naive_does_not() {
        let (_, _, cn) = run(ExecMode::Naive, 64, 64);
        let (_, _, cs) = run(ExecMode::WarpSplit, 64, 64);
        assert_eq!(cn.shuffles, 0);
        assert!(cs.shuffles > 0);
    }

    #[test]
    fn split_counts_fewer_flops_for_symmetric_kernels() {
        // Naive gather evaluates each pair from both sides and recomputes
        // partner partials; split shares them.
        let (_, _, cn) = run(ExecMode::Naive, 128, 128);
        let (_, _, cs) = run(ExecMode::WarpSplit, 128, 128);
        assert!(cs.flops < cn.flops);
    }

    #[test]
    fn full_tiles_have_no_masked_pair_flops() {
        // ni, nj multiples of the half warp (32 on AMD): no masking.
        let (_, _, cs) = run(ExecMode::WarpSplit, 64, 96);
        assert_eq!(cs.masked_lane_flops, 0);
        // Ragged tiles waste issue slots.
        let (_, _, cr) = run(ExecMode::WarpSplit, 65, 96);
        assert!(cr.masked_lane_flops > 0);
    }

    #[test]
    fn self_pair_counts_unordered_pairs() {
        let dev = DeviceSpec::h100();
        let s = make_states(50, 0.0);
        let mut a = vec![0.0; 50];
        let mut c = KernelCounters::default();
        execute_leaf_self(&TestKernel, &dev, ExecMode::WarpSplit, &s, &mut a, &mut c);
        assert_eq!(c.pairs, 50 * 49 / 2);
    }

    #[test]
    fn self_pair_physics_excludes_diagonal() {
        let dev = DeviceSpec::h100();
        let s = make_states(10, 0.0);
        let mut a = vec![0.0; 10];
        let mut c = KernelCounters::default();
        execute_leaf_self(&TestKernel, &dev, ExecMode::Naive, &s, &mut a, &mut c);
        // Each particle got exactly 9 contributions; all finite and
        // bounded (no self-interaction 1/eps blowup of ~2000).
        for &v in &a {
            assert!(v.is_finite() && v < 1000.0, "{v}");
        }
    }

    #[test]
    fn empty_leaves_are_noops() {
        let dev = DeviceSpec::pvc_tile();
        let s = make_states(5, 0.0);
        let e: Vec<State> = Vec::new();
        let mut a = vec![0.0; 5];
        let mut ae: Vec<f64> = Vec::new();
        let mut c = KernelCounters::default();
        execute_leaf_pair(&TestKernel, &dev, ExecMode::WarpSplit, &s, &e, &mut a, &mut ae, &mut c);
        assert_eq!(c.pairs, 0);
        assert!(a.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn relaunch_discards_failed_attempt_and_matches_clean_run() {
        let dev = DeviceSpec::mi250x_gcd();
        let si = make_states(40, 0.0);
        let sj = make_states(30, 5.0);

        let clean_run = || {
            let mut ai = vec![0.0; 40];
            let mut aj = vec![0.0; 30];
            let mut c = KernelCounters::default();
            execute_leaf_pair(
                &TestKernel, &dev, ExecMode::WarpSplit, &si, &sj, &mut ai, &mut aj, &mut c,
            );
            (ai, aj, c)
        };
        let (ai_ref, aj_ref, c_ref) = clean_run();

        // First launch "fails"; the retry must reproduce the clean run
        // bit-for-bit, with only `relaunches` recording the waste.
        let mut c = KernelCounters::default();
        let (ai, aj) = execute_with_relaunch(
            3,
            &mut c,
            |attempt| attempt == 0,
            || {
                let (ai, aj, c) = clean_run();
                ((ai, aj), c)
            },
        );
        assert_eq!(ai, ai_ref);
        assert_eq!(aj, aj_ref);
        assert_eq!(c.relaunches, 1);
        assert_eq!(c.flops, c_ref.flops, "failed attempt's flops discarded");
        assert_eq!(c.warps, c_ref.warps);
    }

    #[test]
    fn relaunch_without_failures_is_transparent() {
        let mut c = KernelCounters::default();
        let v = execute_with_relaunch(
            3,
            &mut c,
            |_| false,
            || (7u64, KernelCounters { flops: 11, ..Default::default() }),
        );
        assert_eq!(v, 7);
        assert_eq!(c.relaunches, 0);
        assert_eq!(c.flops, 11);
    }

    #[test]
    #[should_panic(expected = "consecutive attempts")]
    fn relaunch_gives_up_after_max_attempts() {
        let mut c = KernelCounters::default();
        let _: () = execute_with_relaunch(2, &mut c, |_| true, || ((), KernelCounters::default()));
    }

    /// A kernel that states its reach: `phi_i += w_j (cut² - r²)` inside
    /// `cut = max(h_i, h_j)`, nothing outside — order-sensitive f64 sums,
    /// so a lost, repeated or reordered partner changes the bits. With
    /// `REACH = false` the same physics keeps the trait's default `reach`.
    struct SupportKernel<const REACH: bool>;

    #[derive(Debug, Clone, Copy)]
    struct SupportState {
        pos: [f64; 3],
        h: f64,
        w: f64,
    }

    impl<const REACH: bool> SplitKernel for SupportKernel<REACH> {
        type State = SupportState;
        type Partial = ();
        type Accum = f64;

        fn name(&self) -> &'static str {
            "test-support"
        }
        fn state_words(&self) -> u64 {
            5
        }
        fn partial_words(&self) -> u64 {
            2
        }
        fn accum_words(&self) -> u64 {
            1
        }
        fn partial_flops(&self) -> PairFlops {
            PairFlops::default()
        }
        fn pair_flops(&self) -> PairFlops {
            PairFlops {
                adds: 4,
                muls: 2,
                fmas: 3,
                trans: 0,
            }
        }
        fn partial(&self, _s: &SupportState) {}
        fn interact(&self, si: &SupportState, _: &(), sj: &SupportState, _: &(), out: &mut f64) {
            let dx = si.pos[0] - sj.pos[0];
            let dy = si.pos[1] - sj.pos[1];
            let dz = si.pos[2] - sj.pos[2];
            let r2 = dx * dx + dy * dy + dz * dz;
            let cut = si.h.max(sj.h);
            if r2 < cut * cut {
                *out += sj.w * (cut * cut - r2);
            }
        }
        fn reach(&self, s: &SupportState) -> Option<([f64; 3], f64)> {
            REACH.then_some((s.pos, s.h))
        }
        fn translated(&self, s: &SupportState, by: [f64; 3]) -> SupportState {
            SupportState { pos: [0, 1, 2].map(|d| s.pos[d] + by[d]), ..*s }
        }
    }

    /// Consecutive leaves of the given sizes (zero allowed) and every leaf
    /// pair `a <= b`: the densest list a mesh could hand to a sweep.
    fn chunked(sizes: &[usize]) -> (Vec<Range<usize>>, Vec<(u32, u32)>) {
        let mut ranges = Vec::new();
        let mut start = 0;
        for &n in sizes {
            ranges.push(start..start + n);
            start += n;
        }
        let n = sizes.len() as u32;
        let pairs = (0..n).flat_map(|a| (a..n).map(move |b| (a, b))).collect();
        (ranges, pairs)
    }

    type Swept = (Vec<f64>, KernelCounters);

    /// `pairs` over the consecutive leaves `ranges`, cross pairs meeting
    /// through `image`, swept in `mode` by the production [`sweep`] and by
    /// the oracle [`reference::sweep`], in that order.
    fn support_sweep<const REACH: bool>(
        mode: ExecMode,
        ranges: &[Range<usize>],
        image: impl Fn(u32, u32) -> Option<[f64; 3]> + Copy,
        pairs: &[(u32, u32)],
        states: &[SupportState],
    ) -> (Swept, Swept) {
        let (k, dev) = (SupportKernel::<REACH>, DeviceSpec::mi250x_gcd());
        let leaf_range = |leaf: u32| ranges[leaf as usize].clone();
        let (mut tiled, mut tc) = (vec![0.0; states.len()], KernelCounters::default());
        sweep(&k, &dev, mode, leaf_range, image, pairs, states, &mut tiled, &mut tc);
        let (mut oracle, mut oc) = (vec![0.0; states.len()], KernelCounters::default());
        reference::sweep(&k, &dev, mode, leaf_range, image, pairs, states, &mut oracle, &mut oc);
        ((tiled, tc), (oracle, oc))
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    use hacc_rt::prop::prelude::*;
    use hacc_rt::rand::{self, Rng, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // The compacted tiled sweep against the dense one-sided oracle:
        // same bits in every accumulator, and the pairs it evaluated plus
        // the pairs it culled are the oracle's list-sized count. Clouds
        // sorted along x and cut into leaves of 0..70 lanes, reaches
        // spread by a factor of at least 2 within every cloud. Cross pairs
        // `seam_gap` or more leaves apart meet through the image one
        // `extent` down, which lands the far leaf beside the near one.
        #[test]
        fn culled_sweep_matches_dense_reference_bitwise(
            seed in 0u64..u64::MAX,
            n_leaves in 2usize..9,
            spread in 2.0f64..6.0,
            extent in 2.0f64..12.0,
            seam_gap in 1u32..9,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let sizes: Vec<usize> = (0..n_leaves)
                .map(|_| match rng.gen_range(0..6) {
                    0 => 0,
                    1 => 1,
                    _ => rng.gen_range(2..70),
                })
                .collect();
            let (ranges, pairs) = chunked(&sizes);
            let n: usize = sizes.iter().sum();
            let mut states: Vec<SupportState> = (0..n)
                .map(|i| SupportState {
                    pos: [
                        rng.gen_range(0.0..extent),
                        rng.gen_range(0.0..2.0),
                        rng.gen_range(0.0..2.0),
                    ],
                    // The first two lanes pin the spread; the rest fall between.
                    h: match i {
                        0 => 0.5,
                        1 => 0.5 * spread,
                        _ => rng.gen_range(0.5..0.5 * spread),
                    },
                    w: rng.gen_range(0.5..2.0),
                })
                .collect();
            states.sort_by(|a, b| a.pos[0].total_cmp(&b.pos[0]));
            let image = |a: u32, b: u32| (b - a >= seam_gap).then_some([-extent, 0.0, 0.0]);

            for mode in [ExecMode::WarpSplit, ExecMode::Naive] {
                let ((tiled, tc), (reference, rc)) =
                    support_sweep::<true>(mode, &ranges, image, &pairs, &states);
                prop_assert_eq!(rc.culled_pairs, 0);
                prop_assert_eq!(bits(&tiled), bits(&reference));
                prop_assert_eq!(tc.list_pairs(), rc.pairs);
            }
        }
    }

    #[test]
    fn box_test_keeps_the_margin_band_and_culls_beyond_it() {
        // A leaf spanning x in [10, 11]; its nearest face is what counts,
        // not its nearest particle (which sits in a far corner of the face).
        let leaf = LeafBox::of(&[([10.0, 0.0, 0.0], 0.3), ([11.0, 1.0, 1.0], 0.7)]);
        assert_eq!((leaf.lo, leaf.hi, leaf.reach), ([10.0, 0.0, 0.0], [11.0, 1.0, 1.0], 0.7));
        let reach = 2.5f64;
        let lane = |gap: f64| ([10.0 - gap, 0.5, 0.5], reach);
        // On the reach, one ulp either side of it, and inside the 1e-12
        // margin: all offered to the kernel's own exact test.
        for gap in [reach, reach.next_down(), reach.next_up(), reach * (1.0 + 1e-13)] {
            assert!(leaf.may_reach(&lane(gap)), "gap {gap:e}");
        }
        // Past the margin: culled — and `r2 >= cut²(1 + 1e-12)` there for
        // every position inside the box.
        for gap in [reach * (1.0 + 1e-9), 2.0 * reach] {
            assert!(!leaf.may_reach(&lane(gap)), "gap {gap:e}");
        }
        // The larger of the two reaches decides, whichever side holds it.
        assert!(leaf.may_reach(&([9.4, 0.5, 0.5], 0.1)));
        assert!(!leaf.may_reach(&([9.2, 0.5, 0.5], 0.1)));
        // Inside the box: distance zero.
        assert!(leaf.may_reach(&([10.5, 0.5, 0.5], 0.0)));
        // An empty leaf is out of everyone's reach.
        assert!(!LeafBox::of(&[]).may_reach(&([10.5, 0.5, 0.5], 1e300)));
    }

    #[test]
    fn lanes_planted_at_the_reach_of_the_partner_box_match_reference_bitwise() {
        // Leaf 0: five lanes at gaps around `reach` from leaf 1's box, plus
        // one well inside. Leaf 1: a slab whose lanes all have a smaller
        // reach, so leaf 0's lanes decide.
        let reach = 1.5f64;
        let gaps = [
            0.2,
            reach.next_down(),
            reach,
            reach.next_up(),
            reach * (1.0 + 1e-9),
            3.0 * reach,
        ];
        let mut states: Vec<SupportState> = gaps
            .iter()
            .map(|g| SupportState { pos: [10.0 - g, 0.5, 0.5], h: reach, w: 1.25 })
            .collect();
        states.reverse(); // ascending x, like a mesh's slot order
        let n_a = states.len();
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        states.push(SupportState { pos: [10.0, 0.5, 0.5], h: 0.4, w: 0.75 });
        for _ in 0..40 {
            states.push(SupportState {
                pos: [rng.gen_range(10.0..13.0), rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)],
                h: rng.gen_range(0.2..0.4),
                w: rng.gen_range(0.5..2.0),
            });
        }
        let n_b = states.len() - n_a;
        let (ranges, _) = chunked(&[n_a, n_b]);
        let pairs = [(0, 1)];
        let ((tiled, tc), (reference, rc)) =
            support_sweep::<true>(ExecMode::WarpSplit, &ranges, |_, _| None, &pairs, &states);
        assert_eq!(bits(&tiled), bits(&reference));
        assert!(reference[n_a - 1] != 0.0, "the near lane interacts");
        assert_eq!(tc.list_pairs(), rc.pairs);
        // The two lanes past the margin are gone from leaf 0; leaf 1 keeps
        // only the lanes within `reach` of leaf 0's box.
        let kept_b = tc.pairs / (n_a as u64 - 2);
        assert_eq!(tc.pairs, (n_a as u64 - 2) * kept_b);
        assert!(kept_b >= 1 && kept_b < n_b as u64, "kept {kept_b} of {n_b}");
    }

    #[test]
    fn single_lane_and_empty_survivor_leaves() {
        // A 40-lane slab, then two single-lane leaves — one in reach of
        // the slab's near end, one out of reach of everything — then an
        // empty leaf.
        let s = |x: f64| SupportState { pos: [x, 0.0, 0.0], h: 1.0, w: 1.0 };
        let mut states: Vec<SupportState> = (0..40).map(|i| s(i as f64 * 0.1)).collect();
        states.extend([s(4.5), s(9.0)]);
        let (ranges, pairs) = chunked(&[40, 1, 1, 0]);
        let ((tiled, tc), (reference, rc)) =
            support_sweep::<true>(ExecMode::WarpSplit, &ranges, |_, _| None, &pairs, &states);
        assert_eq!(bits(&tiled), bits(&reference));
        assert!(tiled[40] > 0.0);
        assert_eq!(tiled[41], 0.0);
        // Slab self pair 780; slab x near lane: the 5 lanes within 1.0 of
        // x = 4.5 survive; slab x far lane: no survivors, nothing
        // launched; the two single lanes fit one tile and are swept as
        // they are.
        assert_eq!(rc.pairs, 780 + 40 + 40 + 1);
        assert_eq!((tc.pairs, tc.culled_pairs), (780 + 5 + 1, 35 + 40));
        assert_eq!(tc.warps, 3 + 1 + 1);
    }

    #[test]
    fn cull_pass_is_charged_per_lane_offered() {
        // Two leaves far out of reach: nothing is evaluated, and what the
        // sweep did do — read and test every lane offered — is on the bill.
        let s = |x: f64| SupportState { pos: [x, 0.0, 0.0], h: 1.0, w: 1.0 };
        let states: Vec<SupportState> =
            (0..40).map(|i| s(i as f64 * 0.1)).chain((0..5).map(|i| s(50.0 + i as f64 * 0.1))).collect();
        let (ranges, _) = chunked(&[40, 5]);
        let ((tiled, c), _) =
            support_sweep::<true>(ExecMode::WarpSplit, &ranges, |_, _| None, &[(0, 1)], &states);
        assert!(tiled.iter().all(|&v| v == 0.0));
        assert_eq!((c.pairs, c.culled_pairs, c.warps), (0, 200, 0));
        assert_eq!(c.global_reads, LANE_WORDS * 45);
        assert_eq!(c.flops, CULL_TEST.total() * 45);
        assert_eq!((c.global_writes, c.atomics, c.shuffles, c.masked_lane_flops), (0, 0, 0, 0));
    }

    #[test]
    fn pair_that_fits_one_tile_is_swept_in_place() {
        // 20 x 20 lanes far out of reach of each other. On the 64-lane GCD
        // (half-warp 32) the pair is one tile and is not compacted; on the
        // H100 (half-warp 16) it is four tiles, and all of them go.
        let s = |x: f64| SupportState { pos: [x, 0.0, 0.0], h: 1.0, w: 1.0 };
        let states: Vec<SupportState> =
            (0..20).map(|i| s(i as f64 * 0.1)).chain((0..20).map(|i| s(50.0 + i as f64 * 0.1))).collect();
        let (ranges, _) = chunked(&[20, 20]);
        let run = |dev: DeviceSpec| {
            let mut accums = vec![0.0; states.len()];
            let mut c = KernelCounters::default();
            sweep(
                &SupportKernel::<true>,
                &dev,
                ExecMode::WarpSplit,
                |leaf| ranges[leaf as usize].clone(),
                |_, _| None,
                &[(0, 1)],
                &states,
                &mut accums,
                &mut c,
            );
            assert!(accums.iter().all(|&v| v == 0.0));
            (c.pairs, c.culled_pairs, c.warps)
        };
        assert_eq!(run(DeviceSpec::mi250x_gcd()), (400, 0, 1));
        assert_eq!(run(DeviceSpec::h100()), (0, 400, 0));
    }

    #[test]
    fn kernel_with_the_default_reach_is_swept_dense() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut states: Vec<SupportState> = (0..120)
            .map(|_| SupportState {
                pos: [rng.gen_range(0.0..8.0), rng.gen_range(0.0..2.0), rng.gen_range(0.0..2.0)],
                h: rng.gen_range(0.3..0.9),
                w: rng.gen_range(0.5..2.0),
            })
            .collect();
        states.sort_by(|a, b| a.pos[0].total_cmp(&b.pos[0]));
        let (ranges, pairs) = chunked(&[40, 33, 47]);
        let ((culled, cc), _) =
            support_sweep::<true>(ExecMode::WarpSplit, &ranges, |_, _| None, &pairs, &states);
        let ((dense, dc), (_, rc)) =
            support_sweep::<false>(ExecMode::WarpSplit, &ranges, |_, _| None, &pairs, &states);
        assert_eq!(bits(&culled), bits(&dense));
        assert!(cc.culled_pairs > 0);
        // No reach, no cull: every list-sized pair evaluated, and the cost
        // model reads exactly as the reference's (no cull pass charged).
        assert_eq!((dc.pairs, dc.culled_pairs), (rc.pairs, 0));
        assert_eq!(
            (dc.flops, dc.global_reads, dc.warps, dc.masked_lane_flops),
            (rc.flops, rc.global_reads, rc.warps, rc.masked_lane_flops)
        );
    }

    #[test]
    fn warp_width_affects_warp_count() {
        let s64 = {
            let dev = DeviceSpec::mi250x_gcd(); // warp 64
            let si = make_states(64, 0.0);
            let sj = make_states(64, 5.0);
            let mut ai = vec![0.0; 64];
            let mut aj = vec![0.0; 64];
            let mut c = KernelCounters::default();
            execute_leaf_pair(&TestKernel, &dev, ExecMode::WarpSplit, &si, &sj, &mut ai, &mut aj, &mut c);
            c.warps
        };
        let s32 = {
            let dev = DeviceSpec::h100(); // warp 32
            let si = make_states(64, 0.0);
            let sj = make_states(64, 5.0);
            let mut ai = vec![0.0; 64];
            let mut aj = vec![0.0; 64];
            let mut c = KernelCounters::default();
            execute_leaf_pair(&TestKernel, &dev, ExecMode::WarpSplit, &si, &sj, &mut ai, &mut aj, &mut c);
            c.warps
        };
        // 64x64 on AMD: 2x2 half-warp(32) tiles = 4 warps.
        // On Nvidia: 4x4 half-warp(16) tiles = 16 warps.
        assert_eq!(s64, 4);
        assert_eq!(s32, 16);
    }
}
