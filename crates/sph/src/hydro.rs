//! The CRKSPH interaction kernels, expressed as `hacc-gpusim`
//! [`SplitKernel`]s so they run through the warp-splitting executor with
//! hardware-style counters — exactly how the paper structures its ~50
//! short-range operators.
//!
//! Physics is evaluated in f64 here; the FLOP/word accounting follows the
//! FP32 short-range convention of the paper (the counts are precision
//! independent).
//!
//! Every kernel implements the symmetric [`SplitKernel::interact_pair`]
//! hook: the shared pair term (separation, radius, kernel evaluations)
//! is computed once per unordered pair and scattered into both
//! accumulators, with each side's arithmetic kept literally identical to
//! the one-sided `interact` reference — the `*_matches_one_sided` tests
//! below pin that bitwise. The bodies are generic over their scalar
//! ([`Real`]): production runs them at `f64`, and the `flop_table_*`
//! tests run them at [`hacc_gpusim::reference::Counted`] to pin each
//! `pair_flops` table against the `interact_pair` body. The tables count
//! the general `h_i != h_j` case (the runtime additionally shares kernel
//! evaluations when the smoothing lengths are bit-equal), with sqrt and
//! divide each one transcendental and the interior branch (in-support,
//! viscosity active) taken.
//!
//! Every `interact_pair` body opens with the same exact support
//! pre-filter, `may_interact`: most candidate pairs of a leaf-pair tile
//! lie outside both supports, and the squared-radius test rejects them
//! before the sqrt, the divides and the spline branch. The one-sided
//! `interact` bodies stay unfiltered — they are the bitwise reference.

use crate::crk::{corrected_grad_w, CrkCorrections, Moments};
use crate::kernel::SphKernel;
use hacc_gpusim::{PairFlops, Real, SplitKernel};

/// The support pre-filter of the symmetric pair bodies: false only when
/// the pair is certainly outside the larger of the two supports, `cut =
/// support * max(h_i, h_j)`.
///
/// Conservative by a margin well above the rounding error of `cut*cut`:
/// `r2` at or past the bound guarantees `sqrt(r2) >= cut` (sqrt is
/// correctly rounded and monotone), hence `r/h >= support` for both
/// smoothing lengths and a kernel value and slope of exactly zero on both
/// sides. Such a pair adds `+0.0` or nothing to accumulators that start at
/// `+0.0`, so skipping it leaves every accumulator's bits unchanged;
/// pairs in the boundary band fall through to the body's own exact
/// checks.
#[inline]
fn may_interact<T: Real>(r2: T, cut: T) -> bool {
    r2 < cut * cut * T::c(1.0 + 1e-12)
}

/// Per-particle state consumed by the density and moments kernels.
#[derive(Debug, Clone, Copy)]
pub struct GeomState<T = f64> {
    /// Position.
    pub pos: [T; 3],
    /// Smoothing length.
    pub h: T,
    /// Mass (density kernel) — also reused as volume (moments kernel).
    pub m_or_v: T,
}

/// Stage 1: raw SPH density `rho_i = sum_j m_j W(r_ij, h_i)`
/// (the self term `m_i W(0, h_i)` is added by the pipeline).
#[derive(Debug, Clone, Copy)]
pub struct DensityKernel<K: SphKernel> {
    /// The interpolation kernel.
    pub kernel: K,
}

impl<K: SphKernel, T: Real> SplitKernel<T> for DensityKernel<K> {
    type State = GeomState<T>;
    type Partial = ();
    type Accum = T;

    fn name(&self) -> &'static str {
        "sph_density"
    }
    fn state_words(&self) -> u64 {
        5
    }
    fn partial_words(&self) -> u64 {
        2 // shuffle payload: mass + h of the partner
    }
    fn accum_words(&self) -> u64 {
        1
    }
    fn partial_flops(&self) -> PairFlops {
        PairFlops::default()
    }
    fn pair_flops(&self) -> PairFlops {
        // `interact_pair` (general h_i != h_j):
        //   dr (3 add); r2 (1 mul + 2 fma); sqrt (1);
        //   W x2 (each: q div 1, sigma 3 mul + 1 div, poly 5 mul 2 add,
        //     scale 1 mul); scatter both sides (2 fma).
        // The table bills the interacting path only, not the support
        // pre-filter's 3 muls on every candidate (the test's
        // `PREFILTER`).
        PairFlops {
            adds: 7,
            muls: 19,
            fmas: 4,
            trans: 5,
        }
    }
    fn partial(&self, _s: &GeomState<T>) {}
    /// The support radius: `may_interact` rejects a pair beyond the
    /// larger of the two.
    #[inline]
    fn reach(&self, s: &GeomState<T>) -> Option<([f64; 3], f64)> {
        Some((s.pos.map(T::to_f64), self.kernel.support() * s.h.to_f64()))
    }
    fn translated(&self, s: &GeomState<T>, by: [f64; 3]) -> GeomState<T> {
        GeomState {
            pos: [0, 1, 2].map(|d| s.pos[d] + T::c(by[d])),
            ..*s
        }
    }
    #[inline]
    fn interact(&self, si: &GeomState<T>, _: &(), sj: &GeomState<T>, _: &(), out: &mut T) {
        let dx = si.pos[0] - sj.pos[0];
        let dy = si.pos[1] - sj.pos[1];
        let dz = si.pos[2] - sj.pos[2];
        let r = (dx * dx + dy * dy + dz * dz).sqrt();
        *out += sj.m_or_v * self.kernel.w(r, si.h);
    }
    /// Symmetric path: the radius is shared (squares absorb the reversed
    /// separation's sign) and the kernel evaluation is reused when the
    /// smoothing lengths are bit-equal.
    #[inline]
    fn interact_pair(
        &self,
        si: &GeomState<T>,
        _: &(),
        sj: &GeomState<T>,
        _: &(),
        out_i: &mut T,
        out_j: &mut T,
    ) {
        let dx = si.pos[0] - sj.pos[0];
        let dy = si.pos[1] - sj.pos[1];
        let dz = si.pos[2] - sj.pos[2];
        let r2 = dx * dx + dy * dy + dz * dz;
        if may_interact(r2, T::c(self.kernel.support()) * si.h.max(sj.h)) {
            let r = r2.sqrt();
            let wi = self.kernel.w(r, si.h);
            let wj = if sj.h.to_bits() == si.h.to_bits() {
                wi
            } else {
                self.kernel.w(r, sj.h)
            };
            *out_i += sj.m_or_v * wi;
            *out_j += si.m_or_v * wj;
        }
    }
}

/// Stage 2: the reproducing-kernel moments `m0, m1, m2` over neighbor
/// volumes (the paper's peak-FLOP kernel once the 3×3 solve is included).
#[derive(Debug, Clone, Copy)]
pub struct MomentsKernel<K: SphKernel> {
    /// The interpolation kernel.
    pub kernel: K,
}

impl<K: SphKernel, T: Real> SplitKernel<T> for MomentsKernel<K> {
    type State = GeomState<T>;
    type Partial = ();
    type Accum = Moments<T>;

    fn name(&self) -> &'static str {
        "crk_moments"
    }
    fn state_words(&self) -> u64 {
        5
    }
    fn partial_words(&self) -> u64 {
        2
    }
    fn accum_words(&self) -> u64 {
        10 // m0 + m1(3) + m2(6)
    }
    fn partial_flops(&self) -> PairFlops {
        PairFlops::default()
    }
    fn pair_flops(&self) -> PairFlops {
        // `interact_pair` (general h_i != h_j):
        //   dr + reversed dr (6 add); r2 (1 mul + 2 fma); sqrt (1);
        //   W x2 (2 add + 9 mul + 2 trans each);
        //   accumulate x2 (each: vw 1 mul, m0 1 add, m1 3 fma,
        //     m2 6 mul + 6 fma).
        // The support pre-filter's 3 muls per candidate are not billed,
        // as in the density kernel.
        PairFlops {
            adds: 12,
            muls: 33,
            fmas: 20,
            trans: 5,
        }
    }
    fn partial(&self, _s: &GeomState<T>) {}
    /// The support radius: `may_interact` rejects a pair beyond the
    /// larger of the two.
    #[inline]
    fn reach(&self, s: &GeomState<T>) -> Option<([f64; 3], f64)> {
        Some((s.pos.map(T::to_f64), self.kernel.support() * s.h.to_f64()))
    }
    fn translated(&self, s: &GeomState<T>, by: [f64; 3]) -> GeomState<T> {
        GeomState {
            pos: [0, 1, 2].map(|d| s.pos[d] + T::c(by[d])),
            ..*s
        }
    }
    #[inline]
    fn interact(&self, si: &GeomState<T>, _: &(), sj: &GeomState<T>, _: &(), out: &mut Moments<T>) {
        let dr = [
            si.pos[0] - sj.pos[0],
            si.pos[1] - sj.pos[1],
            si.pos[2] - sj.pos[2],
        ];
        let r = (dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2]).sqrt();
        let w = self.kernel.w(r, si.h);
        if w > T::c(0.0) {
            out.accumulate(sj.m_or_v, w, &dr);
        }
    }
    /// Symmetric path: radius and (for bit-equal smoothing lengths) the
    /// kernel value are shared; each side accumulates with its own
    /// directly-subtracted separation, exactly as the one-sided calls do.
    #[inline]
    fn interact_pair(
        &self,
        si: &GeomState<T>,
        _: &(),
        sj: &GeomState<T>,
        _: &(),
        out_i: &mut Moments<T>,
        out_j: &mut Moments<T>,
    ) {
        let dr = [
            si.pos[0] - sj.pos[0],
            si.pos[1] - sj.pos[1],
            si.pos[2] - sj.pos[2],
        ];
        let r2 = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2];
        if may_interact(r2, T::c(self.kernel.support()) * si.h.max(sj.h)) {
            let r = r2.sqrt();
            let wi = self.kernel.w(r, si.h);
            let wj = if sj.h.to_bits() == si.h.to_bits() {
                wi
            } else {
                self.kernel.w(r, sj.h)
            };
            if wi > T::c(0.0) {
                out_i.accumulate(sj.m_or_v, wi, &dr);
            }
            if wj > T::c(0.0) {
                let drj = [
                    sj.pos[0] - si.pos[0],
                    sj.pos[1] - si.pos[1],
                    sj.pos[2] - si.pos[2],
                ];
                out_j.accumulate(si.m_or_v, wj, &drj);
            }
        }
    }
}

/// Stage 2.5: velocity divergence and curl, feeding the Balsara (1995)
/// viscosity limiter. Standard SPH gradient estimates over neighbor
/// volumes: `div v|_i = sum_j V_j (v_j - v_i)·∇W_ij`, curl analogously.
#[derive(Debug, Clone, Copy)]
pub struct VelGradKernel<K: SphKernel> {
    /// The interpolation kernel.
    pub kernel: K,
}

/// State for the velocity-gradient kernel.
#[derive(Debug, Clone, Copy)]
pub struct VelGradState<T = f64> {
    /// Position.
    pub pos: [T; 3],
    /// Velocity.
    pub vel: [T; 3],
    /// Smoothing length.
    pub h: T,
    /// Volume.
    pub vol: T,
}

/// Accumulated velocity gradients.
#[derive(Debug, Clone, Copy, Default)]
pub struct VelGradAccum<T = f64> {
    /// Divergence of the velocity field.
    pub div: T,
    /// Curl components.
    pub curl: [T; 3],
}

impl VelGradAccum {
    /// The Balsara limiter
    /// `f = |div| / (|div| + |curl| + eps c/h)` in [0, 1]: ≈1 in pure
    /// compression (shocks — viscosity on), ≈0 in pure shear/rotation
    /// (viscosity suppressed).
    pub fn balsara(&self, cs: f64, h: f64) -> f64 {
        let d = self.div.abs();
        let c = (self.curl[0] * self.curl[0]
            + self.curl[1] * self.curl[1]
            + self.curl[2] * self.curl[2])
            .sqrt();
        let floor = 1.0e-4 * cs / h.max(1e-30);
        d / (d + c + floor)
    }
}

impl<K: SphKernel, T: Real> SplitKernel<T> for VelGradKernel<K> {
    type State = VelGradState<T>;
    type Partial = ();
    type Accum = VelGradAccum<T>;

    fn name(&self) -> &'static str {
        "vel_gradients"
    }
    fn state_words(&self) -> u64 {
        8
    }
    fn partial_words(&self) -> u64 {
        5 // shuffle payload: vel + h + vol
    }
    fn accum_words(&self) -> u64 {
        4
    }
    fn partial_flops(&self) -> PairFlops {
        PairFlops::default()
    }
    fn pair_flops(&self) -> PairFlops {
        // `interact_pair` (general h_i != h_j, both sides in support;
        // the support pre-filter's 3 muls per candidate are not billed).
        // The div/curl accumulations are billed as FMAs, as a GPU
        // compiler contracts every `acc += a * b` spine; the total is
        // the same either way, and only it and `trans` are pinned.
        PairFlops {
            adds: 14,
            muls: 31,
            fmas: 20,
            trans: 11,
        }
    }
    fn partial(&self, _s: &VelGradState<T>) {}
    /// The support radius: `may_interact` rejects a pair beyond the
    /// larger of the two.
    #[inline]
    fn reach(&self, s: &VelGradState<T>) -> Option<([f64; 3], f64)> {
        Some((s.pos.map(T::to_f64), self.kernel.support() * s.h.to_f64()))
    }
    fn translated(&self, s: &VelGradState<T>, by: [f64; 3]) -> VelGradState<T> {
        VelGradState {
            pos: [0, 1, 2].map(|d| s.pos[d] + T::c(by[d])),
            ..*s
        }
    }

    #[inline]
    fn interact(
        &self,
        si: &VelGradState<T>,
        _: &(),
        sj: &VelGradState<T>,
        _: &(),
        out: &mut VelGradAccum<T>,
    ) {
        let dr = [
            si.pos[0] - sj.pos[0],
            si.pos[1] - sj.pos[1],
            si.pos[2] - sj.pos[2],
        ];
        let r2 = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2];
        let r = r2.sqrt();
        // Self-pairs and out-of-support lanes mask to a zero slope
        // instead of exiting early, keeping the lane loop straight-line
        // (V1): the accumulation runs under a single predicate, exactly
        // like the zero-charge mask in the gravity kernel.
        let dw = if r == T::c(0.0) { T::c(0.0) } else { self.kernel.dw_dr(r, si.h) };
        if dw != T::c(0.0) {
            // ∇W_ij (gradient w.r.t. r_i).
            let g = [dw * dr[0] / r, dw * dr[1] / r, dw * dr[2] / r];
            let dv = [
                sj.vel[0] - si.vel[0],
                sj.vel[1] - si.vel[1],
                sj.vel[2] - si.vel[2],
            ];
            let v = sj.vol;
            out.div += v * (dv[0] * g[0] + dv[1] * g[1] + dv[2] * g[2]);
            out.curl[0] += v * (dv[1] * g[2] - dv[2] * g[1]);
            out.curl[1] += v * (dv[2] * g[0] - dv[0] * g[2]);
            out.curl[2] += v * (dv[0] * g[1] - dv[1] * g[0]);
        }
    }
    /// Symmetric path: radius and (for bit-equal smoothing lengths) the
    /// kernel slope are shared; each side's gradient, velocity difference
    /// and zero-slope guard replicate the one-sided call verbatim.
    #[inline]
    fn interact_pair(
        &self,
        si: &VelGradState<T>,
        _: &(),
        sj: &VelGradState<T>,
        _: &(),
        out_i: &mut VelGradAccum<T>,
        out_j: &mut VelGradAccum<T>,
    ) {
        let dr = [
            si.pos[0] - sj.pos[0],
            si.pos[1] - sj.pos[1],
            si.pos[2] - sj.pos[2],
        ];
        let r2 = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2];
        if may_interact(r2, T::c(self.kernel.support()) * si.h.max(sj.h)) {
            let r = r2.sqrt();
            // Self-pair lanes mask to zero slopes instead of an early exit
            // (V1); the two predicated scatter blocks below then skip them
            // exactly as the old `return` did.
            let (dwi, dwj) = if r == T::c(0.0) {
                (T::c(0.0), T::c(0.0))
            } else {
                let dwi = self.kernel.dw_dr(r, si.h);
                let dwj = if sj.h.to_bits() == si.h.to_bits() {
                    dwi
                } else {
                    self.kernel.dw_dr(r, sj.h)
                };
                (dwi, dwj)
            };
            if dwi != T::c(0.0) {
                let g = [dwi * dr[0] / r, dwi * dr[1] / r, dwi * dr[2] / r];
                let dv = [
                    sj.vel[0] - si.vel[0],
                    sj.vel[1] - si.vel[1],
                    sj.vel[2] - si.vel[2],
                ];
                let v = sj.vol;
                out_i.div += v * (dv[0] * g[0] + dv[1] * g[1] + dv[2] * g[2]);
                out_i.curl[0] += v * (dv[1] * g[2] - dv[2] * g[1]);
                out_i.curl[1] += v * (dv[2] * g[0] - dv[0] * g[2]);
                out_i.curl[2] += v * (dv[0] * g[1] - dv[1] * g[0]);
            }
            if dwj != T::c(0.0) {
                let drj = [
                    sj.pos[0] - si.pos[0],
                    sj.pos[1] - si.pos[1],
                    sj.pos[2] - si.pos[2],
                ];
                let g = [dwj * drj[0] / r, dwj * drj[1] / r, dwj * drj[2] / r];
                let dv = [
                    si.vel[0] - sj.vel[0],
                    si.vel[1] - sj.vel[1],
                    si.vel[2] - sj.vel[2],
                ];
                let v = si.vol;
                out_j.div += v * (dv[0] * g[0] + dv[1] * g[1] + dv[2] * g[2]);
                out_j.curl[0] += v * (dv[1] * g[2] - dv[2] * g[1]);
                out_j.curl[1] += v * (dv[2] * g[0] - dv[0] * g[2]);
                out_j.curl[2] += v * (dv[0] * g[1] - dv[1] * g[0]);
            }
        }
    }
}

/// Per-particle state of the force kernel.
#[derive(Debug, Clone, Copy)]
pub struct ForceState<T = f64> {
    /// Position.
    pub pos: [T; 3],
    /// Velocity.
    pub vel: [T; 3],
    /// Smoothing length.
    pub h: T,
    /// Pressure.
    pub p: T,
    /// Density.
    pub rho: T,
    /// Sound speed.
    pub cs: T,
    /// Volume.
    pub vol: T,
    /// Balsara viscosity limiter in [0, 1] (1 = full viscosity).
    pub balsara: T,
    /// CRK corrections.
    pub corr: CrkCorrections<T>,
}

/// Accumulator of the force kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct ForceAccum<T = f64> {
    /// `m_i dv_i/dt` — momentum rate (divide by mass downstream).
    pub mom: [T; 3],
    /// `m_i du_i/dt` — thermal energy rate.
    pub eng: T,
    /// Maximum signal velocity seen (for the CFL timestep).
    pub vsig: T,
}

/// Artificial-viscosity and force options.
#[derive(Debug, Clone, Copy)]
pub struct HydroOptions {
    /// Monaghan linear viscosity coefficient.
    pub alpha_visc: f64,
    /// Monaghan quadratic viscosity coefficient.
    pub beta_visc: f64,
    /// Softening fraction in the viscosity denominator.
    pub eps_visc: f64,
    /// Apply the Balsara shear limiter (extra velocity-gradient pass).
    pub use_balsara: bool,
}

impl Default for HydroOptions {
    fn default() -> Self {
        Self {
            alpha_visc: 1.5,
            beta_visc: 3.0,
            eps_visc: 0.01,
            use_balsara: false,
        }
    }
}

/// Stage 3: the conservative CRKSPH momentum + energy pair update with
/// Monaghan artificial viscosity.
///
/// Pair force: `m_i dv_i/dt += -V_i V_j (P_i + P_j + q_ij) G_ij`, with the
/// antisymmetrized corrected gradient
/// `G_ij = (∇W^R_ij(h_i) - ∇W^R_ji(h_j)) / 2` — antisymmetry under `i↔j`
/// makes momentum conservation exact by construction. Energy uses the
/// compatible split `m_i du_i/dt += X (v_i - v_j)·G_ij / 2` so that total
/// (kinetic + thermal) energy is conserved to machine precision.
#[derive(Debug, Clone, Copy)]
pub struct ForceKernel<K: SphKernel> {
    /// The interpolation kernel.
    pub kernel: K,
    /// Viscosity/force options.
    pub opts: HydroOptions,
}

impl<K: SphKernel, T: Real> SplitKernel<T> for ForceKernel<K> {
    type State = ForceState<T>;
    type Partial = ();
    type Accum = ForceAccum<T>;

    fn name(&self) -> &'static str {
        "crk_force"
    }
    fn state_words(&self) -> u64 {
        16 // pos3 vel3 h p rho cs vol balsara A B3
    }
    fn partial_words(&self) -> u64 {
        13 // shuffle payload: everything but position
    }
    fn accum_words(&self) -> u64 {
        5
    }
    fn partial_flops(&self) -> PairFlops {
        PairFlops::default()
    }
    fn pair_flops(&self) -> PairFlops {
        // `interact_pair` (general h_i != h_j, in support, viscosity
        // branch taken, fused cubic-spline W/dW). The table bills the
        // interacting path only; the squared-radius pre-filter costs 2
        // extra muls on every candidate pair, interacting or not, and
        // is not folded into the model (the test's `PREFILTER`).
        PairFlops {
            adds: 27,
            muls: 71,
            fmas: 24,
            trans: 11,
        }
    }
    fn partial(&self, _s: &ForceState<T>) {}
    /// The support radius: `may_interact` rejects a pair beyond the
    /// larger of the two.
    #[inline]
    fn reach(&self, s: &ForceState<T>) -> Option<([f64; 3], f64)> {
        Some((s.pos.map(T::to_f64), self.kernel.support() * s.h.to_f64()))
    }
    fn translated(&self, s: &ForceState<T>, by: [f64; 3]) -> ForceState<T> {
        ForceState {
            pos: [0, 1, 2].map(|d| s.pos[d] + T::c(by[d])),
            ..*s
        }
    }

    #[inline]
    fn interact(
        &self,
        si: &ForceState<T>,
        _: &(),
        sj: &ForceState<T>,
        _: &(),
        out: &mut ForceAccum<T>,
    ) {
        let dr = [
            si.pos[0] - sj.pos[0],
            si.pos[1] - sj.pos[1],
            si.pos[2] - sj.pos[2],
        ];
        let r2 = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2];
        let r = r2.sqrt();
        let support = T::c(self.kernel.support());
        // Out-of-support and self-pair lanes are masked by predicating
        // the whole pair term (V1) — the exact complement of the old
        // early exit, so the accepted-lane arithmetic is bit-identical.
        if !(r >= support * si.h.max(sj.h) || r == T::c(0.0)) {
            let wi = self.kernel.w(r, si.h);
            let dwi = self.kernel.dw_dr(r, si.h);
            let wj = self.kernel.w(r, sj.h);
            let dwj = self.kernel.dw_dr(r, sj.h);

            // i-centered corrected gradient wrt r_i, and j-centered wrt r_j.
            let gi = corrected_grad_w(&si.corr, wi, dwi, &dr, r);
            let drj = [-dr[0], -dr[1], -dr[2]];
            let gj = corrected_grad_w(&sj.corr, wj, dwj, &drj, r);
            let g = [
                T::c(0.5) * (gi[0] - gj[0]),
                T::c(0.5) * (gi[1] - gj[1]),
                T::c(0.5) * (gi[2] - gj[2]),
            ];

            // Monaghan viscosity on approaching pairs.
            let dv = [
                si.vel[0] - sj.vel[0],
                si.vel[1] - sj.vel[1],
                si.vel[2] - sj.vel[2],
            ];
            let vdotr = dv[0] * dr[0] + dv[1] * dr[1] + dv[2] * dr[2];
            let hbar = T::c(0.5) * (si.h + sj.h);
            let rho_bar = T::c(0.5) * (si.rho + sj.rho);
            let cbar = T::c(0.5) * (si.cs + sj.cs);
            let q = if vdotr < T::c(0.0) {
                let mu = hbar * vdotr / (r2 + T::c(self.opts.eps_visc) * hbar * hbar);
                let limiter = T::c(0.5) * (si.balsara + sj.balsara);
                (T::c(-self.opts.alpha_visc) * cbar * mu + T::c(self.opts.beta_visc) * mu * mu)
                    * rho_bar
                    * limiter
            } else {
                T::c(0.0)
            };

            let x = si.vol * sj.vol * (si.p + sj.p + q);
            out.mom[0] -= x * g[0];
            out.mom[1] -= x * g[1];
            out.mom[2] -= x * g[2];
            out.eng += T::c(0.5) * x * (dv[0] * g[0] + dv[1] * g[1] + dv[2] * g[2]);

            // Signal velocity for the CFL condition.
            let w_rel = (vdotr / r).min(T::c(0.0));
            let vsig = si.cs + sj.cs - T::c(3.0) * w_rel;
            if vsig > out.vsig {
                out.vsig = vsig;
            }
        }
    }

    /// Symmetric path: the entire pair term — radius, both kernel
    /// evaluations (fused `w_dw`, shared outright when the smoothing
    /// lengths are bit-equal), both corrected gradients, the
    /// antisymmetrized `G_ij`, viscosity, pair pressure `X`, energy term
    /// and signal velocity — is computed once and scattered into both
    /// accumulators. Per-side values match the one-sided calls exactly:
    /// `G_ji = -G_ij` holds bitwise (`0.5*(b-a) == -(0.5*(a-b))` away
    /// from exact zeros), squares/products absorb separation signs, and
    /// the commutative pair means are unchanged under `i <-> j`.
    #[inline]
    fn interact_pair(
        &self,
        si: &ForceState<T>,
        _: &(),
        sj: &ForceState<T>,
        _: &(),
        out_i: &mut ForceAccum<T>,
        out_j: &mut ForceAccum<T>,
    ) {
        let dr = [
            si.pos[0] - sj.pos[0],
            si.pos[1] - sj.pos[1],
            si.pos[2] - sj.pos[2],
        ];
        let r2 = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2];
        let cut = T::c(self.kernel.support()) * si.h.max(sj.h);
        // Clearly-out-of-support pairs skip the sqrt entirely; pairs in
        // the boundary band fall through to the exact one-sided check,
        // keeping the symmetric path bitwise identical to `interact`.
        // Both rejection tests are nested masks (V1): the inner
        // predicate is the exact complement of the old early exit, so
        // accepted lanes compute bit-identically to `interact`.
        if may_interact(r2, cut) {
            let r = r2.sqrt();
            if !(r >= cut || r == T::c(0.0)) {
                let (wi, dwi) = self.kernel.w_dw(r, si.h);
                let (wj, dwj) = if sj.h.to_bits() == si.h.to_bits() {
                    (wi, dwi)
                } else {
                    self.kernel.w_dw(r, sj.h)
                };

                let gi = corrected_grad_w(&si.corr, wi, dwi, &dr, r);
                let drj = [-dr[0], -dr[1], -dr[2]];
                let gj = corrected_grad_w(&sj.corr, wj, dwj, &drj, r);
                let g = [
                    T::c(0.5) * (gi[0] - gj[0]),
                    T::c(0.5) * (gi[1] - gj[1]),
                    T::c(0.5) * (gi[2] - gj[2]),
                ];

                let dv = [
                    si.vel[0] - sj.vel[0],
                    si.vel[1] - sj.vel[1],
                    si.vel[2] - sj.vel[2],
                ];
                let vdotr = dv[0] * dr[0] + dv[1] * dr[1] + dv[2] * dr[2];
                let hbar = T::c(0.5) * (si.h + sj.h);
                let rho_bar = T::c(0.5) * (si.rho + sj.rho);
                let cbar = T::c(0.5) * (si.cs + sj.cs);
                let q = if vdotr < T::c(0.0) {
                    let mu = hbar * vdotr / (r2 + T::c(self.opts.eps_visc) * hbar * hbar);
                    let limiter = T::c(0.5) * (si.balsara + sj.balsara);
                    (T::c(-self.opts.alpha_visc) * cbar * mu + T::c(self.opts.beta_visc) * mu * mu)
                        * rho_bar
                        * limiter
                } else {
                    T::c(0.0)
                };

                let x = si.vol * sj.vol * (si.p + sj.p + q);
                out_i.mom[0] -= x * g[0];
                out_i.mom[1] -= x * g[1];
                out_i.mom[2] -= x * g[2];
                out_j.mom[0] += x * g[0];
                out_j.mom[1] += x * g[1];
                out_j.mom[2] += x * g[2];
                let e = T::c(0.5) * x * (dv[0] * g[0] + dv[1] * g[1] + dv[2] * g[2]);
                out_i.eng += e;
                out_j.eng += e;

                let w_rel = (vdotr / r).min(T::c(0.0));
                let vsig = si.cs + sj.cs - T::c(3.0) * w_rel;
                if vsig > out_i.vsig {
                    out_i.vsig = vsig;
                }
                if vsig > out_j.vsig {
                    out_j.vsig = vsig;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::CubicSpline;
    use hacc_gpusim::reference::Counted;

    fn state(pos: [f64; 3], vel: [f64; 3], p: f64) -> ForceState {
        ForceState {
            pos,
            vel,
            h: 1.0,
            p,
            rho: 1.0,
            cs: 1.0,
            vol: 1.0,
            balsara: 1.0,
            corr: CrkCorrections::default(),
        }
    }

    fn fk() -> ForceKernel<CubicSpline> {
        ForceKernel {
            kernel: CubicSpline,
            opts: HydroOptions::default(),
        }
    }

    #[test]
    fn pair_force_is_antisymmetric() {
        let k = fk();
        let a = state([0.0; 3], [0.3, -0.1, 0.2], 2.0);
        let b = state([0.8, 0.3, -0.2], [-0.2, 0.4, 0.0], 5.0);
        let mut fa = ForceAccum::default();
        let mut fb = ForceAccum::default();
        k.interact(&a, &(), &b, &(), &mut fa);
        k.interact(&b, &(), &a, &(), &mut fb);
        for d in 0..3 {
            assert!(
                (fa.mom[d] + fb.mom[d]).abs() < 1e-14,
                "momentum component {d} not conserved"
            );
        }
    }

    #[test]
    fn pair_energy_is_compatible() {
        // Kinetic work + thermal heating must cancel:
        // fa.eng + fb.eng = -(v_a . fa.mom + v_b . fb.mom).
        let k = fk();
        let a = state([0.0; 3], [1.0, 0.0, 0.0], 2.0);
        let b = state([0.9, 0.0, 0.0], [-1.0, 0.0, 0.0], 2.0);
        let mut fa = ForceAccum::default();
        let mut fb = ForceAccum::default();
        k.interact(&a, &(), &b, &(), &mut fa);
        k.interact(&b, &(), &a, &(), &mut fb);
        let kinetic: f64 = (0..3)
            .map(|d| a.vel[d] * fa.mom[d] + b.vel[d] * fb.mom[d])
            .sum();
        let thermal = fa.eng + fb.eng;
        assert!(
            (kinetic + thermal).abs() < 1e-13,
            "energy leak: kinetic {kinetic} thermal {thermal}"
        );
    }

    #[test]
    fn pressure_pushes_particles_apart() {
        let k = fk();
        let a = state([0.0; 3], [0.0; 3], 1.0);
        let b = state([1.0, 0.0, 0.0], [0.0; 3], 1.0);
        let mut fa = ForceAccum::default();
        k.interact(&a, &(), &b, &(), &mut fa);
        // a is left of b: pressure accelerates a in -x.
        assert!(fa.mom[0] < 0.0, "mom = {:?}", fa.mom);
    }

    #[test]
    fn viscosity_heats_approaching_pairs_only() {
        let k = fk();
        // Approaching head-on, zero pressure: all energy change is
        // viscous heating, which must be positive.
        let a = state([0.0; 3], [1.0, 0.0, 0.0], 0.0);
        let b = state([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], 0.0);
        let mut fa = ForceAccum::default();
        k.interact(&a, &(), &b, &(), &mut fa);
        assert!(fa.eng > 0.0, "no viscous heating: {}", fa.eng);
        // Receding: no viscosity, no pressure -> nothing happens.
        let c = state([0.0; 3], [-1.0, 0.0, 0.0], 0.0);
        let d = state([1.0, 0.0, 0.0], [1.0, 0.0, 0.0], 0.0);
        let mut fc = ForceAccum::default();
        k.interact(&c, &(), &d, &(), &mut fc);
        assert_eq!(fc.eng, 0.0);
        assert_eq!(fc.mom, [0.0; 3]);
    }

    #[test]
    fn viscosity_opposes_approach() {
        let k = fk();
        let a = state([0.0; 3], [1.0, 0.0, 0.0], 0.0);
        let b = state([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], 0.0);
        let mut fa = ForceAccum::default();
        k.interact(&a, &(), &b, &(), &mut fa);
        // a moves in +x toward b; viscosity must push it back (-x).
        assert!(fa.mom[0] < 0.0);
    }

    #[test]
    fn out_of_support_is_noop() {
        let k = fk();
        let a = state([0.0; 3], [1.0; 3], 3.0);
        let b = state([5.0, 0.0, 0.0], [-1.0; 3], 3.0);
        let mut fa = ForceAccum::default();
        k.interact(&a, &(), &b, &(), &mut fa);
        assert_eq!(fa.mom, [0.0; 3]);
        assert_eq!(fa.eng, 0.0);
    }

    #[test]
    fn vsig_includes_approach_velocity() {
        let k = fk();
        let a = state([0.0; 3], [2.0, 0.0, 0.0], 1.0);
        let b = state([1.0, 0.0, 0.0], [-2.0, 0.0, 0.0], 1.0);
        let mut fa = ForceAccum::default();
        k.interact(&a, &(), &b, &(), &mut fa);
        // vsig = c_i + c_j - 3 w = 1 + 1 + 3*4 = 14.
        assert!((fa.vsig - 14.0).abs() < 1e-12, "vsig = {}", fa.vsig);
    }

    use hacc_rt::rand::{self, Rng, SeedableRng};

    fn rand_force_states(n: usize, vary_h: bool) -> Vec<ForceState> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        (0..n)
            .map(|_| ForceState {
                pos: [
                    rng.gen_range(-1.2..1.2),
                    rng.gen_range(-1.2..1.2),
                    rng.gen_range(-1.2..1.2),
                ],
                vel: [
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                ],
                h: if vary_h { rng.gen_range(0.8..1.4) } else { 1.0 },
                p: rng.gen_range(0.5..4.0),
                rho: rng.gen_range(0.5..2.0),
                cs: rng.gen_range(0.5..2.0),
                vol: rng.gen_range(0.5..1.5),
                balsara: rng.gen_range(0.0..1.0),
                corr: CrkCorrections {
                    a: rng.gen_range(0.9..1.1),
                    b: [
                        rng.gen_range(-0.1..0.1),
                        rng.gen_range(-0.1..0.1),
                        rng.gen_range(-0.1..0.1),
                    ],
                },
            })
            .collect()
    }

    /// Each side of `interact_pair` against the corresponding one-sided
    /// `interact` call, bitwise, for all four CRKSPH kernels.
    fn assert_pair_matches_one_sided(si: &ForceState, sj: &ForceState, what: &str) {
        let fkn = fk();
        let dk = DensityKernel { kernel: CubicSpline };
        let mk = MomentsKernel { kernel: CubicSpline };
        let vk = VelGradKernel { kernel: CubicSpline };
        // Force.
        let (mut ri, mut rj) = (ForceAccum::default(), ForceAccum::default());
        fkn.interact(si, &(), sj, &(), &mut ri);
        fkn.interact(sj, &(), si, &(), &mut rj);
        let (mut pi, mut pj) = (ForceAccum::default(), ForceAccum::default());
        fkn.interact_pair(si, &(), sj, &(), &mut pi, &mut pj);
        assert_eq!(pi.mom, ri.mom, "force i mom {what}");
        assert_eq!(pj.mom, rj.mom, "force j mom {what}");
        assert_eq!(pi.eng, ri.eng, "force i eng {what}");
        assert_eq!(pj.eng, rj.eng, "force j eng {what}");
        assert_eq!(pi.vsig, ri.vsig, "force i vsig {what}");
        assert_eq!(pj.vsig, rj.vsig, "force j vsig {what}");
        // Density (compared as bits: a skipped pair must leave +0.0).
        let gi = GeomState { pos: si.pos, h: si.h, m_or_v: si.vol };
        let gj = GeomState { pos: sj.pos, h: sj.h, m_or_v: sj.vol };
        let (mut di, mut dj) = (0.0f64, 0.0f64);
        dk.interact(&gi, &(), &gj, &(), &mut di);
        dk.interact(&gj, &(), &gi, &(), &mut dj);
        let (mut qi, mut qj) = (0.0f64, 0.0f64);
        dk.interact_pair(&gi, &(), &gj, &(), &mut qi, &mut qj);
        assert_eq!(qi.to_bits(), di.to_bits(), "density i {what}");
        assert_eq!(qj.to_bits(), dj.to_bits(), "density j {what}");
        // Moments.
        let (mut mi, mut mj) = (Moments::default(), Moments::default());
        mk.interact(&gi, &(), &gj, &(), &mut mi);
        mk.interact(&gj, &(), &gi, &(), &mut mj);
        let (mut ni, mut nj) = (Moments::default(), Moments::default());
        mk.interact_pair(&gi, &(), &gj, &(), &mut ni, &mut nj);
        assert_eq!(ni, mi, "moments i {what}");
        assert_eq!(nj, mj, "moments j {what}");
        // Velocity gradients.
        let vi = VelGradState { pos: si.pos, vel: si.vel, h: si.h, vol: si.vol };
        let vj = VelGradState { pos: sj.pos, vel: sj.vel, h: sj.h, vol: sj.vol };
        let (mut wi, mut wj) = (VelGradAccum::default(), VelGradAccum::default());
        vk.interact(&vi, &(), &vj, &(), &mut wi);
        vk.interact(&vj, &(), &vi, &(), &mut wj);
        let (mut xi, mut xj) = (VelGradAccum::default(), VelGradAccum::default());
        vk.interact_pair(&vi, &(), &vj, &(), &mut xi, &mut xj);
        assert_eq!(xi.div, wi.div, "velgrad i div {what}");
        assert_eq!(xj.div, wj.div, "velgrad j div {what}");
        assert_eq!(xi.curl, wi.curl, "velgrad i curl {what}");
        assert_eq!(xj.curl, wj.curl, "velgrad j curl {what}");
    }

    /// The executor contract: each side of `interact_pair` must be
    /// bitwise identical to the corresponding one-sided `interact` call —
    /// for every CRKSPH kernel, with both shared (equal-h) and general
    /// (unequal-h) smoothing lengths.
    #[test]
    fn symmetric_pair_matches_one_sided_bitwise() {
        for vary_h in [false, true] {
            let fs = rand_force_states(24, vary_h);
            for a in 0..fs.len() {
                for b in (a + 1)..fs.len() {
                    assert_pair_matches_one_sided(
                        &fs[a],
                        &fs[b],
                        &format!("[{a},{b}] vary_h={vary_h}"),
                    );
                }
            }
        }
    }

    /// The same contract where the support pre-filter decides: separations
    /// on, just inside and just outside the support edge `2h` (closer than
    /// the filter's 1e-12 margin and further), coincident particles, and
    /// unequal smoothing lengths with the pair inside one support only.
    #[test]
    fn symmetric_pair_matches_one_sided_bitwise_at_the_support_edge() {
        let fs = rand_force_states(8, false);
        let dirs = [[1.0, 0.0, 0.0], [0.6, -0.48, 0.64], [-0.36, 0.8, 0.48]];
        let mut outside_band = 0;
        for (h_i, h_j) in [(1.0, 1.0), (0.83, 0.83), (1.3, 0.7), (0.7, 1.3)] {
            let edge = 2.0 * f64::max(h_i, h_j);
            let seps = [
                0.0,
                edge,
                edge * (1.0 - 1e-13),
                edge * (1.0 + 1e-13),
                edge * (1.0 - 1e-9),
                edge * (1.0 + 1e-9),
                // Inside the larger support, outside the smaller (when
                // the two differ): 2 min(h) < r < 2 max(h).
                f64::min(h_i, h_j) + f64::max(h_i, h_j),
            ];
            for (k, &sep) in seps.iter().enumerate() {
                for (d, dir) in dirs.iter().enumerate() {
                    let mut si = fs[(k + d) % fs.len()];
                    let mut sj = fs[(k + d + 3) % fs.len()];
                    si.h = h_i;
                    sj.h = h_j;
                    sj.pos = [
                        si.pos[0] + sep * dir[0],
                        si.pos[1] + sep * dir[1],
                        si.pos[2] + sep * dir[2],
                    ];
                    let what = format!("h=({h_i},{h_j}) sep={sep:e} dir {d}");
                    assert_pair_matches_one_sided(&si, &sj, &what);
                    assert_pair_matches_one_sided(&sj, &si, &what);
                    let dr = [
                        si.pos[0] - sj.pos[0],
                        si.pos[1] - sj.pos[1],
                        si.pos[2] - sj.pos[2],
                    ];
                    let r2 = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2];
                    if !may_interact(r2, edge) {
                        outside_band += 1;
                        assert!(r2.sqrt() >= edge, "filter rejected an in-support pair: {what}");
                    }
                }
            }
        }
        // The 1e-9 case (and only it) lies past the filter's margin.
        assert_eq!(outside_band, 4 * dirs.len());
    }

    /// Newton's third law is exact by construction on the symmetric path:
    /// both momentum scatters come from the same `X * G_ij` product.
    #[test]
    fn symmetric_pair_momentum_antisymmetric_bitwise() {
        let k = fk();
        for (sa, sb) in [
            (state([0.0; 3], [0.3, -0.1, 0.2], 2.0), state([0.8, 0.3, -0.2], [-0.2, 0.4, 0.0], 5.0)),
            (state([0.0; 3], [1.0, 0.0, 0.0], 0.0), state([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], 0.0)),
        ] {
            let (mut fa, mut fb) = (ForceAccum::default(), ForceAccum::default());
            k.interact_pair(&sa, &(), &sb, &(), &mut fa, &mut fb);
            for d in 0..3 {
                assert_eq!(fa.mom[d], -fb.mom[d], "component {d}");
            }
            assert_eq!(fa.eng, fb.eng, "compatible energy split is shared");
        }
    }

    #[test]
    fn density_kernel_matches_direct_sum() {
        let dk = DensityKernel { kernel: CubicSpline };
        let si = GeomState {
            pos: [0.0; 3],
            h: 1.0,
            m_or_v: 2.0,
        };
        let sj = GeomState {
            pos: [0.5, 0.0, 0.0],
            h: 1.0,
            m_or_v: 3.0,
        };
        let mut rho = 0.0;
        dk.interact(&si, &(), &sj, &(), &mut rho);
        assert!((rho - 3.0 * CubicSpline.w(0.5, 1.0)).abs() < 1e-14);
    }

    // ---- FLOP tables, pinned on the counting scalar ----

    /// The costliest path every table bills: unequal smoothing lengths,
    /// `q < 1` on both sides, in support, approaching (viscosity on).
    fn costliest_pair() -> (ForceState<Counted>, ForceState<Counted>) {
        let c = Counted;
        let state = |pos: [f64; 3], vel: [f64; 3], h| ForceState {
            pos: pos.map(c),
            vel: vel.map(c),
            h: c(h),
            p: c(2.0),
            rho: c(1.1),
            cs: c(0.9),
            vol: c(0.8),
            balsara: c(0.7),
            corr: CrkCorrections { a: c(1.05), b: [0.02, -0.01, 0.03].map(c) },
        };
        (
            state([0.0; 3], [0.5, -0.2, 0.3], 1.0),
            state([0.3, -0.2, 0.25], [-0.1, 0.1, -0.2], 1.2),
        )
    }

    fn geom(s: &ForceState<Counted>) -> GeomState<Counted> {
        GeomState { pos: s.pos, h: s.h, m_or_v: s.vol }
    }

    fn vel_grad(s: &ForceState<Counted>) -> VelGradState<Counted> {
        VelGradState { pos: s.pos, vel: s.vel, h: s.h, vol: s.vol }
    }

    /// Run `k` on `Counted` states through `partial`, `interact_pair` and
    /// `interact`, and hold the table to what they counted: `partial()`
    /// to `partial_flops()`; the pair and one-sided totals to `pinned`;
    /// the pair total to the table plus the unbilled `prefilter`; `trans`
    /// exactly; one `interact` ≤ `interact_pair` ≤ two; and the state and
    /// accumulator words to the `f64` types' sizes. The FMA split is not
    /// compared: whether a mul and an add fuse is the compiler's choice
    /// and leaves the total alone (DESIGN.md, "FLOP tables").
    fn assert_flop_table<K>(
        k: &K,
        (si, sj): (<K as SplitKernel<Counted>>::State, <K as SplitKernel<Counted>>::State),
        pinned: (u64, u64),
        prefilter: u64,
    ) where
        K: SplitKernel<Counted> + SplitKernel,
    {
        let name = SplitKernel::<f64>::name(k);
        Counted::take_tally();
        let pi = SplitKernel::<Counted>::partial(k, &si);
        let pj = SplitKernel::<Counted>::partial(k, &sj);
        let partial = Counted::take_tally().total();
        let (mut ai, mut aj) = Default::default();
        SplitKernel::<Counted>::interact_pair(k, &si, &pi, &sj, &pj, &mut ai, &mut aj);
        let pair = Counted::take_tally();
        SplitKernel::<Counted>::interact(k, &si, &pi, &sj, &pj, &mut ai);
        let one = Counted::take_tally().total();
        let table = SplitKernel::<f64>::pair_flops(k);
        assert_eq!(partial, 2 * SplitKernel::<f64>::partial_flops(k).total(), "{name} partial");
        assert_eq!((pair.total(), one), pinned, "{name} pair and one-sided totals");
        assert_eq!(pair.total(), table.total() + prefilter, "{name} table total");
        assert_eq!(pair.trans, table.trans, "{name} transcendentals");
        assert!(one <= pair.total() && pair.total() <= 2 * one, "{name} one-sided bracket");
        let words = |bytes: usize| (bytes / std::mem::size_of::<f64>()) as u64;
        let state = words(std::mem::size_of::<<K as SplitKernel>::State>());
        let accum = words(std::mem::size_of::<<K as SplitKernel>::Accum>());
        assert_eq!(SplitKernel::<f64>::state_words(k), state, "{name} state words");
        assert_eq!(SplitKernel::<f64>::accum_words(k), accum, "{name} accumulator words");
    }

    #[test]
    fn flop_table_density() {
        const PREFILTER: u64 = 3;
        let (si, sj) = costliest_pair();
        let k = DensityKernel { kernel: CubicSpline };
        assert_flop_table(&k, (geom(&si), geom(&sj)), (42, 24), PREFILTER);
    }

    #[test]
    fn flop_table_moments() {
        const PREFILTER: u64 = 3;
        let (si, sj) = costliest_pair();
        let k = MomentsKernel { kernel: CubicSpline };
        assert_flop_table(&k, (geom(&si), geom(&sj)), (93, 48), PREFILTER);
    }

    #[test]
    fn flop_table_vel_grad() {
        const PREFILTER: u64 = 3;
        let (si, sj) = costliest_pair();
        let k = VelGradKernel { kernel: CubicSpline };
        assert_flop_table(&k, (vel_grad(&si), vel_grad(&sj)), (99, 51), PREFILTER);
    }

    #[test]
    fn flop_table_force() {
        // The body reuses the pre-filter's `cut` for its exact support
        // test, so only 2 of the filter's 3 muls go unbilled.
        const PREFILTER: u64 = 2;
        assert_flop_table(&fk(), costliest_pair(), (159, 158), PREFILTER);
    }
}
