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
//! below pin that bitwise. `pair_flops` tables are audited against the
//! `interact_pair` bodies, counting the general `h_i != h_j` case (the
//! runtime additionally shares kernel evaluations when the smoothing
//! lengths are bit-equal), with sqrt and divide each one transcendental
//! and the interior branch (in-support, viscosity active) taken.
//!
//! Every `interact_pair` body opens with the same exact support
//! pre-filter, `may_interact`: most candidate pairs of a leaf-pair tile
//! lie outside both supports, and the squared-radius test rejects them
//! before the sqrt, the divides and the spline branch. The one-sided
//! `interact` bodies stay unfiltered — they are the bitwise reference.

use crate::crk::{corrected_grad_w, CrkCorrections, Moments};
use crate::kernel::SphKernel;
use hacc_gpusim::{PairFlops, SplitKernel};

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
fn may_interact(r2: f64, cut: f64) -> bool {
    r2 < cut * cut * (1.0 + 1e-12)
}

/// Per-particle state consumed by the density and moments kernels.
#[derive(Debug, Clone, Copy)]
pub struct GeomState {
    /// Position.
    pub pos: [f64; 3],
    /// Smoothing length.
    pub h: f64,
    /// Mass (density kernel) — also reused as volume (moments kernel).
    pub m_or_v: f64,
}

/// Stage 1: raw SPH density `rho_i = sum_j m_j W(r_ij, h_i)`
/// (the self term `m_i W(0, h_i)` is added by the pipeline).
#[derive(Debug, Clone, Copy)]
pub struct DensityKernel<K: SphKernel> {
    /// The interpolation kernel.
    pub kernel: K,
}

impl<K: SphKernel> SplitKernel for DensityKernel<K> {
    // k1: bind K = CubicSpline
    type State = GeomState;
    type Partial = ();
    type Accum = f64;

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
    // k1: tolerance(muls = 3)
    fn pair_flops(&self) -> PairFlops {
        // Audited vs `interact_pair` (general h_i != h_j):
        //   dr (3 add); r2 (1 mul + 2 fma); sqrt (1);
        //   W x2 (each: q div 1, sigma 3 mul + 1 div, poly 5 mul 2 add,
        //     scale 1 mul); scatter both sides (2 fma).
        // The table bills the interacting path only; the support
        // pre-filter's 3 muls on every candidate are the tolerance.
        PairFlops {
            adds: 7,
            muls: 19,
            fmas: 4,
            trans: 5,
        }
    }
    fn partial(&self, _s: &GeomState) {}
    /// The support radius: `may_interact` rejects a pair beyond the
    /// larger of the two.
    #[inline]
    fn reach(&self, s: &GeomState) -> Option<([f64; 3], f64)> {
        Some((s.pos, self.kernel.support() * s.h))
    }
    fn translated(&self, s: &GeomState, by: [f64; 3]) -> GeomState {
        GeomState {
            pos: [0, 1, 2].map(|d| s.pos[d] + by[d]),
            ..*s
        }
    }
    #[inline]
    fn interact(&self, si: &GeomState, _: &(), sj: &GeomState, _: &(), out: &mut f64) {
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
        si: &GeomState,
        _: &(),
        sj: &GeomState,
        _: &(),
        out_i: &mut f64,
        out_j: &mut f64,
    ) {
        let dx = si.pos[0] - sj.pos[0];
        let dy = si.pos[1] - sj.pos[1];
        let dz = si.pos[2] - sj.pos[2];
        let r2 = dx * dx + dy * dy + dz * dz;
        if may_interact(r2, self.kernel.support() * si.h.max(sj.h)) {
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

impl<K: SphKernel> SplitKernel for MomentsKernel<K> {
    // k1: bind K = CubicSpline
    type State = GeomState;
    type Partial = ();
    type Accum = Moments;

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
    // k1: tolerance(muls = 3)
    fn pair_flops(&self) -> PairFlops {
        // Audited vs `interact_pair` (general h_i != h_j):
        //   dr + reversed dr (6 add); r2 (1 mul + 2 fma); sqrt (1);
        //   W x2 (2 add + 9 mul + 2 trans each);
        //   accumulate x2 (each: vw 1 mul, m0 1 add, m1 3 fma,
        //     m2 6 mul + 6 fma).
        // The support pre-filter's 3 muls per candidate are the
        // tolerance, as in the density kernel.
        PairFlops {
            adds: 12,
            muls: 33,
            fmas: 20,
            trans: 5,
        }
    }
    fn partial(&self, _s: &GeomState) {}
    /// The support radius: `may_interact` rejects a pair beyond the
    /// larger of the two.
    #[inline]
    fn reach(&self, s: &GeomState) -> Option<([f64; 3], f64)> {
        Some((s.pos, self.kernel.support() * s.h))
    }
    fn translated(&self, s: &GeomState, by: [f64; 3]) -> GeomState {
        GeomState {
            pos: [0, 1, 2].map(|d| s.pos[d] + by[d]),
            ..*s
        }
    }
    #[inline]
    fn interact(&self, si: &GeomState, _: &(), sj: &GeomState, _: &(), out: &mut Moments) {
        let dr = [
            si.pos[0] - sj.pos[0],
            si.pos[1] - sj.pos[1],
            si.pos[2] - sj.pos[2],
        ];
        let r = (dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2]).sqrt();
        let w = self.kernel.w(r, si.h);
        if w > 0.0 {
            out.accumulate(sj.m_or_v, w, &dr);
        }
    }
    /// Symmetric path: radius and (for bit-equal smoothing lengths) the
    /// kernel value are shared; each side accumulates with its own
    /// directly-subtracted separation, exactly as the one-sided calls do.
    #[inline]
    fn interact_pair(
        &self,
        si: &GeomState,
        _: &(),
        sj: &GeomState,
        _: &(),
        out_i: &mut Moments,
        out_j: &mut Moments,
    ) {
        let dr = [
            si.pos[0] - sj.pos[0],
            si.pos[1] - sj.pos[1],
            si.pos[2] - sj.pos[2],
        ];
        let r2 = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2];
        if may_interact(r2, self.kernel.support() * si.h.max(sj.h)) {
            let r = r2.sqrt();
            let wi = self.kernel.w(r, si.h);
            let wj = if sj.h.to_bits() == si.h.to_bits() {
                wi
            } else {
                self.kernel.w(r, sj.h)
            };
            if wi > 0.0 {
                out_i.accumulate(sj.m_or_v, wi, &dr);
            }
            if wj > 0.0 {
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
pub struct VelGradState {
    /// Position.
    pub pos: [f64; 3],
    /// Velocity.
    pub vel: [f64; 3],
    /// Smoothing length.
    pub h: f64,
    /// Volume.
    pub vol: f64,
}

/// Accumulated velocity gradients.
#[derive(Debug, Clone, Copy, Default)]
pub struct VelGradAccum {
    /// Divergence of the velocity field.
    pub div: f64,
    /// Curl components.
    pub curl: [f64; 3],
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

impl<K: SphKernel> SplitKernel for VelGradKernel<K> {
    // k1: bind K = CubicSpline
    type State = VelGradState;
    type Partial = ();
    type Accum = VelGradAccum;

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
    // k1: tolerance(muls = 3)
    fn pair_flops(&self) -> PairFlops {
        // Statically audited by hacc-lint K1 against `interact_pair`
        // (general h_i != h_j, both sides in support; the support
        // pre-filter's 3 muls per candidate are the tolerance). The old hand
        // audit billed the div/curl accumulations as mul+add; the
        // compiler fuses every `acc += a * b` spine to an FMA, which
        // is what the derived count (and the hardware) sees.
        PairFlops {
            adds: 14,
            muls: 31,
            fmas: 20,
            trans: 11,
        }
    }
    fn partial(&self, _s: &VelGradState) {}
    /// The support radius: `may_interact` rejects a pair beyond the
    /// larger of the two.
    #[inline]
    fn reach(&self, s: &VelGradState) -> Option<([f64; 3], f64)> {
        Some((s.pos, self.kernel.support() * s.h))
    }
    fn translated(&self, s: &VelGradState, by: [f64; 3]) -> VelGradState {
        VelGradState {
            pos: [0, 1, 2].map(|d| s.pos[d] + by[d]),
            ..*s
        }
    }

    #[inline]
    fn interact(&self, si: &VelGradState, _: &(), sj: &VelGradState, _: &(), out: &mut VelGradAccum) {
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
        let dw = if r == 0.0 { 0.0 } else { self.kernel.dw_dr(r, si.h) };
        if dw != 0.0 {
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
        si: &VelGradState,
        _: &(),
        sj: &VelGradState,
        _: &(),
        out_i: &mut VelGradAccum,
        out_j: &mut VelGradAccum,
    ) {
        let dr = [
            si.pos[0] - sj.pos[0],
            si.pos[1] - sj.pos[1],
            si.pos[2] - sj.pos[2],
        ];
        let r2 = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2];
        if may_interact(r2, self.kernel.support() * si.h.max(sj.h)) {
            let r = r2.sqrt();
            // Self-pair lanes mask to zero slopes instead of an early exit
            // (V1); the two predicated scatter blocks below then skip them
            // exactly as the old `return` did.
            let (dwi, dwj) = if r == 0.0 {
                (0.0, 0.0)
            } else {
                let dwi = self.kernel.dw_dr(r, si.h);
                let dwj = if sj.h.to_bits() == si.h.to_bits() {
                    dwi
                } else {
                    self.kernel.dw_dr(r, sj.h)
                };
                (dwi, dwj)
            };
            if dwi != 0.0 {
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
            if dwj != 0.0 {
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
pub struct ForceState {
    /// Position.
    pub pos: [f64; 3],
    /// Velocity.
    pub vel: [f64; 3],
    /// Smoothing length.
    pub h: f64,
    /// Pressure.
    pub p: f64,
    /// Density.
    pub rho: f64,
    /// Sound speed.
    pub cs: f64,
    /// Volume.
    pub vol: f64,
    /// Balsara viscosity limiter in [0, 1] (1 = full viscosity).
    pub balsara: f64,
    /// CRK corrections.
    pub corr: CrkCorrections,
}

/// Accumulator of the force kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct ForceAccum {
    /// `m_i dv_i/dt` — momentum rate (divide by mass downstream).
    pub mom: [f64; 3],
    /// `m_i du_i/dt` — thermal energy rate.
    pub eng: f64,
    /// Maximum signal velocity seen (for the CFL timestep).
    pub vsig: f64,
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

impl<K: SphKernel> SplitKernel for ForceKernel<K> {
    // k1: bind K = CubicSpline
    type State = ForceState;
    type Partial = ();
    type Accum = ForceAccum;

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
        PairFlops {
            muls: 2,
            ..Default::default()
        }
    }
    // k1: tolerance(muls = 2)
    fn pair_flops(&self) -> PairFlops {
        // Statically audited by hacc-lint K1 against `interact_pair`
        // (general h_i != h_j, in support, viscosity branch taken,
        // fused cubic-spline W/dW). The table bills the interacting
        // path only; the squared-radius pre-filter costs 2 extra muls
        // on every candidate pair, interacting or not, and is carried
        // as the `k1: tolerance(muls = 2)` annotation above rather
        // than folded into the model.
        PairFlops {
            adds: 27,
            muls: 71,
            fmas: 24,
            trans: 11,
        }
    }
    fn partial(&self, _s: &ForceState) {}
    /// The support radius: `may_interact` rejects a pair beyond the
    /// larger of the two.
    #[inline]
    fn reach(&self, s: &ForceState) -> Option<([f64; 3], f64)> {
        Some((s.pos, self.kernel.support() * s.h))
    }
    fn translated(&self, s: &ForceState, by: [f64; 3]) -> ForceState {
        ForceState {
            pos: [0, 1, 2].map(|d| s.pos[d] + by[d]),
            ..*s
        }
    }

    #[inline]
    fn interact(&self, si: &ForceState, _: &(), sj: &ForceState, _: &(), out: &mut ForceAccum) {
        let dr = [
            si.pos[0] - sj.pos[0],
            si.pos[1] - sj.pos[1],
            si.pos[2] - sj.pos[2],
        ];
        let r2 = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2];
        let r = r2.sqrt();
        let support = self.kernel.support();
        // Out-of-support and self-pair lanes are masked by predicating
        // the whole pair term (V1) — the exact complement of the old
        // early exit, so the accepted-lane arithmetic is bit-identical.
        if !(r >= support * si.h.max(sj.h) || r == 0.0) {
            let wi = self.kernel.w(r, si.h);
            let dwi = self.kernel.dw_dr(r, si.h);
            let wj = self.kernel.w(r, sj.h);
            let dwj = self.kernel.dw_dr(r, sj.h);

            // i-centered corrected gradient wrt r_i, and j-centered wrt r_j.
            let gi = corrected_grad_w(&si.corr, wi, dwi, &dr, r);
            let drj = [-dr[0], -dr[1], -dr[2]];
            let gj = corrected_grad_w(&sj.corr, wj, dwj, &drj, r);
            let g = [
                0.5 * (gi[0] - gj[0]),
                0.5 * (gi[1] - gj[1]),
                0.5 * (gi[2] - gj[2]),
            ];

            // Monaghan viscosity on approaching pairs.
            let dv = [
                si.vel[0] - sj.vel[0],
                si.vel[1] - sj.vel[1],
                si.vel[2] - sj.vel[2],
            ];
            let vdotr = dv[0] * dr[0] + dv[1] * dr[1] + dv[2] * dr[2];
            let hbar = 0.5 * (si.h + sj.h);
            let rho_bar = 0.5 * (si.rho + sj.rho);
            let cbar = 0.5 * (si.cs + sj.cs);
            let q = if vdotr < 0.0 {
                let mu = hbar * vdotr / (r2 + self.opts.eps_visc * hbar * hbar);
                let limiter = 0.5 * (si.balsara + sj.balsara);
                (-self.opts.alpha_visc * cbar * mu + self.opts.beta_visc * mu * mu)
                    * rho_bar
                    * limiter
            } else {
                0.0
            };

            let x = si.vol * sj.vol * (si.p + sj.p + q);
            out.mom[0] -= x * g[0];
            out.mom[1] -= x * g[1];
            out.mom[2] -= x * g[2];
            out.eng += 0.5 * x * (dv[0] * g[0] + dv[1] * g[1] + dv[2] * g[2]);

            // Signal velocity for the CFL condition.
            let w_rel = (vdotr / r).min(0.0);
            let vsig = si.cs + sj.cs - 3.0 * w_rel;
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
        si: &ForceState,
        _: &(),
        sj: &ForceState,
        _: &(),
        out_i: &mut ForceAccum,
        out_j: &mut ForceAccum,
    ) {
        let dr = [
            si.pos[0] - sj.pos[0],
            si.pos[1] - sj.pos[1],
            si.pos[2] - sj.pos[2],
        ];
        let r2 = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2];
        let cut = self.kernel.support() * si.h.max(sj.h);
        // Clearly-out-of-support pairs skip the sqrt entirely; pairs in
        // the boundary band fall through to the exact one-sided check,
        // keeping the symmetric path bitwise identical to `interact`.
        // Both rejection tests are nested masks (V1): the inner
        // predicate is the exact complement of the old early exit, so
        // accepted lanes compute bit-identically to `interact`.
        if may_interact(r2, cut) {
            let r = r2.sqrt();
            if !(r >= cut || r == 0.0) {
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
                    0.5 * (gi[0] - gj[0]),
                    0.5 * (gi[1] - gj[1]),
                    0.5 * (gi[2] - gj[2]),
                ];

                let dv = [
                    si.vel[0] - sj.vel[0],
                    si.vel[1] - sj.vel[1],
                    si.vel[2] - sj.vel[2],
                ];
                let vdotr = dv[0] * dr[0] + dv[1] * dr[1] + dv[2] * dr[2];
                let hbar = 0.5 * (si.h + sj.h);
                let rho_bar = 0.5 * (si.rho + sj.rho);
                let cbar = 0.5 * (si.cs + sj.cs);
                let q = if vdotr < 0.0 {
                    let mu = hbar * vdotr / (r2 + self.opts.eps_visc * hbar * hbar);
                    let limiter = 0.5 * (si.balsara + sj.balsara);
                    (-self.opts.alpha_visc * cbar * mu + self.opts.beta_visc * mu * mu)
                        * rho_bar
                        * limiter
                } else {
                    0.0
                };

                let x = si.vol * sj.vol * (si.p + sj.p + q);
                out_i.mom[0] -= x * g[0];
                out_i.mom[1] -= x * g[1];
                out_i.mom[2] -= x * g[2];
                out_j.mom[0] += x * g[0];
                out_j.mom[1] += x * g[1];
                out_j.mom[2] += x * g[2];
                let e = 0.5 * x * (dv[0] * g[0] + dv[1] * g[1] + dv[2] * g[2]);
                out_i.eng += e;
                out_j.eng += e;

                let w_rel = (vdotr / r).min(0.0);
                let vsig = si.cs + sj.cs - 3.0 * w_rel;
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
}
