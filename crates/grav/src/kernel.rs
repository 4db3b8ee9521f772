//! The short-range gravity pair kernel.

use crate::split::ForceSplitTable;
use hacc_gpusim::{PairFlops, SplitKernel};

/// Per-particle state of the gravity kernel.
#[derive(Debug, Clone, Copy)]
pub struct GravState {
    /// Position.
    pub pos: [f64; 3],
    /// Mass.
    pub mass: f64,
}

/// Accumulated acceleration (`G = 1` internally; scale by `G` downstream).
#[derive(Debug, Clone, Copy, Default)]
pub struct GravAccum {
    /// Acceleration components.
    pub acc: [f64; 3],
}

/// `a_i += -m_j g(r) (r_i - r_j)` with the tabulated split factor `g`.
#[derive(Debug, Clone)]
pub struct GravityKernel {
    /// The splitting/softening table.
    pub table: ForceSplitTable,
}

impl SplitKernel for GravityKernel {
    type State = GravState;
    type Partial = ();
    type Accum = GravAccum;

    fn name(&self) -> &'static str {
        "grav_short_range"
    }
    fn state_words(&self) -> u64 {
        4
    }
    fn partial_words(&self) -> u64 {
        1 // shuffle payload: partner mass
    }
    fn accum_words(&self) -> u64 {
        3
    }
    fn partial_flops(&self) -> PairFlops {
        PairFlops::default()
    }
    fn pair_flops(&self) -> PairFlops {
        // One unordered pair on the symmetric path, audited against
        // `interact_pair`:
        //   dr (3 add); r2 (1 mul + 2 fma);
        //   eval_r2: x = r2*inv_dr2 (1 mul), f = x - i (1 add),
        //     lerp b-a then a+(b-a)f (1 add + 1 fma),
        //     r2_soft = r2 + eps2 (1 add),
        //     norm = r2_soft*sqrt(r2_soft) (1 mul + 1 sqrt),
        //     fraction/norm (1 div);
        //   scatter both sides: s_i, s_j (2 mul) + 6 fma.
        // sqrt and div each count as one transcendental.
        PairFlops {
            adds: 6,
            muls: 5,
            fmas: 9,
            trans: 2,
        }
    }
    fn partial(&self, _s: &GravState) {}

    /// `eval_r2` is zero from `r_cut²` on, and a zero `g` scatters nothing.
    #[inline]
    fn reach(&self, s: &GravState) -> Option<([f64; 3], f64)> {
        Some((s.pos, self.table.r_cut()))
    }

    fn translated(&self, s: &GravState, by: [f64; 3]) -> GravState {
        GravState {
            pos: [0, 1, 2].map(|d| s.pos[d] + by[d]),
            ..*s
        }
    }

    #[inline]
    fn interact(&self, si: &GravState, _: &(), sj: &GravState, _: &(), out: &mut GravAccum) {
        let dx = si.pos[0] - sj.pos[0];
        let dy = si.pos[1] - sj.pos[1];
        let dz = si.pos[2] - sj.pos[2];
        let r2 = dx * dx + dy * dy + dz * dz;
        let g = self.table.eval_r2(r2);
        if g != 0.0 {
            let s = sj.mass * g;
            out.acc[0] -= s * dx;
            out.acc[1] -= s * dy;
            out.acc[2] -= s * dz;
        }
    }

    /// Symmetric path: separation, squared radius, and the table lookup
    /// (the sqrt + divide that dominate the pair cost) are computed once
    /// and scattered into both accumulators. Bitwise identical per side
    /// to the one-sided `interact` calls: squares absorb the sign of the
    /// reversed separation and `x -= s*d` ≡ `x += s*(-d)` exactly.
    #[inline]
    fn interact_pair(
        &self,
        si: &GravState,
        _: &(),
        sj: &GravState,
        _: &(),
        out_i: &mut GravAccum,
        out_j: &mut GravAccum,
    ) {
        let dx = si.pos[0] - sj.pos[0];
        let dy = si.pos[1] - sj.pos[1];
        let dz = si.pos[2] - sj.pos[2];
        let r2 = dx * dx + dy * dy + dz * dz;
        let g = self.table.eval_r2(r2);
        if g != 0.0 {
            let s_i = sj.mass * g;
            let s_j = si.mass * g;
            out_i.acc[0] -= s_i * dx;
            out_i.acc[1] -= s_i * dy;
            out_i.acc[2] -= s_i * dz;
            out_j.acc[0] += s_j * dx;
            out_j.acc[1] += s_j * dy;
            out_j.acc[2] += s_j * dz;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> GravityKernel {
        GravityKernel {
            table: ForceSplitTable::new(1.0, 0.0, 8192),
        }
    }

    #[test]
    fn attraction_along_separation() {
        let k = kernel();
        let a = GravState {
            pos: [0.0; 3],
            mass: 1.0,
        };
        let b = GravState {
            pos: [2.0, 0.0, 0.0],
            mass: 3.0,
        };
        let mut acc = GravAccum::default();
        k.interact(&a, &(), &b, &(), &mut acc);
        assert!(acc.acc[0] > 0.0, "a should be pulled toward b (+x)");
        assert_eq!(acc.acc[1], 0.0);
        assert_eq!(acc.acc[2], 0.0);
    }

    #[test]
    fn newtons_third_law() {
        let k = kernel();
        let a = GravState {
            pos: [0.1, -0.4, 0.7],
            mass: 2.0,
        };
        let b = GravState {
            pos: [1.0, 0.6, -0.3],
            mass: 5.0,
        };
        let mut fa = GravAccum::default();
        let mut fb = GravAccum::default();
        k.interact(&a, &(), &b, &(), &mut fa);
        k.interact(&b, &(), &a, &(), &mut fb);
        for d in 0..3 {
            // m_a * a_a = -m_b * a_b.
            assert!(
                (a.mass * fa.acc[d] + b.mass * fb.acc[d]).abs() < 1e-12,
                "third-law violation in {d}"
            );
        }
    }

    #[test]
    fn close_pair_is_nearly_newtonian() {
        let k = kernel();
        let r = 0.1;
        let a = GravState {
            pos: [0.0; 3],
            mass: 1.0,
        };
        let b = GravState {
            pos: [r, 0.0, 0.0],
            mass: 1.0,
        };
        let mut acc = GravAccum::default();
        k.interact(&a, &(), &b, &(), &mut acc);
        let newton = 1.0 / (r * r);
        assert!((acc.acc[0] / newton - 1.0).abs() < 0.01);
    }

    #[test]
    fn symmetric_pair_matches_one_sided_bitwise() {
        let k = kernel();
        // Awkward separations, including near the table cutoff.
        let cases = [
            ([0.1, -0.4, 0.7], [1.0, 0.6, -0.3]),
            ([0.0; 3], [1e-3, 0.0, 0.0]),
            ([0.0; 3], [4.0, 3.0, 2.0]),
            ([2.0, 2.0, 2.0], [2.0, 2.0, 6.9]),
        ];
        for (pa, pb) in cases {
            let a = GravState { pos: pa, mass: 2.0 };
            let b = GravState { pos: pb, mass: 5.0 };
            let mut ref_a = GravAccum::default();
            let mut ref_b = GravAccum::default();
            k.interact(&a, &(), &b, &(), &mut ref_a);
            k.interact(&b, &(), &a, &(), &mut ref_b);
            let mut sym_a = GravAccum::default();
            let mut sym_b = GravAccum::default();
            k.interact_pair(&a, &(), &b, &(), &mut sym_a, &mut sym_b);
            assert_eq!(sym_a.acc, ref_a.acc, "i-side {pa:?} {pb:?}");
            assert_eq!(sym_b.acc, ref_b.acc, "j-side {pa:?} {pb:?}");
        }
    }

    #[test]
    fn symmetric_pair_conserves_momentum() {
        let k = kernel();
        let a = GravState {
            pos: [0.1, -0.4, 0.7],
            mass: 2.0,
        };
        let b = GravState {
            pos: [1.0, 0.6, -0.3],
            mass: 5.0,
        };
        let mut fa = GravAccum::default();
        let mut fb = GravAccum::default();
        k.interact_pair(&a, &(), &b, &(), &mut fa, &mut fb);
        for d in 0..3 {
            assert!(
                (a.mass * fa.acc[d] + b.mass * fb.acc[d]).abs() < 1e-12,
                "third-law violation in {d} on the symmetric path"
            );
        }
    }

    #[test]
    fn far_pair_feels_nothing() {
        let k = kernel(); // cutoff at 7 r_s = 7
        let a = GravState {
            pos: [0.0; 3],
            mass: 1.0,
        };
        let b = GravState {
            pos: [8.0, 0.0, 0.0],
            mass: 1.0e6,
        };
        let mut acc = GravAccum::default();
        k.interact(&a, &(), &b, &(), &mut acc);
        assert_eq!(acc.acc, [0.0; 3]);
    }
}
