//! Reproducing-kernel corrections: moments and linear-order coefficients.
//!
//! The corrected kernel is `W^R_ij = A_i (1 + B_i · (r_i - r_j)) W_ij`.
//! Requiring exact reproduction of constant and linear fields yields
//! (Frontiere, Raskin & Owen 2017, eqs. 12-17):
//!
//! ```text
//! B_i = -m2_i^{-1} m1_i
//! A_i = 1 / (m0_i + B_i · m1_i)
//! ```
//!
//! with the geometric moments over neighbor volumes `V_j`:
//!
//! ```text
//! m0_i = sum_j V_j W_ij
//! m1_i = sum_j V_j (r_i - r_j) W_ij
//! m2_i = sum_j V_j (r_i - r_j) ⊗ (r_i - r_j) W_ij
//! ```

use hacc_gpusim::Real;

/// Accumulated kernel moments for one particle. `m2` is symmetric and
/// stored as `[xx, xy, xz, yy, yz, zz]`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Moments<T = f64> {
    /// Zeroth moment.
    pub m0: T,
    /// First moment (vector).
    pub m1: [T; 3],
    /// Second moment (symmetric 3×3, packed upper triangle).
    pub m2: [T; 6],
}

impl<T: Real> Moments<T> {
    /// Accumulate the contribution of a neighbor with volume `v`, kernel
    /// value `w`, and separation `dr = r_i - r_j`.
    #[inline]
    pub fn accumulate(&mut self, v: T, w: T, dr: &[T; 3]) {
        let vw = v * w;
        self.m0 += vw;
        for d in 0..3 {
            self.m1[d] += vw * dr[d];
        }
        self.m2[0] += vw * dr[0] * dr[0];
        self.m2[1] += vw * dr[0] * dr[1];
        self.m2[2] += vw * dr[0] * dr[2];
        self.m2[3] += vw * dr[1] * dr[1];
        self.m2[4] += vw * dr[1] * dr[2];
        self.m2[5] += vw * dr[2] * dr[2];
    }
}

/// Linear-order correction coefficients for one particle.
#[derive(Debug, Clone, Copy)]
pub struct CrkCorrections<T = f64> {
    /// Multiplicative normalization.
    pub a: T,
    /// Linear correction vector.
    pub b: [T; 3],
}

impl<T: Real> Default for CrkCorrections<T> {
    fn default() -> Self {
        Self {
            a: T::c(1.0),
            b: [T::c(0.0); 3],
        }
    }
}

/// Invert a symmetric 3×3 matrix packed `[xx, xy, xz, yy, yz, zz]`.
/// Returns `None` when (nearly) singular.
pub fn invert_sym3(m: &[f64; 6]) -> Option<[f64; 6]> {
    let (xx, xy, xz, yy, yz, zz) = (m[0], m[1], m[2], m[3], m[4], m[5]);
    let det = xx * (yy * zz - yz * yz) - xy * (xy * zz - yz * xz)
        + xz * (xy * yz - yy * xz);
    // Relative-scale singularity guard.
    let scale = xx.abs().max(yy.abs()).max(zz.abs());
    if scale == 0.0 || det.abs() < 1e-12 * scale * scale * scale {
        return None;
    }
    let inv_det = 1.0 / det;
    Some([
        (yy * zz - yz * yz) * inv_det,  // xx
        (xz * yz - xy * zz) * inv_det,  // xy
        (xy * yz - xz * yy) * inv_det,  // xz
        (xx * zz - xz * xz) * inv_det,  // yy
        (xz * xy - xx * yz) * inv_det,  // yz
        (xx * yy - xy * xy) * inv_det,  // zz
    ])
}

/// Symmetric-packed matrix-vector product.
#[inline]
pub fn sym3_mul(m: &[f64; 6], v: &[f64; 3]) -> [f64; 3] {
    [
        m[0] * v[0] + m[1] * v[1] + m[2] * v[2],
        m[1] * v[0] + m[3] * v[1] + m[4] * v[2],
        m[2] * v[0] + m[4] * v[1] + m[5] * v[2],
    ]
}

/// Solve the correction coefficients from accumulated moments. Falls back
/// to the zeroth-order (Shepard) correction `A = 1/m0, B = 0` when the
/// second-moment matrix is singular (isolated particles, degenerate
/// neighbor geometry).
pub fn solve_corrections(m: &Moments) -> CrkCorrections {
    if m.m0 <= 0.0 {
        return CrkCorrections::default();
    }
    if let Some(inv) = invert_sym3(&m.m2) {
        let mb = sym3_mul(&inv, &m.m1);
        let b = [-mb[0], -mb[1], -mb[2]];
        let denom = m.m0 + b[0] * m.m1[0] + b[1] * m.m1[1] + b[2] * m.m1[2];
        if denom.abs() > 1e-12 * m.m0 {
            return CrkCorrections {
                a: 1.0 / denom,
                b,
            };
        }
    }
    CrkCorrections {
        a: 1.0 / m.m0,
        b: [0.0; 3],
    }
}

/// Evaluate the corrected kernel `W^R_ij` for separation `dr = r_i - r_j`.
#[inline]
pub fn corrected_w(c: &CrkCorrections, w: f64, dr: &[f64; 3]) -> f64 {
    c.a * (1.0 + c.b[0] * dr[0] + c.b[1] * dr[1] + c.b[2] * dr[2]) * w
}

/// Evaluate the corrected kernel gradient (dropping `∇A`, `∇B` terms;
/// see the crate docs): `∇W^R = A (1 + B·dr) ∇W + A B W`, where
/// `∇W = dw_dr * dr / |dr|`.
#[inline]
pub fn corrected_grad_w<T: Real>(
    c: &CrkCorrections<T>,
    w: T,
    dw_dr: T,
    dr: &[T; 3],
    r: T,
) -> [T; 3] {
    let lin = T::c(1.0) + c.b[0] * dr[0] + c.b[1] * dr[1] + c.b[2] * dr[2];
    let radial = if r > T::c(0.0) { dw_dr / r } else { T::c(0.0) };
    [
        c.a * (lin * radial * dr[0] + c.b[0] * w),
        c.a * (lin * radial * dr[1] + c.b[1] * w),
        c.a * (lin * radial * dr[2] + c.b[2] * w),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{CubicSpline, SphKernel};
    use hacc_rt::rand::{self, Rng, SeedableRng};

    #[test]
    fn invert_identity() {
        let id = [1.0, 0.0, 0.0, 1.0, 0.0, 1.0];
        let inv = invert_sym3(&id).unwrap();
        for (a, b) in inv.iter().zip(id.iter()) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn invert_roundtrip() {
        let m = [4.0, 1.0, 0.5, 3.0, 0.2, 5.0];
        let inv = invert_sym3(&m).unwrap();
        // Check M * M^-1 = I on basis vectors.
        for (i, e) in [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
            .iter()
            .enumerate()
        {
            let x = sym3_mul(&inv, e);
            let back = sym3_mul(&m, &x);
            for d in 0..3 {
                let expect = if d == i { 1.0 } else { 0.0 };
                assert!((back[d] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn singular_returns_none() {
        assert!(invert_sym3(&[0.0; 6]).is_none());
        // Rank-1: outer product of (1,1,1).
        assert!(invert_sym3(&[1.0, 1.0, 1.0, 1.0, 1.0, 1.0]).is_none());
    }

    /// The defining property: with exact volumes, the corrected kernel
    /// reproduces linear fields exactly at interior particles — even on a
    /// randomly perturbed particle arrangement where standard SPH fails.
    #[test]
    fn linear_field_reproduced_exactly() {
        let k = CubicSpline;
        let h = 1.3;
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        // Perturbed lattice, unit spacing, volume 1 each.
        let mut pts = Vec::new();
        let n = 8;
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    pts.push([
                        x as f64 + rng.gen_range(-0.2..0.2),
                        y as f64 + rng.gen_range(-0.2..0.2),
                        z as f64 + rng.gen_range(-0.2..0.2),
                    ]);
                }
            }
        }
        let field = |p: &[f64; 3]| 3.0 + 2.0 * p[0] - 1.5 * p[1] + 0.7 * p[2];
        // Pick an interior particle.
        let i = pts
            .iter()
            .position(|p| p.iter().all(|&c| c > 2.5 && c < 4.5))
            .unwrap();
        let ri = pts[i];
        let mut mom = Moments::default();
        for pj in &pts {
            let dr = [ri[0] - pj[0], ri[1] - pj[1], ri[2] - pj[2]];
            let r = (dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2]).sqrt();
            mom.accumulate(1.0, k.w(r, h), &dr);
        }
        let c = solve_corrections(&mom);
        // Corrected interpolation of the linear field.
        let mut interp = 0.0;
        let mut raw = 0.0;
        for pj in &pts {
            let dr = [ri[0] - pj[0], ri[1] - pj[1], ri[2] - pj[2]];
            let r = (dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2]).sqrt();
            let w = k.w(r, h);
            interp += corrected_w(&c, w, &dr) * field(pj);
            raw += w * field(pj); // uncorrected, volume 1
        }
        let exact = field(&ri);
        assert!(
            (interp - exact).abs() < 1e-10,
            "corrected: {interp} vs exact {exact}"
        );
        // And the correction genuinely matters on the perturbed lattice.
        assert!((raw - exact).abs() > 1e-3, "raw SPH accidentally exact?");
    }

    #[test]
    fn partition_of_unity() {
        // sum_j V_j W^R_ij = 1 exactly (constant reproduction).
        let k = CubicSpline;
        let h = 1.4;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut pts = Vec::new();
        for x in 0..7 {
            for y in 0..7 {
                for z in 0..7 {
                    pts.push([
                        x as f64 + rng.gen_range(-0.3..0.3),
                        y as f64 + rng.gen_range(-0.3..0.3),
                        z as f64 + rng.gen_range(-0.3..0.3),
                    ]);
                }
            }
        }
        let ri = pts[7 * 7 * 3 + 7 * 3 + 3];
        let mut mom = Moments::default();
        for pj in &pts {
            let dr = [ri[0] - pj[0], ri[1] - pj[1], ri[2] - pj[2]];
            let r = (dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2]).sqrt();
            mom.accumulate(1.0, k.w(r, h), &dr);
        }
        let c = solve_corrections(&mom);
        let total: f64 = pts
            .iter()
            .map(|pj| {
                let dr = [ri[0] - pj[0], ri[1] - pj[1], ri[2] - pj[2]];
                let r = (dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2]).sqrt();
                corrected_w(&c, k.w(r, h), &dr)
            })
            .sum();
        assert!((total - 1.0).abs() < 1e-12, "sum = {total}");
    }

    #[test]
    fn isolated_particle_falls_back_to_shepard() {
        let k = CubicSpline;
        let mut mom = Moments::default();
        mom.accumulate(2.0, k.w(0.0, 1.0), &[0.0; 3]); // only self
        let c = solve_corrections(&mom);
        assert!((c.a - 1.0 / mom.m0).abs() < 1e-12);
        assert_eq!(c.b, [0.0; 3]);
    }

    #[test]
    fn corrected_grad_matches_finite_difference() {
        // Gradient consistency of the implemented formula itself.
        let k = CubicSpline;
        let c = CrkCorrections {
            a: 1.1,
            b: [0.05, -0.02, 0.03],
        };
        let h = 1.0;
        let rj = [0.4, 0.3, -0.2];
        let eval = |ri: &[f64; 3]| {
            let dr = [ri[0] - rj[0], ri[1] - rj[1], ri[2] - rj[2]];
            let r = (dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2]).sqrt();
            corrected_w(&c, k.w(r, h), &dr)
        };
        let ri = [1.0, 0.8, 0.3];
        let dr = [ri[0] - rj[0], ri[1] - rj[1], ri[2] - rj[2]];
        let r = (dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2]).sqrt();
        let g = corrected_grad_w(&c, k.w(r, h), k.dw_dr(r, h), &dr, r);
        let eps = 1e-6;
        for d in 0..3 {
            let mut hi = ri;
            hi[d] += eps;
            let mut lo = ri;
            lo[d] -= eps;
            let fd = (eval(&hi) - eval(&lo)) / (2.0 * eps);
            assert!((g[d] - fd).abs() < 1e-5, "component {d}: {} vs {fd}", g[d]);
        }
    }
}
