//! The one-sided oracle of the leaf-pair executor.
//!
//! [`execute_leaf_pair_reference`] and [`execute_leaf_self_reference`]
//! evaluate every ordered pair through the one-sided
//! [`SplitKernel::interact`], and [`sweep`] walks an interaction list
//! through them with exactly the signature of the production
//! [`crate::sweep`]. Nothing in production reaches this module: the
//! tiled-vs-reference tests of this crate, `hacc-grav` and `hacc-sph`
//! swap one sweep for the other over the same list and assert the same
//! bits, and the short-range micro-benchmark times the two head to head.
//!
//! [`Counted`] is the other oracle: the scalar that counts the
//! arithmetic a kernel body runs, against which the tests pin every
//! `pair_flops()` table.

use std::cell::Cell;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::counters::{KernelCounters, PairFlops};
use crate::device::DeviceSpec;
use crate::exec::{count_pair, ExecMode, SplitKernel};
use crate::real::Real;

thread_local! {
    static TALLY: Cell<PairFlops> = const {
        Cell::new(PairFlops { adds: 0, muls: 0, fmas: 0, trans: 0 })
    };
}

/// Add one operation to this thread's tally.
fn tick(op: impl FnOnce(&mut PairFlops) -> &mut u64) {
    TALLY.with(|t| {
        let mut tally = t.get();
        *op(&mut tally) += 1;
        t.set(tally);
    });
}

/// An `f64` that counts the arithmetic done on it, under the paper's
/// convention (DESIGN.md, "FLOP tables"): `+` and `-` are adds, `*` a
/// mul, `/` and `sqrt` transcendentals, `mul_add` an FMA (only where it
/// is written), `powi(n)` its `n - 1` muls; unary minus, comparisons,
/// `min`, `max`, `c`, `to_f64` and `to_bits` are free. The count is
/// per thread; [`Counted::take_tally`] reads and clears it.
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct Counted(pub f64);

impl Counted {
    /// The operations counted on this thread since the last call.
    pub fn take_tally() -> PairFlops {
        TALLY.with(Cell::take)
    }
}

macro_rules! counted_op {
    ($Op:ident :: $op:ident, $OpAssign:ident :: $op_assign:ident, $field:ident) => {
        impl $Op for Counted {
            type Output = Counted;
            fn $op(self, other: Counted) -> Counted {
                tick(|t| &mut t.$field);
                Counted($Op::$op(self.0, other.0))
            }
        }
        impl $OpAssign for Counted {
            fn $op_assign(&mut self, other: Counted) {
                *self = $Op::$op(*self, other);
            }
        }
    };
}

counted_op!(Add::add, AddAssign::add_assign, adds);
counted_op!(Sub::sub, SubAssign::sub_assign, adds);
counted_op!(Mul::mul, MulAssign::mul_assign, muls);
counted_op!(Div::div, DivAssign::div_assign, trans);

impl Neg for Counted {
    type Output = Counted;
    fn neg(self) -> Counted {
        Counted(-self.0)
    }
}

impl Real for Counted {
    fn c(x: f64) -> Counted {
        Counted(x)
    }
    fn sqrt(self) -> Counted {
        tick(|t| &mut t.trans);
        Counted(self.0.sqrt())
    }
    fn min(self, other: Counted) -> Counted {
        Counted(self.0.min(other.0))
    }
    fn max(self, other: Counted) -> Counted {
        Counted(self.0.max(other.0))
    }
    fn powi(self, n: i32) -> Counted {
        for _ in 1..n {
            tick(|t| &mut t.muls);
        }
        Counted(self.0.powi(n))
    }
    fn mul_add(self, a: Counted, b: Counted) -> Counted {
        tick(|t| &mut t.fmas);
        Counted(self.0.mul_add(a.0, b.0))
    }
    fn to_f64(self) -> f64 {
        self.0
    }
    fn to_bits(self) -> u64 {
        self.0.to_bits()
    }
}

/// The pre-fix cross-leaf executor, kept as the reference implementation:
/// every ordered `(i, j)` is evaluated from both sides through the
/// one-sided [`SplitKernel::interact`], doing 2x the pair-term work the
/// cost model credits. Used by the tiled-vs-reference tests and the
/// short-range micro-benchmarks; results are bit-identical to
/// [`crate::execute_leaf_pair`] for kernels honoring the `interact_pair`
/// contract.
pub fn execute_leaf_pair_reference<K: SplitKernel>(
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
    let partials_i: Vec<K::Partial> = states_i.iter().map(|s| kernel.partial(s)).collect();
    let partials_j: Vec<K::Partial> = states_j.iter().map(|s| kernel.partial(s)).collect();
    for (i, (si, pi)) in states_i.iter().zip(&partials_i).enumerate() {
        for (j, (sj, pj)) in states_j.iter().zip(&partials_j).enumerate() {
            kernel.interact(si, pi, sj, pj, &mut accum_i[i]);
            kernel.interact(sj, pj, si, pi, &mut accum_j[j]);
        }
    }
    count_pair(kernel, dev, mode, states_i.len(), states_j.len(), false, counters);
}

/// The pre-fix self-leaf executor (all ordered `i != j` pairs through the
/// one-sided hook), kept as the reference implementation alongside
/// [`execute_leaf_pair_reference`].
pub fn execute_leaf_self_reference<K: SplitKernel>(
    kernel: &K,
    dev: &DeviceSpec,
    mode: ExecMode,
    states: &[K::State],
    accum: &mut [K::Accum],
    counters: &mut KernelCounters,
) {
    assert_eq!(states.len(), accum.len());
    if states.len() < 2 {
        return;
    }
    let partials: Vec<K::Partial> = states.iter().map(|s| kernel.partial(s)).collect();
    for i in 0..states.len() {
        for j in 0..states.len() {
            if i == j {
                continue;
            }
            let (si, pi) = (&states[i], &partials[i]);
            let (sj, pj) = (&states[j], &partials[j]);
            kernel.interact(si, pi, sj, pj, &mut accum[i]);
        }
    }
    count_pair(kernel, dev, mode, states.len(), states.len(), true, counters);
}

/// [`crate::sweep`] through the one-sided executors: the same list walked
/// dense, self pairs through [`execute_leaf_self_reference`] and cross
/// pairs through [`execute_leaf_pair_reference`]. A cross pair that meets
/// through `image` sweeps `a` against a copy of `b`'s states moved by
/// [`SplitKernel::translated`], and `b`'s accumulators take the result in
/// place. Nothing is compacted: `counters.pairs` is the list-sized count
/// and `counters.culled_pairs` stays zero.
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
    let mut moved = Vec::new();
    for &(a, b) in pairs {
        let ra = leaf_range(a);
        if a == b {
            let (s, acc) = (&states[ra.clone()], &mut accums[ra]);
            execute_leaf_self_reference(kernel, dev, mode, s, acc, counters);
            continue;
        }
        let rb = leaf_range(b);
        debug_assert!(ra.end <= rb.start, "leaf ranges must be ordered");
        let mut sj = &states[rb.clone()];
        if let Some(by) = image(a, b) {
            moved.clear();
            moved.extend(sj.iter().map(|s| kernel.translated(s, by)));
            sj = &moved;
        }
        let (left, right) = accums.split_at_mut(rb.start);
        let (si, ai, aj) = (&states[ra.clone()], &mut left[ra], &mut right[..rb.len()]);
        execute_leaf_pair_reference(kernel, dev, mode, si, sj, ai, aj, counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counted_tallies_by_the_paper_convention() {
        Counted::take_tally();
        let (a, b) = (Counted(3.0), Counted(2.0));
        let mut x = a * b + a - b / b;
        x -= a.sqrt();
        x += -a.mul_add(b, a).powi(3);
        let free = (x < a, x.min(a), x.max(b), -x, Counted::c(1.5), x.to_f64(), x.to_bits());
        let tally = Counted::take_tally();
        assert_eq!(tally, PairFlops { adds: 4, muls: 3, fmas: 1, trans: 2 }, "{free:?}");
        assert_eq!(tally.total(), 4 + 3 + 2 * 1 + 2);
        assert_eq!(Counted::take_tally(), PairFlops::default(), "the read clears the tally");
        assert_eq!(x.0, 3.0 * 2.0 + 3.0 - 1.0 - 3f64.sqrt() - 9f64.powi(3));
    }
}
