//! Fig. 4 companion — *measured* weak scaling of the cooperative rank
//! scheduler at 64/256/1024 multiplexed ranks.
//!
//! `fig4_scaling` sweeps the full driver at 1–8 ranks and
//! extrapolates; this target measures the communication runtime itself
//! at world sizes that oversubscribe the host by orders of magnitude,
//! which the cooperative executor in `hacc_rt::sched` makes possible.
//!
//! The workload holds per-rank work near-constant (weak scaling): each
//! round is a dissemination barrier (⌈log₂ n⌉ hops per rank), a
//! broadcast from a rotating root (amortized one hop per rank), and a
//! point-to-point ring hop — all with closed-form payloads every rank
//! self-checks in O(1). The gather-based collectives (all-reduce,
//! exscan, all-gather, all-to-all-v) are deliberately excluded: their
//! per-rank payload is O(n) by contract (rank-ordered bitwise folds),
//! so including them would measure payload growth, not the scheduler.
//! The `smoke` workload in the scaling tests covers those for
//! correctness.
//!
//! The quantity that stays flat under ideal multiplexing on a fixed
//! host is *envelope hops per second*: every hop is one send plus one
//! matching receive, i.e. one park/wake round-trip through the
//! scheduler when the receiver ran ahead of the sender. Weak
//! efficiency at n ranks = hops/s at n ÷ hops/s at the 64-rank base;
//! queue contention, park/wake cost, or any per-wake scan over the
//! world bends the curve down.
//!
//! Metric names carry no `_per_s`/`_speedup` suffix: scheduler
//! efficiency on a shared CI box is informational, not ratcheted.

use hacc_bench::{baseline, compare, print_table};
use hacc_ranks::{smoke::mix, Comm, World};

/// World sizes for the weak-scaling sweep; 64 is the base point.
const SIZES: [usize; 3] = [64, 256, 1024];

/// Envelope hops one rank contributes per round: ⌈log₂ n⌉ barrier
/// sends, amortized one broadcast send, one ring send.
fn hops_per_rank_round(n: usize) -> f64 {
    let log2 = usize::BITS - (n - 1).leading_zeros();
    log2 as f64 + (n - 1) as f64 / n as f64 + 1.0
}

/// One weak round: barrier + rotating-root broadcast + ring hop, all
/// payloads closed-form in `(seed, round, rank)` and checked in O(1).
fn weak_round(comm: &mut Comm, seed: u64, round: u64) {
    let n = comm.size();
    let me = comm.rank();
    let s = mix(&[seed, round]);

    comm.barrier();

    let root = (mix(&[s, 1]) % n as u64) as usize;
    let want = mix(&[s, 2, root as u64]);
    let got = comm.broadcast(root, mix(&[s, 2, me as u64]));
    assert_eq!(got, want, "rank {me}: broadcast from {root}");

    let right = (me + 1) % n;
    let left = (me + n - 1) % n;
    let tag = mix(&[s, 3]) & !(0b11 << 62); // keep reserved high bits clear
    comm.send(right, tag, mix(&[s, 4, me as u64]));
    let got: u64 = comm.recv(left, tag);
    assert_eq!(got, mix(&[s, 4, left as u64]), "rank {me}: ring from {left}");
}

/// Wall time for `rounds` weak rounds at `n` cooperative ranks,
/// best-of-`reps` to damp shared-box timer noise.
fn measure(n: usize, rounds: usize, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for rep in 0..reps {
        let seed = 0xF1_64u64 ^ (n as u64) ^ ((rep as u64) << 32);
        let t0 = std::time::Instant::now();
        World::run(n, move |c| {
            for round in 0..rounds as u64 {
                weak_round(c, seed, round);
            }
        });
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let rounds = 48;
    let reps = 3;

    // Warm the allocator and the scheduler's lane pool once.
    measure(SIZES[0], 2, 1);

    let times: Vec<f64> =
        SIZES.iter().map(|&n| measure(n, rounds, reps)).collect();

    let rate = |i: usize| {
        let n = SIZES[i];
        n as f64 * rounds as f64 * hops_per_rank_round(n) / times[i]
    };
    let base = rate(0);
    let effs: Vec<f64> = (0..SIZES.len()).map(|i| rate(i) / base).collect();

    let rows: Vec<Vec<String>> = SIZES
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            vec![
                n.to_string(),
                rounds.to_string(),
                format!("{:.1}", hops_per_rank_round(n)),
                format!("{:.3}", times[i]),
                format!("{:.2e}", rate(i)),
                format!("{:.0}%", effs[i] * 100.0),
            ]
        })
        .collect();
    print_table(
        "Fig. 4 companion — cooperative-scheduler weak scaling (measured)",
        &["ranks", "rounds", "hops/rank·round", "wall [s]", "hops/s", "weak eff"],
        &rows,
    );
    println!(
        "  ({} worker lane(s); every world size above oversubscribes them)",
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    );

    // The paper's 95% is across real nodes with per-node resources; on
    // one oversubscribed host the per-hop cost is a kernel thread
    // switch whose price grows with the resident world's cache/TLB
    // footprint, so some decay is physical. The verdict line guards
    // against *algorithmic* regressions instead: any per-wake or
    // per-send scan over the world (O(n) per hop) would put the
    // 1024-rank point near 5–10%, far below the floor.
    let eff_1024 = effs[SIZES.len() - 1];
    compare(
        "weak efficiency, 64 -> 1024 multiplexed ranks",
        "95% (128 -> 9,000 nodes)",
        &format!("{:.0}% measured on real hops", eff_1024 * 100.0),
        eff_1024 > 0.25,
    );

    baseline::record(&[
        ("ranks_weak_eff_64", effs[0]),
        ("ranks_weak_eff_256", effs[1]),
        ("ranks_weak_eff_1024", effs[2]),
        ("ranks_weak_base_hoprate", base),
        ("ranks_weak_wall_s_1024", times[2]),
    ]);
}
