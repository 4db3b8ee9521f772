//! Rule fixtures and the clean-workspace self-check.
//!
//! Every rule is demonstrated twice: a seeded fixture that MUST fire,
//! and a neighboring clean fixture that must NOT (the no-false-positive
//! half is what makes the gate adoptable). Fixture code lives inside
//! string literals, which the lexer treats as opaque — so nothing in
//! this file can trip the self-check that lints the repository itself.

use hacc_lint::{rules, Rule, Workspace};

fn findings(ws: &Workspace, rule: Rule) -> Vec<String> {
    rules::run_all(ws)
        .into_iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.render())
        .collect()
}

// ---------------------------------------------------------------- D1 --

#[test]
fn d1_hash_collection_in_golden_path_fires() {
    let ws = Workspace::from_sources(&[(
        "crates/telem/src/fixture.rs",
        r#"
            use std::collections::HashMap;
            pub fn report(m: &HashMap<u32, u64>) -> String {
                let mut out = String::new();
                for (k, v) in m.iter() {
                    out.push_str(&format!("{k}={v}\n"));
                }
                out
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::D1);
    assert!(!hits.is_empty(), "seeded HashMap iteration must fire");
    assert!(hits[0].contains("crates/telem/src/fixture.rs"));
}

#[test]
fn d1_btreemap_and_out_of_scope_hashmap_are_clean() {
    let ws = Workspace::from_sources(&[
        (
            "crates/telem/src/fixture.rs",
            r#"
                use std::collections::BTreeMap;
                pub fn report(m: &BTreeMap<u32, u64>) -> usize { m.len() }
                // A HashMap mentioned in a comment is not a finding.
                pub fn s() -> &'static str { "HashMap in a string is fine" }
            "#,
        ),
        (
            // mesh is not a golden-output path: scratch hash maps are fine.
            "crates/mesh/src/fixture.rs",
            "use std::collections::HashMap;\npub fn f() { let _m: HashMap<u8, u8> = HashMap::new(); }",
        ),
    ]);
    assert_eq!(findings(&ws, Rule::D1), Vec::<String>::new());
}

#[test]
fn d1_stray_wall_clock_in_telem_fires() {
    // The acceptance fixture: a stray Instant::now() in crates/telem.
    let ws = Workspace::from_sources(&[(
        "crates/telem/src/stray.rs",
        "pub fn t() -> f64 { let t0 = std::time::Instant::now(); t0.elapsed().as_secs_f64() }",
    )]);
    let hits = findings(&ws, Rule::D1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("Instant::now"));
}

#[test]
fn d1_wall_clock_is_allowed_in_blessed_modules_and_tests() {
    let ws = Workspace::from_sources(&[
        (
            "crates/bench/benches/b.rs",
            "pub fn t() { let _ = std::time::SystemTime::now(); }",
        ),
        (
            "crates/iosim/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::time::SystemTime::now(); }\n}",
        ),
        (
            "tests/integration.rs",
            "fn t() { let _ = std::time::Instant::now(); }",
        ),
    ]);
    assert_eq!(findings(&ws, Rule::D1), Vec::<String>::new());
}

#[test]
fn d1_timed_wait_is_a_clock_read_in_disguise() {
    // The shape of the deleted wall-clock deadlock scan, and its kin.
    let ws = Workspace::from_sources(&[
        (
            "crates/ranks/src/mailbox.rs",
            "pub fn nap(cv: &Cv, g: Guard, rx: &Rx) {\n\
                 let _ = cv.wait_timeout(g, TICK);\n\
                 std::thread::park_timeout(TICK);\n\
                 let _ = rx.recv_timeout(TICK);\n\
                 std::thread::sleep(TICK);\n\
                 let wait_timeout = 3; // a name, not a call\n\
             }\n\
             #[cfg(test)]\nmod tests {\n    fn t() { std::thread::sleep(TICK); }\n}",
        ),
        ("crates/bench/benches/b.rs", "pub fn t() { std::thread::sleep(TICK); }"),
    ]);
    let hits = findings(&ws, Rule::D1);
    let calls = ["wait_timeout", "park_timeout", "recv_timeout", "thread::sleep"];
    assert_eq!(hits.len(), calls.len(), "{hits:?}");
    for (hit, what) in hits.iter().zip(calls) {
        assert!(hit.contains(what) && hit.contains("clock read in disguise"), "{hits:?}");
    }
}

#[test]
fn d1_thread_creation_outside_the_thread_owners_fires() {
    // The shape of the deleted parallel-for: scoped workers beside the
    // lane-gated ranks, plus the detached and Builder forms.
    let ws = Workspace::from_sources(&[(
        "crates/rt/src/par.rs",
        r#"
            pub fn fan_out(n: usize) {
                std::thread::scope(|s| {
                    for _ in 0..n {
                        s.spawn(|| {});
                    }
                });
                let _ = std::thread::spawn(|| {});
                let _ = std::thread::Builder::new().spawn(|| {});
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::D1);
    assert_eq!(hits.len(), 3, "{hits:?}");
    assert!(hits[0].contains("thread::scope"), "{hits:?}");
    assert!(hits[1].contains("thread::spawn"), "{hits:?}");
    assert!(hits[2].contains("thread::Builder"), "{hits:?}");
}

#[test]
fn d1_thread_creation_is_allowed_in_the_owners_bench_and_tests() {
    let spawn = "pub fn t() { let _ = std::thread::spawn(|| {}); }";
    let ws = Workspace::from_sources(&[
        ("crates/ranks/src/comm.rs", spawn),
        ("crates/bench/benches/b.rs", spawn),
        ("tests/integration.rs", spawn),
        (
            "crates/rt/src/sched.rs",
            "pub fn lanes() -> usize { std::thread::available_parallelism().map_or(1, |n| n.get()) }\n\
             pub fn nap() { std::thread::yield_now(); }\n\
             #[cfg(test)]\nmod tests {\n    fn t() { std::thread::scope(|_| {}); }\n}",
        ),
    ]);
    assert_eq!(findings(&ws, Rule::D1), Vec::<String>::new());
}

#[test]
fn d1_thread_creation_in_the_tiered_writer_fires() {
    // The tiered writer bleeds on the writing rank: it owns no thread.
    let spawn = "pub fn t() { let _ = std::thread::spawn(|| {}); }";
    let ws = Workspace::from_sources(&[("crates/iosim/src/tiers.rs", spawn)]);
    let hits = findings(&ws, Rule::D1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("crates/iosim/src/tiers.rs"), "{hits:?}");
}

// ---------------------------------------------------------------- C1 --

#[test]
fn c1_collective_under_rank_guard_fires() {
    let direct = r#"
            pub fn f(comm: &mut Comm, n: u64) {
                if comm.rank() == 0 {
                    let _total = comm.all_reduce_sum_u64(n);
                }
            }
        "#;
    // The same guard inside a block-level `fn`: nested fns are
    // functions of their own, scanned like any other.
    let nested = r#"
            pub fn f(comm: &mut Comm, n: u64) {
                fn inner(comm: &mut Comm, n: u64) {
                    if comm.rank() == 0 {
                        let _total = comm.all_reduce_sum_u64(n);
                    }
                }
                inner(comm, n);
            }
        "#;
    for src in [direct, nested] {
        let ws = Workspace::from_sources(&[("crates/core/src/fixture.rs", src)]);
        let hits = findings(&ws, Rule::C1);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].contains("all_reduce_sum_u64"));
    }
}

#[test]
fn c1_sparse_exchange_under_rank_guard_fires() {
    // The neighbourhood exchange is a collective like any other: every
    // rank enters it, peers or none, so only the rank-uniform call is
    // clean.
    let guarded = r#"
            pub fn f(comm: &mut Comm, sends: Vec<(usize, Vec<f64>)>, from: &[usize]) {
                if comm.rank() != 0 {
                    let _ = comm.exchange(sends, from);
                }
            }
        "#;
    let ws = Workspace::from_sources(&[("crates/mesh/src/fixture.rs", guarded)]);
    let hits = findings(&ws, Rule::C1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("exchange"), "{hits:?}");

    let uniform = r#"
            pub fn f(comm: &mut Comm, sends: Vec<(usize, Vec<f64>)>, from: &[usize]) {
                let _ = comm.exchange(sends, from);
            }
        "#;
    let ws = Workspace::from_sources(&[("crates/mesh/src/fixture.rs", uniform)]);
    assert_eq!(findings(&ws, Rule::C1), Vec::<String>::new());
}

#[test]
fn c1_else_branch_and_match_arms_inherit_the_taint() {
    let branches = r#"
            pub fn f(comm: &mut Comm) {
                if comm.rank() == 0 {
                    log();
                } else {
                    comm.barrier();
                }
                match comm.rank() {
                    0 => comm.all_gather(1u8),
                    _ => Vec::new(),
                };
            }
        "#;
    // A rank-dependent arm *guard* over a rank-uniform scrutinee is the
    // head of its own arm.
    let arm_guards = r#"
            pub fn f(comm: &mut Comm, step: u32) {
                match step {
                    0 if comm.rank() == 0 => { comm.barrier(); }
                    _ if step > 3 && comm.my_rank == 0 => { comm.all_gather(1u8); }
                    _ => {}
                }
            }
        "#;
    for src in [branches, arm_guards] {
        let ws = Workspace::from_sources(&[("crates/core/src/fixture.rs", src)]);
        let hits = findings(&ws, Rule::C1);
        assert_eq!(hits.len(), 2, "{hits:?}");
    }
}

#[test]
fn c1_rank_uniform_code_is_clean() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        r#"
            pub fn f(comm: &mut Comm, step: usize) {
                comm.barrier();
                let total = comm.all_reduce_sum_u64(1);
                // Rank-guarded non-collective work is fine.
                if comm.rank() == 0 {
                    println!("{total}");
                }
                // Rank-uniform guards around collectives are fine.
                if step > 0 {
                    comm.barrier();
                }
                // `per_rank` is not a rank identity (exact-ident match).
                if let Some(per_rank) = maybe(total) {
                    comm.broadcast(0, per_rank);
                }
            }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::C1), Vec::<String>::new());
}

#[test]
fn c1_wrapper_collective_under_rank_guard_fires() {
    // The lexical rule's classic false negative: the collective hides
    // one call deep, in another file.
    let free_fn = (
        r#"
                pub fn sync_all(comm: &mut Comm) {
                    comm.barrier();
                }
            "#,
        r#"
                pub fn f(comm: &mut Comm) {
                    if comm.rank() == 0 {
                        sync_all(comm);
                    }
                }
            "#,
    );
    // Receivers the call graph cannot type — an inferred local, a
    // generic parameter — are judged by name: every definition of
    // `sync_all` reaches a collective.
    let method = r#"
                pub trait Syncer { fn sync_all(&self, comm: &mut Comm); }
                pub struct Helper;
                impl Syncer for Helper {
                    fn sync_all(&self, comm: &mut Comm) { comm.barrier(); }
                }
                pub fn make() -> Helper { Helper }
            "#;
    let inferred_local = (
        method,
        r#"
                pub fn f(comm: &mut Comm, rank: usize) {
                    let h = make();
                    if rank == 0 {
                        h.sync_all(comm);
                    }
                }
            "#,
    );
    let generic_receiver = (
        method,
        r#"
                pub fn f<S: Syncer>(comm: &mut Comm, s: &S) {
                    if comm.rank() == 0 {
                        s.sync_all(comm);
                    }
                }
            "#,
    );
    for (helpers, fixture) in [free_fn, inferred_local, generic_receiver] {
        let ws = Workspace::from_sources(&[
            ("crates/core/src/helpers.rs", helpers),
            ("crates/core/src/fixture.rs", fixture),
        ]);
        let hits = findings(&ws, Rule::C1);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].contains("sync_all"), "{hits:?}");
        assert!(hits[0].contains("fixture.rs"), "{hits:?}");
    }
}

#[test]
fn c1_taint_is_transitive_through_helper_chains() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        r#"
            fn reduce_totals(comm: &mut Comm, n: u64) -> u64 {
                comm.all_reduce_sum_u64(n)
            }
            fn publish_stats(comm: &mut Comm) {
                let _ = reduce_totals(comm, 1);
            }
            pub fn f(comm: &mut Comm) {
                if comm.rank() == 0 {
                    publish_stats(comm);
                }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::C1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("publish_stats"), "{hits:?}");
}

#[test]
fn c1_ambiguous_names_do_not_taint() {
    // Name-keyed matching taints only when EVERY definition of the name
    // reaches a collective; a second collective-free `merge` keeps the
    // guarded call quiet.
    let impls = r#"
            impl Ledger {
                fn merge(&mut self, comm: &mut Comm) {
                    self.total = comm.all_reduce_sum_u64(self.total);
                }
            }
            impl Timers {
                fn merge(&mut self, other: &Timers) {
                    self.wall += other.wall;
                }
            }
        "#;
    let typed = r#"
            pub fn f(comm: &mut Comm, t: &mut Timers, o: &Timers) {
                if comm.rank() == 0 {
                    t.merge(o);
                }
            }
        "#;
    // An untyped receiver falls back to the name: one collective-free
    // `merge` among the definitions is enough to stay quiet.
    let untyped = r#"
            pub fn f(comm: &mut Comm, o: &Timers) {
                let mut t = fresh();
                if comm.rank() == 0 {
                    t.merge(o);
                }
            }
        "#;
    for caller in [typed, untyped] {
        let src = format!("{impls}{caller}");
        let ws = Workspace::from_sources(&[("crates/core/src/fixture.rs", &src)]);
        assert_eq!(findings(&ws, Rule::C1), Vec::<String>::new());
    }
}

#[test]
fn c1_test_fixtures_are_exempt() {
    // Seeded-violation fixtures for the dynamic sanitizer deliberately
    // put collectives under rank guards; the runtime tier owns tests.
    let ws = Workspace::from_sources(&[(
        "crates/ranks/src/fixture.rs",
        r#"
            #[cfg(test)]
            mod tests {
                fn wrapped(comm: &mut Comm) { comm.barrier(); }
                #[test]
                fn skipped_barrier_fixture() {
                    World::run(2, |comm| {
                        if comm.rank() == 0 {
                            comm.barrier();
                            wrapped(comm);
                        }
                    });
                }
            }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::C1), Vec::<String>::new());
}

#[test]
fn c1_rank_guarded_early_exit_taints_what_follows() {
    // Rank 0 alone reaches the barrier: the others returned.
    let exits = [
        "if comm.rank() != 0 { return; }",
        "if comm.rank() != 0 { panic!(\"only the root continues\"); }",
    ];
    for exit in exits {
        let src = format!("pub fn f(comm: &mut Comm) {{ {exit} comm.barrier(); }}");
        let ws = Workspace::from_sources(&[("crates/core/src/fixture.rs", &src)]);
        let hits = findings(&ws, Rule::C1);
        assert_eq!(hits.len(), 1, "{exit}: {hits:?}");
        assert!(hits[0].contains("collective `barrier`"), "{hits:?}");
    }
}

#[test]
fn c1_loop_exit_taint_ends_at_the_loop_it_leaves() {
    // A rank-guarded `continue` skips the rest of its loop body, and the
    // peer loop's `continue 'outer` the rest of the outer one; every rank
    // reaches the code after the loop or the labeled block.
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        "pub fn f(comm: &mut Comm, n: usize) {
             for p in 0..n { if p == comm.rank() { continue; } comm.barrier(); }
             'outer: for a in 0..n {
                 for b in 0..n { if a + b == comm.rank() { continue 'outer; } }
                 comm.barrier();
             }
             'done: { if comm.rank() == 0 { break 'done; } comm.barrier(); }
             comm.barrier();
         }",
    )]);
    let hits = findings(&ws, Rule::C1);
    let lines: Vec<_> = hits.iter().map(|h| h.split(':').nth(1).unwrap_or("")).collect();
    assert_eq!(lines, ["2", "5", "7"], "{hits:?}");
}

#[test]
fn c1_early_exit_inside_a_closure_stays_in_the_closure() {
    // The `return` leaves the closure, not `f`: every rank reaches the
    // barrier after it.
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        "pub fn f(comm: &mut Comm, xs: &[usize]) -> usize {
             let weight = |x: usize| { if x == comm.rank() { return 0; } x };
             let total = xs.iter().map(|&x| weight(x)).sum();
             comm.barrier();
             total
         }",
    )]);
    assert_eq!(findings(&ws, Rule::C1), Vec::<String>::new());
}

#[test]
fn c1_data_guarded_early_return_is_clean() {
    let src = "pub fn f(comm: &mut Comm, n: usize) { if n == 0 { return; } comm.barrier(); }";
    let ws = Workspace::from_sources(&[("crates/core/src/fixture.rs", src)]);
    assert_eq!(findings(&ws, Rule::C1), Vec::<String>::new());
}

#[test]
fn c1_guard_on_a_local_assigned_from_the_rank_fires() {
    // `me` and `lead` carry the rank as much as `comm.rank()` does.
    let guards = [
        "if me == 0 { comm.barrier(); }",
        "if lead { comm.barrier(); }",
        "if me == 0 { sync_all(comm); }",
        "if me != 0 { return; } comm.barrier();",
    ];
    for guard in guards {
        let src = format!(
            "pub fn sync_all(comm: &mut Comm) {{ comm.barrier(); }}
             pub fn step(comm: &mut Comm) {{ let me = comm.rank(); let lead = me == 0; {guard} }}"
        );
        let ws = Workspace::from_sources(&[("crates/core/src/fixture.rs", &src)]);
        assert_eq!(findings(&ws, Rule::C1).len(), 1, "{guard}");
    }
}

/// C1 is lexical and per call site, so no number of branches elsewhere
/// in the function hides a guarded collective: with the rank guard
/// ahead of 7 independent data branches, the site is still reported
/// exactly once.
#[test]
fn c1_reports_a_guarded_collective_whatever_the_branching_around_it() {
    let fixture = |data_branches: usize| {
        let branches: String =
            (0..data_branches).map(|i| format!("if f[{i}] {{ n += 1; }}\n")).collect();
        let src = format!(
            "pub fn exchange(comm: &mut Comm, f: &[bool], mut n: u64) -> u64 {{
                 if comm.rank() == 0 {{
                     comm.barrier();
                 }}
                 {branches}
                 n
             }}"
        );
        Workspace::from_sources(&[("crates/core/src/fixture.rs", &src)])
    };
    for data_branches in [2, 7] {
        let hits = findings(&fixture(data_branches), Rule::C1);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].contains("collective `barrier`"), "{hits:?}");
    }
}

// ---------------------------------------------------------------- H1 --

#[test]
fn h1_external_and_banned_dependencies_fire() {
    let ws = Workspace::from_sources(&[(
        "crates/x/Cargo.toml",
        "[package]\nname = \"x\"\n[dependencies]\nrand = \"0.8\"\nserde = { version = \"1\" }\n",
    )]);
    let hits = findings(&ws, Rule::H1);
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert!(hits.iter().any(|h| h.contains("banned crate `rand`")));
    assert!(hits.iter().any(|h| h.contains("`serde`")));
}

#[test]
fn h1_extern_crate_and_use_root_escapes_fire() {
    let ws = Workspace::from_sources(&[
        ("crates/x/Cargo.toml", "[package]\nname = \"hacc-x\"\n"),
        (
            "crates/x/src/lib.rs",
            "extern crate libc;\nuse ::left_pad::pad;\n",
        ),
    ]);
    let hits = findings(&ws, Rule::H1);
    assert_eq!(hits.len(), 2, "{hits:?}");
}

#[test]
fn h1_path_workspace_and_builtin_roots_are_clean() {
    let ws = Workspace::from_sources(&[
        (
            "crates/x/Cargo.toml",
            "[package]\nname = \"hacc-x\"\n[dependencies]\nhacc-rt = { path = \"../rt\" }\nhacc-core.workspace = true\n",
        ),
        (
            "crates/x/src/lib.rs",
            "extern crate std;\nuse ::std::fmt;\nuse ::hacc_x::thing;\n",
        ),
    ]);
    assert_eq!(findings(&ws, Rule::H1), Vec::<String>::new());
}

// ---------------------------------------------------------------- F1 --

#[test]
fn f1_uninjectable_fault_site_fires() {
    let ws = Workspace::from_sources(&[(
        "crates/fault/src/fixture.rs",
        r#"
            pub enum FaultKind { Alpha = 0, Beta = 1 }
            pub fn g(p: &Probe) {
                if p.fire(FaultKind::Alpha) { panic!("alpha"); }
            }
            #[cfg(test)]
            mod tests {
                // Test-only references do not count as injection coverage.
                fn t(p: &Probe) { p.fire(FaultKind::Beta); }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::F1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("FaultKind::Beta"));
}

#[test]
fn f1_fully_covered_enum_is_clean() {
    let ws = Workspace::from_sources(&[(
        "crates/fault/src/fixture.rs",
        r#"
            pub enum FaultKind { Alpha = 0, Beta = 1 }
            pub fn g(p: &Probe) {
                p.fire(FaultKind::Alpha);
                p.fire(FaultKind::Beta);
            }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::F1), Vec::<String>::new());
}

// ------------------------------------------- suppression + exit codes --

/// Every finding, rendered, of one fixture file outside the blessed
/// clock modules, where an `Instant::now` is a D1 finding.
fn lint_fixture(src: &str) -> Vec<String> {
    let ws = Workspace::from_sources(&[("crates/core/src/fixture.rs", src)]);
    rules::run_all(&ws).iter().map(|d| d.render()).collect()
}

#[test]
fn d1_allow_marker_drops_a_finding_on_its_line_and_the_line_below() {
    let bare = "pub fn t() -> f64 {\n    std::time::Instant::now().elapsed().as_secs_f64()\n}\n";
    assert_eq!(lint_fixture(bare).len(), 1);

    let same_line = "pub fn t() -> f64 {\n    \
                     std::time::Instant::now().elapsed().as_secs_f64() // d1: allow: fixture print\n\
                     }\n";
    let line_above = "pub fn t() -> f64 {\n    // d1: allow: fixture print\n    \
                      std::time::Instant::now().elapsed().as_secs_f64()\n}\n";
    for src in [same_line, line_above] {
        assert_eq!(lint_fixture(src), Vec::<String>::new(), "{src}");
    }
}

#[test]
fn allow_marker_of_another_rule_drops_nothing() {
    let src = "pub fn t() -> f64 {\n    // e1: allow: names the wrong rule\n    \
               std::time::Instant::now().elapsed().as_secs_f64()\n}\n";
    let all = lint_fixture(src);
    assert_eq!(all.len(), 2, "{all:?}");
    let stale = "crates/core/src/fixture.rs:2: [E1] `// e1: allow:` suppresses no E1";
    assert!(all[0].starts_with(stale), "{all:?}");
    let clock = "crates/core/src/fixture.rs:3: [D1] `Instant::now`";
    assert!(all[1].starts_with(clock), "{all:?}");
}

#[test]
fn unused_allow_marker_is_a_finding_at_its_line() {
    let src = "pub fn t() -> u32 {\n    // d1: allow: nothing here reads a clock\n    7\n}\n";
    assert_eq!(
        lint_fixture(src),
        ["crates/core/src/fixture.rs:2: [D1] `// d1: allow:` suppresses no D1 finding; delete it"]
    );
}

#[test]
fn allow_marker_with_an_empty_reason_drops_nothing() {
    let src = "pub fn t() -> f64 {\n    // d1: allow:\n    \
               std::time::Instant::now().elapsed().as_secs_f64()\n}\n";
    let all = lint_fixture(src);
    assert_eq!(all.len(), 1, "{all:?}");
    let clock = "crates/core/src/fixture.rs:3: [D1] `Instant::now`";
    assert!(all[0].starts_with(clock), "{all:?}");
}

#[test]
fn cli_rejects_unknown_options_with_exit_2() {
    assert_eq!(hacc_lint::cli_main(&["--bogus".to_string()]), 2);
}

// ---------------------------------------------------------------- P1 --

#[test]
fn p1_allocation_in_kernel_body_fires() {
    let ws = Workspace::from_sources(&[(
        "crates/gpusim/src/fixture.rs",
        r#"
            pub struct S { pub x: f64 }
            pub struct Kern;
            impl SplitKernel for Kern {
                type State = S;
                type Partial = ();
                type Accum = f64;
                fn interact(&self, si: &S, _p: &(), _sj: &S, _q: &(), out: &mut f64) {
                    let mut tmp = Vec::new();
                    tmp.push(si.x);
                    *out += tmp[0];
                }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::P1);
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert!(hits[0].contains("per-pair kernel body"), "{hits:?}");
}

#[test]
fn p1_push_in_tile_driver_loop_fires_but_setup_is_clean() {
    let ws = Workspace::from_sources(&[(
        "crates/gpusim/src/fixture.rs",
        r#"
            pub fn execute_leaf_tiles(n: usize) -> Vec<f64> {
                let mut out = Vec::new(); // setup, outside the loop: fine
                for i in 0..n {
                    out.push(i as f64);
                }
                out
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::P1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains(".push(..)"), "{hits:?}");
    assert!(hits[0].contains("interaction-tile loop"), "{hits:?}");
}

#[test]
fn p1_marked_loop_fires_and_allow_suppresses() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        "pub fn step(n: usize) {\n\
         // p1: hot-loop\n\
         for s in 0..n {\n\
             let a = format!(\"a{s}\");\n\
             // p1: allow: per-step label, one small allocation per step\n\
             let b = format!(\"b{s}\");\n\
             drop((a, b));\n\
         }\n\
         }\n",
    )]);
    let hits = findings(&ws, Rule::P1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("format!"), "{hits:?}");
    assert!(hits[0].contains("marked loop"), "{hits:?}");
}

#[test]
fn p1_marked_fn_body_is_hot_at_any_depth() {
    // The marker above a fn (free or method) makes its whole body hot,
    // loops or not; an allow still suppresses, an unmarked fn stays cold.
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        "// p1: hot-loop\n\
         pub fn stage(n: usize) -> usize {\n\
         let a = format!(\"a{n}\");\n\
         // p1: allow: one bounded record per step\n\
         let b = vec![0u8; n];\n\
         a.len() + b.len()\n\
         }\n\
         pub struct S;\n\
         impl S {\n\
         // p1: hot-loop\n\
         fn method(&self, n: usize) -> usize {\n\
         if n > 0 { let v: Vec<u8> = Vec::new(); return v.len(); }\n\
         n\n\
         }\n\
         }\n\
         pub fn cold(n: usize) -> Vec<u8> { vec![0u8; n] }\n",
    )]);
    let hits = findings(&ws, Rule::P1);
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert!(hits[0].contains("format!") && hits[0].contains("marked fn"), "{hits:?}");
    assert!(hits[1].contains("Vec::new") && hits[1].contains("marked fn"), "{hits:?}");
}

#[test]
fn p1_unmarked_loops_and_scratch_reuse_are_clean() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        "pub fn setup(n: usize) -> Vec<f64> {\n\
         let mut out = Vec::with_capacity(n);\n\
         for i in 0..n {\n\
             out.push(i as f64); // cold setup loop: not a hot context\n\
         }\n\
         out\n\
         }\n\
         pub fn hot(n: usize, scratch: &mut Vec<f64>) {\n\
         // p1: hot-loop\n\
         for i in 0..n {\n\
             scratch.clear();\n\
             scratch.extend((0..i).map(|j| j as f64));\n\
         }\n\
         }\n",
    )]);
    assert_eq!(findings(&ws, Rule::P1), Vec::<String>::new());
}

// --------------------------------------------------------- D1 (env) --

#[test]
fn d1_env_read_outside_the_env_owners_fires() {
    let ws = Workspace::from_sources(&[
        (
            "crates/analysis/src/fixture.rs",
            r#"
                pub fn bins() -> usize {
                    match std::env::var("HACC_BINS") {
                        Ok(v) => v.parse().unwrap_or(64),
                        Err(_) => 64,
                    }
                }
            "#,
        ),
        (
            // Not a golden-output path, but a lane-count knob here
            // decides what a benchmark measures.
            "crates/rt/src/fixture.rs",
            "pub fn lanes() -> Option<std::ffi::OsString> { std::env::var_os(\"HACC_LANES\") }",
        ),
    ]);
    let hits = findings(&ws, Rule::D1);
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert!(hits[0].contains("std::env::var"), "{hits:?}");
    assert!(hits[0].contains("core::config"), "{hits:?}");
    assert!(hits[1].contains("crates/rt/src/fixture.rs"), "{hits:?}");
}

#[test]
fn d1_env_read_is_allowed_in_the_env_owners_and_tests() {
    let read = "pub fn knob() -> Option<String> { std::env::var(\"HACC_KNOB\").ok() }";
    let ws = Workspace::from_sources(&[
        ("crates/san/src/lib.rs", read),
        ("crates/bench/src/fixture.rs", read),
        ("crates/rt/tests/fixture.rs", read),
        (
            "crates/rt/src/fixture.rs",
            "pub fn tmp() -> std::path::PathBuf { std::env::temp_dir() }",
        ),
    ]);
    assert_eq!(findings(&ws, Rule::D1), Vec::<String>::new());
}

// ---------------------------------------------------------------- E1 --

#[test]
fn e1_unwrap_reachable_from_marked_root_fires_with_witness() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        r#"
            // e1: root
            pub fn step_loop(v: &[f64]) -> f64 { helper(v) }
            fn helper(v: &[f64]) -> f64 { deep(v) }
            fn deep(v: &[f64]) -> f64 { *v.first().unwrap() }
        "#,
    )]);
    let hits = findings(&ws, Rule::E1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("2 call hops"), "{}", hits[0]);
    assert!(hits[0].contains("supervised root `step_loop`"), "{}", hits[0]);
    assert!(hits[0].contains("panics via `.unwrap()`"), "{}", hits[0]);
}

#[test]
fn e1_panic_macro_in_the_root_itself_fires() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        r#"
            // e1: root
            pub fn step_loop(n: usize) {
                if n == 0 {
                    panic!("empty tile");
                }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::E1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("`panic!`"), "{}", hits[0]);
}

#[test]
fn e1_allow_comment_with_reason_suppresses() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        r#"
            // e1: root
            pub fn step_loop(v: &[f64]) -> f64 {
                // e1: allow: fixture-justified invariant
                *v.first().unwrap()
            }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::E1), Vec::<String>::new());
}

#[test]
fn e1_fault_guarded_panic_is_a_registered_site() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        r#"
            // e1: root
            pub fn step_loop(k: FaultProbe) {
                if k.fire(FaultKind::GpuLaunch) {
                    panic!("injected fault");
                }
            }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::E1), Vec::<String>::new());
}

#[test]
fn e1_panics_outside_the_reachable_set_are_quiet() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/fixture.rs",
        r#"
            // e1: root
            pub fn step_loop(x: u64) -> u64 { x + 1 }
            pub fn orphan() { panic!("never called from the step loop"); }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::E1), Vec::<String>::new());
}

// ---------------------------------------------------------------- V1 --

#[test]
fn v1_early_return_in_kernel_body_fires() {
    let ws = Workspace::from_sources(&[(
        "crates/sph/src/fixture.rs",
        r#"
            pub struct K;
            impl SplitKernel for K {
                fn interact(&self, r: f64, out: &mut [f64; 3]) {
                    if r == 0.0 {
                        return;
                    }
                    out[0] -= r;
                }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::V1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("`return`"), "{}", hits[0]);
    assert!(hits[0].contains("per-pair kernel body `interact`"), "{}", hits[0]);
}

#[test]
fn v1_masked_lane_is_clean() {
    let ws = Workspace::from_sources(&[(
        "crates/sph/src/fixture.rs",
        r#"
            pub struct K;
            impl SplitKernel for K {
                fn interact(&self, r: f64, out: &mut [f64; 3]) {
                    if r != 0.0 {
                        out[0] -= r;
                    }
                }
            }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::V1), Vec::<String>::new());
}

#[test]
fn v1_unguarded_index_in_lane_loop_fires() {
    let ws = Workspace::from_sources(&[(
        "crates/gpusim/src/fixture.rs",
        r#"
            pub fn execute_leaf(xs: &[f64], idx: &[usize], out: &mut [f64]) {
                for k in 0..idx.len() {
                    let j = idx[k];
                    out[j] += xs[j];
                }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::V1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("no \n    dominating slice-length guard")
        || hits[0].contains("dominating slice-length guard"), "{}", hits[0]);
}

#[test]
fn v1_dominating_length_guard_discharges_the_index() {
    let ws = Workspace::from_sources(&[(
        "crates/gpusim/src/fixture.rs",
        r#"
            pub fn execute_leaf(xs: &[f64], idx: &[usize], out: &mut [f64]) {
                assert!(out.len() >= xs.len());
                for k in 0..idx.len() {
                    let j = idx[k];
                    out[j] += xs[j];
                }
            }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::V1), Vec::<String>::new());
}

#[test]
fn v1_length_test_in_one_arm_does_not_guard_the_index() {
    // The assert sits earlier in the source but runs only when `c`
    // holds: it does not dominate `xs[i]`.
    let ws = Workspace::from_sources(&[(
        "crates/gpusim/src/fixture.rs",
        r#"
            pub fn execute_leaf(xs: &[f64], idx: &[usize], c: bool, out: &mut [f64; 4]) {
                for k in 0..idx.len() {
                    let i = idx[k];
                    if c {
                        assert!(xs.len() > i);
                    }
                    out[0] = xs[i];
                }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::V1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("`xs[i]`"), "{}", hits[0]);
}

#[test]
fn v1_opaque_call_in_kernel_body_fires_with_witness() {
    let ws = Workspace::from_sources(&[(
        "crates/sph/src/fixture.rs",
        r#"
            pub fn heavy(x: f64) -> f64 {
                let mut s = 0.0;
                for _i in 0..10 {
                    s = s + x;
                }
                s
            }
            pub struct K;
            impl SplitKernel for K {
                fn interact(&self, r: f64, out: &mut [f64; 3]) {
                    out[0] -= heavy(r);
                }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::V1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("neither"), "{}", hits[0]);
    assert!(hits[0].contains("defined without `#[inline]`"), "{}", hits[0]);
}

#[test]
fn v1_inline_and_leaf_trivial_callees_are_clean() {
    let ws = Workspace::from_sources(&[(
        "crates/sph/src/fixture.rs",
        r#"
            #[inline]
            pub fn fast(x: f64) -> f64 { x * 2.0 }
            pub fn tiny(x: f64) -> f64 { x + 1.0 }
            pub struct K;
            impl SplitKernel for K {
                fn interact(&self, r: f64, out: &mut [f64; 3]) {
                    out[0] -= fast(r) + tiny(r);
                }
            }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::V1), Vec::<String>::new());
}

#[test]
fn v1_float_local_accumulation_fires_but_int_counters_are_exempt() {
    let fire = Workspace::from_sources(&[(
        "crates/sph/src/fixture.rs",
        r#"
            pub struct K;
            impl SplitKernel for K {
                fn interact(&self, r: f64, out: &mut [f64; 3]) {
                    let mut acc = 0.0;
                    acc += r;
                    out[0] -= acc;
                }
            }
        "#,
    )]);
    let hits = findings(&fire, Rule::V1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("order-dependent accumulation"), "{}", hits[0]);

    let quiet = Workspace::from_sources(&[(
        "crates/sph/src/fixture.rs",
        r#"
            pub struct K;
            impl SplitKernel for K {
                fn interact(&self, r: f64, out: &mut [f64; 3]) {
                    let mut evals: u64 = 0;
                    evals += 1;
                    out[0] -= r;
                }
            }
        "#,
    )]);
    assert_eq!(findings(&quiet, Rule::V1), Vec::<String>::new());
}

/// The one resolver looks in the caller's file first: a kernel calling
/// its own file's leaf-trivial `helper` is clean although another crate
/// holds an opaque `helper`, which a kernel with no local one reaches.
#[test]
fn v1_same_file_helper_is_not_shadowed_by_another_crate() {
    let kernel = |local: &str| {
        format!(
            "{local}
            pub struct Kern;
            impl SplitKernel for Kern {{
                fn interact(&self, r: f64, out: &mut [f64; 3]) {{
                    out[0] -= helper(r);
                }}
            }}"
        )
    };
    let other = (
        "crates/core/src/other.rs",
        "pub fn helper(mut x: f64) -> f64 { while x > 1.0 { x = x / 2.0; } x }",
    );
    let own = kernel("fn helper(x: f64) -> f64 { x * x }");
    let ws = Workspace::from_sources(&[("crates/gpusim/src/fixture.rs", own.as_str()), other]);
    assert_eq!(findings(&ws, Rule::V1), Vec::<String>::new());
    let bare = kernel("");
    let ws = Workspace::from_sources(&[("crates/gpusim/src/fixture.rs", bare.as_str()), other]);
    let hits = findings(&ws, Rule::V1);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("`helper` called in the per-pair kernel body"), "{}", hits[0]);
}

/// A kernel generic over its scalar is policed like an `f64` one:
/// `T::c(..)` types as the struct `T`, and arithmetic on it is float
/// arithmetic, so a local built from it is no exempt integer counter.
#[test]
fn v1_generic_scalar_kernel_fires_like_an_f64_one() {
    let ws = Workspace::from_sources(&[(
        "crates/sph/src/fixture.rs",
        r#"
            pub struct K;
            impl<T: Real> SplitKernel<T> for K {
                fn interact(&self, r: T, out: &mut [T; 3]) {
                    if r == T::c(0.0) {
                        return;
                    }
                    let cut = T::c(2.0);
                    let mut s = cut * cut;
                    s += r;
                    out[0] -= s;
                }
            }
        "#,
    )]);
    let hits = findings(&ws, Rule::V1);
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert!(hits[0].contains("`return`"), "{}", hits[0]);
    assert!(hits[1].contains("order-dependent accumulation `s += ...`"), "{}", hits[1]);
}

#[test]
fn v1_allow_comment_suppresses_the_exit() {
    let ws = Workspace::from_sources(&[(
        "crates/sph/src/fixture.rs",
        r#"
            pub struct K;
            impl SplitKernel for K {
                fn interact(&self, r: f64, out: &mut [f64; 3]) {
                    if r == 0.0 {
                        // v1: allow: measured — the branch predictor wins here
                        return;
                    }
                    out[0] -= r;
                }
            }
        "#,
    )]);
    assert_eq!(findings(&ws, Rule::V1), Vec::<String>::new());
}

// ------------------------------------------------------- self-check --

/// The acceptance bar: `hacc-lint` reports zero findings on HEAD,
/// stale suppression markers included. Linting the real repository
/// also exercises the lexer on ~160 real files every `cargo test`.
fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn clean_workspace_self_check() {
    let root = repo_root();
    let ws = Workspace::load(&root).expect("load workspace");
    assert!(
        ws.files.len() > 100,
        "expected the full workspace, got {} files",
        ws.files.len()
    );
    let findings: Vec<String> = rules::run_all(&ws).iter().map(|d| d.render()).collect();
    assert!(findings.is_empty(), "findings on HEAD:\n{}", findings.join("\n"));
}

/// The tier-0 gate seeds one violation per rule: the `CANARIES` table
/// of `scripts/verify.sh`, rows of `RULE|path|what` followed by the
/// canary source up to a `---` line. Every static rule has a row, and
/// no row names a rule that is gone. The runtime rules are hacc-san's,
/// with their canaries in tier 4.
#[test]
fn every_static_rule_has_a_tier0_canary() {
    const RUNTIME: [Rule; 4] = [Rule::R1, Rule::Q1, Rule::W1, Rule::M1];
    let verify = std::fs::read_to_string(repo_root().join("scripts/verify.sh"))
        .expect("scripts/verify.sh");
    let table = verify
        .split("<<'CANARIES'\n")
        .nth(1)
        .and_then(|t| t.split("\nCANARIES\n").next())
        .expect("verify.sh has a CANARIES table");
    let mut seeded = std::collections::BTreeSet::new();
    let mut row = true;
    for line in table.lines() {
        if row {
            let code = line.split('|').next().unwrap_or_default();
            let rule = Rule::from_code(code)
                .unwrap_or_else(|| panic!("canary row names no rule: {line:?}"));
            assert!(!RUNTIME.contains(&rule), "canary row for a runtime rule: {line:?}");
            seeded.insert(rule);
        }
        row = line == "---";
    }
    let missing: Vec<&str> = hacc_telem::diag::RULES
        .iter()
        .filter(|r| !RUNTIME.contains(r) && !seeded.contains(r))
        .map(|r| r.code())
        .collect();
    assert!(missing.is_empty(), "static rules with no canary row: {missing:?}");
}
