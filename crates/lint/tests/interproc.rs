//! Unit tests for the interprocedural layer: call-graph shape
//! (diamond, recursive SCC), witness paths, and the bottom-up summary
//! solver across a recursive cycle.

use std::collections::BTreeSet;

use hacc_lint::callgraph::CallGraph;
use hacc_lint::index::Index;
use hacc_lint::Workspace;

// ---------------------------------------------------------- call graph --

#[test]
fn diamond_call_graph_resolves_both_arms_and_a_shortest_witness() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/x.rs",
        r#"
            pub fn a() { b(); c(); }
            fn b() { d(); }
            fn c() { d(); }
            fn d() {}
        "#,
    )]);
    let index = Index::build(&ws);
    let cg = CallGraph::build(&ws, &index);
    let fa = cg.find(None, "a")[0];
    let fb = cg.find(None, "b")[0];
    let fc = cg.find(None, "c")[0];
    let fd = cg.find(None, "d")[0];

    let callees: BTreeSet<_> = cg.calls[fa].iter().map(|s| s.callee).collect();
    assert_eq!(callees, [fb, fc].into_iter().collect());
    assert_eq!(cg.calls[fb].len(), 1);
    assert_eq!(cg.calls[fb][0].callee, fd);
    assert_eq!(cg.calls[fc][0].callee, fd);

    let parents = cg.reachable(&[fa]);
    assert!(parents.contains_key(&fd), "d reachable through the diamond");
    // Deterministic BFS: the lower-id arm (b) is the recorded parent.
    assert_eq!(parents[&fd].map(|(p, _)| p), Some(fb));

    let path = cg.witness_path(&parents, fd);
    let fns: Vec<_> = path.iter().map(|&(f, _)| f).collect();
    assert_eq!(fns, vec![fa, fb, fd], "root-first shortest chain");
}

#[test]
fn mutual_recursion_forms_one_scc_ordered_before_its_callers() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/x.rs",
        r#"
            pub fn even(n: u64) -> bool { if n == 0 { true } else { odd(n - 1) } }
            pub fn odd(n: u64) -> bool { if n == 0 { false } else { even(n - 1) } }
            pub fn driver(n: u64) -> bool { even(n) }
        "#,
    )]);
    let index = Index::build(&ws);
    let cg = CallGraph::build(&ws, &index);
    let fe = cg.find(None, "even")[0];
    let fo = cg.find(None, "odd")[0];
    let fdrv = cg.find(None, "driver")[0];

    let sccs = cg.sccs();
    let cycle = sccs
        .iter()
        .find(|c| c.contains(&fe))
        .expect("even's component");
    let members: BTreeSet<_> = cycle.iter().copied().collect();
    assert_eq!(members, [fe, fo].into_iter().collect(), "mutual recursion is one SCC");

    // Callees-first: the {even, odd} component is emitted before driver's.
    let pos_cycle = sccs.iter().position(|c| c.contains(&fe)).unwrap();
    let pos_driver = sccs.iter().position(|c| c.contains(&fdrv)).unwrap();
    assert!(pos_cycle < pos_driver, "SCC order must be callees-first");
}

#[test]
fn panic_surface_propagates_through_a_recursive_cycle() {
    let ws = Workspace::from_sources(&[(
        "crates/core/src/x.rs",
        r#"
            pub fn even(n: u64) -> bool { if n == 0 { true } else { odd(n - 1) } }
            pub fn odd(n: u64) -> bool { if n == 0 { panic!("odd zero") } else { even(n - 1) } }
            pub fn driver(n: u64) -> bool { even(n) }
            pub fn clean(n: u64) -> u64 { n }
        "#,
    )]);
    let index = Index::build(&ws);
    let cg = CallGraph::build(&ws, &index);
    let fe = cg.find(None, "even")[0];
    let fo = cg.find(None, "odd")[0];
    let fdrv = cg.find(None, "driver")[0];
    let fclean = cg.find(None, "clean")[0];

    let mut local = vec![false; cg.nodes.len()];
    local[fo] = true;
    let surf = cg.solve_summaries(false, &mut |fid, get| {
        local[fid] || cg.calls[fid].iter().any(|site| get(site.callee))
    });
    assert!(surf[fo]);
    assert!(surf[fe], "flows around the cycle");
    assert!(surf[fdrv], "flows to callers of the cycle");
    assert!(!surf[fclean], "unrelated fns stay clean");
}
