//! Integration contracts for the auto-tuning engine: selection is a pure
//! function of (table, instance) — invariant across repeated calls, pool
//! sizes, and process-internal state — and the selected configs run to a
//! valid coloring even on degenerate instances. Explicit overrides beat
//! the table on every axis.

use bgpc::engine::color_bgpc_with_config;
use bgpc::runner::RunnerOpts;
use bgpc::verify::{verify_bgpc, verify_d2gc};
use bgpc::{Engine, EngineChoice, OnlineTuner, Overrides, Schedule};
use graph::{BipartiteGraph, Graph, Ordering};
use par::Pool;
use sparse::{Csr, IndexWidth};

fn assert_same_choice(a: &EngineChoice, b: &EngineChoice, what: &str) {
    assert_eq!(a.config.describe(), b.config.describe(), "{what}");
    assert_eq!(a.matched, b.matched, "{what}");
}

#[test]
fn selection_is_deterministic_across_runs() {
    let engine = Engine::with_default_table();
    let m = sparse::gen::bipartite_uniform(120, 160, 2400, 7);
    let g = BipartiteGraph::from_matrix(&m);
    let first = engine.select_bgpc(&g);
    for run in 1..10 {
        assert_same_choice(&first, &engine.select_bgpc(&g), &format!("run {run}"));
    }
    // A second engine over the same table text agrees too: no hidden
    // per-construction state feeds into selection.
    let other = Engine::with_default_table();
    assert_same_choice(&first, &other.select_bgpc(&g), "fresh engine");
}

#[test]
fn selection_is_invariant_to_thread_count() {
    // Feature extraction and table lookup never consult a pool, but the
    // end-to-end callers all hold one — pin the contract that building
    // and using pools of every size the oracle draws (1–4) leaves the
    // selection untouched, and that the chosen config runs validly at
    // each of those sizes.
    let engine = Engine::with_default_table();
    let m = sparse::gen::bipartite_uniform(100, 140, 2000, 23);
    let g = BipartiteGraph::from_matrix(&m);
    let reference = engine.select_bgpc(&g);
    let order = Ordering::Natural.vertex_order_bgpc(&g);
    for threads in 1..=4usize {
        let pool = Pool::new(threads);
        let choice = engine.select_bgpc(&g);
        assert_same_choice(&reference, &choice, &format!("threads {threads}"));
        let res = color_bgpc_with_config(
            &g,
            &order,
            &choice.config,
            &pool,
            RunnerOpts {
                online: Some(OnlineTuner::default()),
                ..RunnerOpts::default()
            },
        );
        verify_bgpc(&g, &res.colors)
            .unwrap_or_else(|e| panic!("threads {threads}: invalid coloring: {e}"));
        assert!(res.degraded.is_none(), "threads {threads}: degraded run");
    }
}

#[test]
fn d2gc_selection_is_deterministic() {
    let engine = Engine::with_default_table();
    let m = sparse::gen::erdos_renyi(60, 120, 5);
    let g = Graph::from_symmetric_matrix(&m);
    let first = engine.select_d2gc(&g);
    for run in 1..10 {
        assert_same_choice(&first, &engine.select_d2gc(&g), &format!("run {run}"));
    }
}

/// Degenerate instances must select (via the degenerate default) and the
/// selected config must color them without panicking or degrading.
#[test]
fn degenerate_instances_select_and_run() {
    let engine = Engine::with_default_table();
    let cases: Vec<(&str, Csr)> = vec![
        // No colored vertices at all.
        ("empty V_A", Csr::empty(4, 0)),
        // No nets: every vertex is isolated.
        ("no nets", Csr::empty(0, 5)),
        // Vertices exist but no pin connects them to any net.
        ("all-empty nets", Csr::empty(3, 7)),
        // The smallest non-trivial instance.
        ("single vertex", Csr::from_rows(1, &[vec![0]])),
        // A star: one net pinning every vertex — max_net == n, every
        // pair of vertices conflicts, n colors are forced.
        ("star", Csr::from_rows(8, &[(0..8u32).collect()])),
        // An inverted star: one vertex on every net.
        ("inverted star", Csr::from_rows(1, &(0..6).map(|_| vec![0u32]).collect::<Vec<_>>())),
    ];
    for (name, m) in cases {
        let g = BipartiteGraph::from_matrix(&m);
        let a = engine.select_bgpc(&g);
        let b = engine.select_bgpc(&g);
        assert_same_choice(&a, &b, name);
        if m.nnz() == 0 {
            assert_eq!(a.matched, "default(degenerate)", "{name}");
        }
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        let pool = Pool::new(2);
        let res = color_bgpc_with_config(&g, &order, &a.config, &pool, RunnerOpts::default());
        verify_bgpc(&g, &res.colors).unwrap_or_else(|e| panic!("{name}: invalid: {e}"));
        assert!(res.degraded.is_none(), "{name}: degraded");
        if name == "star" {
            assert_eq!(res.num_colors, 8, "a K8 conflict clique forces 8 colors");
        }
    }
}

#[test]
fn degenerate_d2gc_instances_select_and_run() {
    let engine = Engine::with_default_table();
    let cases: Vec<(&str, Csr)> = vec![
        ("empty graph", Csr::empty(0, 0)),
        ("isolated vertices", Csr::empty(6, 6)),
        ("single vertex", Csr::from_rows(1, &[vec![]])),
    ];
    for (name, m) in cases {
        let g = Graph::from_symmetric_matrix(&m);
        let a = engine.select_d2gc(&g);
        assert_same_choice(&a, &engine.select_d2gc(&g), name);
        let order = Ordering::Natural.vertex_order_d2(&g);
        let pool = Pool::new(2);
        let res = bgpc::engine::color_d2gc_with_config(
            &g,
            &order,
            &a.config,
            &pool,
            RunnerOpts::default(),
        );
        verify_d2gc(&g, &res.colors).unwrap_or_else(|e| panic!("{name}: invalid: {e}"));
        assert!(res.degraded.is_none(), "{name}: degraded");
    }
}

/// The override contract at the integration level: every explicitly set
/// axis survives `apply` regardless of what the table said, and the
/// overridden config still runs to a valid coloring.
#[test]
fn explicit_overrides_beat_the_engine_end_to_end() {
    let engine = Engine::with_default_table();
    let m = sparse::gen::bipartite_uniform(90, 110, 1600, 31);
    let g = BipartiteGraph::from_matrix(&m);
    let mut cfg = engine.select_bgpc(&g).config;
    let ov = Overrides {
        schedule: Some(Schedule::v_v()),
        index_width: Some(IndexWidth::U64),
        ..Overrides::default()
    };
    ov.apply(&mut cfg);
    assert_eq!(cfg.schedule.name(), Schedule::v_v().name());
    assert_eq!(cfg.index_width, IndexWidth::U64);

    let m64 = m.to_index::<u64>();
    let g64 = BipartiteGraph::from_matrix(&m64);
    let order = Ordering::Natural.vertex_order_bgpc(&g64);
    let res = color_bgpc_with_config(&g64, &order, &cfg, &Pool::new(3), RunnerOpts::default());
    verify_bgpc(&g64, &res.colors).expect("overridden config colors validly");

    // An empty override set is the identity.
    let before = cfg.describe();
    Overrides::default().apply(&mut cfg);
    assert_eq!(cfg.describe(), before);
}

/// Custom-table rule check at integration level: a point far from any
/// exemplar still lands on the problem's default row rather than a
/// different problem's row.
#[test]
fn selection_never_crosses_problem_kinds() {
    let text = "\
default bgpc schedule=N1-N2 sched=dynamic width=auto relabel=none forbidden=auto
default d2gc schedule=V-V-64D sched=dynamic width=auto relabel=none forbidden=auto
point bgpc tag=ex n=100 nets=100 nnz=1000 maxdeg=10 maxnet=10 avgdeg=10.0 cv=0.1 density=0.1 \
-> schedule=V-V sched=stealing width=u32 relabel=degree forbidden=stamp
";
    let engine = Engine::from_table_text(text).expect("table parses");
    let m = sparse::gen::erdos_renyi(50, 100, 9);
    let g = Graph::from_symmetric_matrix(&m);
    let choice = engine.select_d2gc(&g);
    // The lone exemplar is a BGPC point; a D2GC instance must not match
    // it, however near its features are.
    assert_ne!(choice.matched, "ex");
    assert_eq!(choice.config.schedule.name(), Schedule::v_v_64d().name());
}
