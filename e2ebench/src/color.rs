//! `color-movielens` and `color-coauthor`: one-shot colorings through the
//! same calls `bgpc-cli color` makes on its default path (no relabeling,
//! natural order, N1-N2, default kernel/forbidden-set/width dispatch,
//! verification in original ids).

use std::sync::Arc;

use bgpc::{RunnerOpts, Schedule};
use graph::{BipartiteGraph, Graph, Ordering};
use par::Pool;
use sparse::{Csr, LocalityOrder};

use crate::gen;
use crate::harness::{
    measure, setup_again, setup_repeated, InputStamp, JobError, Measured, Measurement, Opts,
    Outcome,
};
use crate::host::{peak_rss_mb, Host};
use crate::metrics::{per_layer, record_coloring, Kind, Plain, Spans, Suffix, Tally};

const THREADS: usize = 2;

struct State {
    pool: Pool,
    matrix: Csr,
}

/// The movielens-shaped input: a few thousand nets, the widest ≈9.5k of
/// ≈19.6k vertices, ≈360k entries.
fn movielens_input(seed: u64, tiny: bool) -> Csr {
    let s = gen::derive(seed, 1);
    if tiny {
        gen::skewed_bipartite(200, 1_000, 6_000, 0.95, 480, s)
    } else {
        gen::skewed_bipartite(3_782, 19_586, 400_000, 0.95, 9_519, s)
    }
}

/// The co-authorship input: a union of paper cliques with heavy-tailed
/// author counts.
fn coauthor_input(seed: u64, tiny: bool) -> Csr {
    let s = gen::derive(seed, 2);
    if tiny {
        gen::clique_union(600, 500, 12, 2.2, s)
    } else {
        gen::clique_union(16_000, 24_000, 30, 2.5, s)
    }
}

/// One `bgpc-cli color --problem bgpc` job; returns colors ÷ max net size.
fn bgpc_job(m: &Csr, pool: &Pool, sp: &mut Spans, broken: bool) -> Result<f64, JobError> {
    let failed = |e: graph::GraphError| JobError::Failed(e.to_string());
    // Original-id graph: the coloring is verified against it.
    let g = sp
        .time("graph.build_ms", || BipartiteGraph::try_from_matrix(m))
        .map_err(failed)?;
    let (pm, perm) = sp.time("sparse.relabel_ms", || LocalityOrder::None.apply_columns(m));
    let gp = sp
        .time("graph.build_ms", || {
            BipartiteGraph::try_from_matrix_owned(pm)
        })
        .map_err(failed)?;
    let order = sp.time("graph.order_ms", || {
        Ordering::Natural.vertex_order_bgpc(&gp)
    });
    let r = sp.time("core.color_ms", || {
        bgpc::color_bgpc_with_opts(&gp, &order, &Schedule::n1_n2(), pool, RunnerOpts::default())
    });
    if sp.enabled {
        record_coloring(sp, &r, gp.n_vertices(), Suffix::Bgpc);
    }
    if let Some(d) = &r.degraded {
        return Err(JobError::Failed(format!("degraded bgpc run: {d}")));
    }
    let mut colors = match perm {
        Some(p) => sparse::unpermute(&r.colors, &p),
        None => r.colors,
    };
    if broken {
        // Two pins of one net share a color: verification must fail.
        let net = (0..g.n_nets())
            .find(|&v| g.vtxs(v).len() >= 2)
            .expect("a net with two pins");
        colors[g.vtxs(net)[0] as usize] = colors[g.vtxs(net)[1] as usize];
    }
    sp.time("core.verify_ms", || bgpc::verify::verify_bgpc(&g, &colors))
        .map_err(JobError::Invalid)?;
    Ok(r.num_colors as f64 / g.max_net_size().max(1) as f64)
}

/// One `bgpc-cli color --problem d2gc` job; returns colors ÷ (Δ + 1).
fn d2gc_job(m: &Csr, pool: &Pool, sp: &mut Spans, broken: bool) -> Result<f64, JobError> {
    let failed = |e: graph::GraphError| JobError::Failed(e.to_string());
    let g = sp
        .time("graph.build_ms", || Graph::try_from_symmetric_matrix(m))
        .map_err(failed)?;
    let (pm, perm) = sp.time("sparse.relabel_ms", || {
        LocalityOrder::None.apply_symmetric(m)
    });
    let gp = sp
        .time("graph.build_ms", || Graph::try_from_symmetric_matrix(&pm))
        .map_err(failed)?;
    let order = sp.time("graph.order_ms", || Ordering::Natural.vertex_order_d2(&gp));
    let r = sp.time("core.color_ms", || {
        bgpc::d2gc::color_d2gc_with_opts(
            &gp,
            &order,
            &Schedule::n1_n2(),
            pool,
            RunnerOpts::default(),
        )
    });
    if sp.enabled {
        record_coloring(sp, &r, gp.n_vertices(), Suffix::D2gc);
    }
    if let Some(d) = &r.degraded {
        return Err(JobError::Failed(format!("degraded d2gc run: {d}")));
    }
    let mut colors = match perm {
        Some(p) => sparse::unpermute(&r.colors, &p),
        None => r.colors,
    };
    if broken {
        // Two neighbours share a color: verification must fail.
        let v = (0..g.n_vertices())
            .find(|&v| g.degree(v) >= 1)
            .expect("a vertex with an edge");
        colors[v] = colors[g.nbor(v)[0] as usize];
    }
    sp.time("core.verify_ms", || bgpc::verify::verify_d2gc(&g, &colors))
        .map_err(JobError::Invalid)?;
    Ok(r.num_colors as f64 / (g.max_degree() + 1) as f64)
}

/// Runs `color-movielens` (`coauthor == false`) or `color-coauthor`.
pub fn run(opts: &Opts, coauthor: bool) -> Outcome {
    let build = |seed| {
        if coauthor {
            coauthor_input(seed, opts.tiny)
        } else {
            movielens_input(seed, opts.tiny)
        }
    };
    // Set-up: input generation and pool spawn.
    let mut make = || State {
        matrix: build(opts.seed),
        pool: Pool::new(THREADS),
    };
    let (mut st, mut setups) = setup_repeated(&mut make);
    let mut inputs = Vec::new();
    if coauthor {
        let g = Graph::from_symmetric_matrix(&st.matrix);
        inputs.push(InputStamp::new(
            "coauthor.bgpc",
            &st.matrix,
            gen::max_net(&st.matrix),
        ));
        inputs.push(InputStamp::new(
            "coauthor.d2gc",
            &st.matrix,
            g.max_degree() + 1,
        ));
    } else {
        inputs.push(InputStamp::new(
            "movielens",
            &st.matrix,
            gen::max_net(&st.matrix),
        ));
    }
    let host = Host::new(THREADS, st.pool.threads());

    let broken = opts.corrupt;
    let job = move |st: &mut State, sp: &mut Spans| {
        let mut ratios = vec![bgpc_job(&st.matrix, &st.pool, sp, broken)?];
        if coauthor {
            ratios.push(d2gc_job(&st.matrix, &st.pool, sp, broken)?);
        }
        Ok((Kind::Cold, ratios))
    };
    let mut tally = Tally::default();
    // Untimed warm-up job.
    let mut off = Spans::new(std::time::Instant::now(), 0, false);
    crate::harness::settle(&mut tally, 0.0, job(&mut st, &mut off));

    let attach = |st: &mut State| {
        let threads = st.pool.threads();
        st.pool.set_tracer(Arc::new(trace::Recorder::new(threads)));
    };
    let result = match measure(opts, &mut st, &mut tally, attach, job) {
        Measured::Plain { jobs, elapsed_s } => {
            let rss_mb = vec![peak_rss_mb()];
            setups.extend(setup_again(st, &mut make));
            Measurement::Plain(Plain {
                jobs,
                elapsed_s,
                setups,
                rss_mb,
            })
        }
        Measured::Traced { spans, overhead } => Measurement::Traced {
            metrics: per_layer(&spans, &[("trace.overhead", overhead)]),
            spans,
        },
    };
    Outcome {
        tally,
        inputs,
        host,
        notes: Vec::new(),
        result,
    }
}
