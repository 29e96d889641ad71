//! `shard-2`: a `dist::Coordinator` over two in-process worker daemons
//! (one pool thread each) with block partitioning, driven like
//! `bgpc-cli shard --workers a,b`: build the graph, connect, color,
//! verify the assembled coloring in original ids.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use bgpc::{RunnerOpts, Schedule};
use dist::{Coordinator, DistRunner, Partition};
use graph::{BipartiteGraph, Ordering};
use serve::{Daemon, ServeConfig};
use sparse::Csr;

use crate::gen;
use crate::harness::{
    measure, settle, setup_again, setup_repeated, InputStamp, JobError, Measured, Measurement,
    Opts, Outcome,
};
use crate::host::{peak_rss_mb, Host};
use crate::metrics::{median, per_layer, record_coloring, Kind, Plain, Spans, Suffix, Tally};

const SHARDS: usize = 2;
/// Threads of the single-node reference coloring.
const SINGLE_THREADS: usize = 2;

/// Uniform bipartite instance: 100k nets, 80k vertices, ≈1.2M entries.
fn shard_input(seed: u64, tiny: bool) -> Csr {
    let s = gen::derive(seed, 3);
    if tiny {
        gen::uniform_bipartite(500, 400, 6_000, s)
    } else {
        gen::uniform_bipartite(100_000, 80_000, 1_200_000, s)
    }
}

struct State {
    matrix: Csr,
    partition: Partition,
    addrs: Vec<String>,
    workers: Vec<Daemon>,
}

fn job(st: &mut State, sp: &mut Spans, broken: bool) -> Result<(Kind, Vec<f64>), JobError> {
    let g = sp
        .time("graph.build_ms", || {
            BipartiteGraph::try_from_matrix(&st.matrix)
        })
        .map_err(|e| JobError::Failed(e.to_string()))?;
    let mut coord = sp
        .time("dist.connect_ms", || Coordinator::connect(&st.addrs))
        .map_err(|e| JobError::Failed(format!("connecting workers: {e}")))?;
    let out = sp
        .time("dist.color_ms", || coord.color(&st.matrix, &st.partition))
        .map_err(JobError::Failed)?;
    drop(coord);
    if let Some(d) = out.degraded {
        return Err(JobError::Failed(format!("degraded sharded run: {d}")));
    }
    sp.add("dist.colors", out.num_colors as f64);
    sp.add("dist.rounds", out.rounds() as f64);
    sp.add("dist.messages", out.total_messages() as f64);
    sp.add(
        "dist.conflicts",
        out.supersteps.iter().map(|s| s.conflicts).sum::<usize>() as f64,
    );
    let mut colors = out.colors;
    if broken {
        let net = (0..g.n_nets())
            .find(|&v| g.vtxs(v).len() >= 2)
            .expect("a net with two pins");
        colors[g.vtxs(net)[0] as usize] = colors[g.vtxs(net)[1] as usize];
    }
    sp.time("core.verify_ms", || bgpc::verify::verify_bgpc(&g, &colors))
        .map_err(JobError::Invalid)?;
    Ok((
        Kind::Cold,
        vec![out.num_colors as f64 / g.max_net_size().max(1) as f64],
    ))
}

pub fn run(opts: &Opts, work: &Path) -> Outcome {
    let mut n = 0;
    let mut make = || {
        n += 1;
        let matrix = shard_input(opts.seed, opts.tiny);
        let partition = Partition::block(matrix.ncols(), SHARDS);
        let workers: Vec<Daemon> = (0..SHARDS)
            .map(|w| {
                let cache_dir = work.join(format!("shard-setup{n}-worker{w}"));
                let _ = std::fs::remove_dir_all(&cache_dir);
                Daemon::start(ServeConfig {
                    pool_threads: 1,
                    cache_dir,
                    ..ServeConfig::default()
                })
                .expect("worker daemon binds on loopback")
            })
            .collect();
        for d in &workers {
            while d.pool_workers() == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let addrs = workers.iter().map(|d| d.local_addr().to_string()).collect();
        State {
            matrix,
            partition,
            addrs,
            workers,
        }
    };
    let (mut st, mut setups) = setup_repeated(&mut make);
    let inputs = vec![InputStamp::new(
        "shard",
        &st.matrix,
        gen::max_net(&st.matrix),
    )];
    let spawned = st.workers.iter().map(Daemon::pool_workers).sum();
    let host = Host::new(SHARDS, spawned);

    let broken = opts.corrupt;
    let mut tally = Tally::default();
    let mut off = Spans::new(std::time::Instant::now(), 0, false);
    settle(&mut tally, 0.0, job(&mut st, &mut off, broken));

    let mut notes = Vec::new();
    let measured = measure(
        opts,
        &mut st,
        &mut tally,
        |_| {},
        |st, sp| job(st, sp, broken),
    );
    let result = match measured {
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
        Measured::Traced {
            mut spans,
            overhead,
        } => {
            let g = BipartiteGraph::from_matrix(&st.matrix);
            // The same partition colored by the in-process BSP model: the
            // gap to job_ms.p50 is the transport.
            let mut inproc = Vec::new();
            let mut sharded_colors = 0;
            for _ in 0..3 {
                let t0 = std::time::Instant::now();
                let r = DistRunner::new(&g, st.partition.clone()).run();
                inproc.push(t0.elapsed().as_secs_f64() * 1e3);
                sharded_colors = r.num_colors;
            }
            // Single-node reference coloring (N1-N2, natural order), traced.
            let mut pool = par::Pool::new(SINGLE_THREADS);
            let threads = pool.threads();
            pool.set_tracer(Arc::new(trace::Recorder::new(threads)));
            spans.begin_job(u64::MAX);
            let order = spans.time("graph.order_ms", || Ordering::Natural.vertex_order_bgpc(&g));
            let r = spans.time("core.color_ms", || {
                bgpc::color_bgpc_with_opts(
                    &g,
                    &order,
                    &Schedule::n1_n2(),
                    &pool,
                    RunnerOpts::default(),
                )
            });
            record_coloring(&mut spans, &r, g.n_vertices(), Suffix::Bgpc);
            spans.end_job();
            if let Err(e) = bgpc::verify::verify_bgpc(&g, &r.colors) {
                tally.attempted += 1;
                tally.invalid(format!("single-node reference: {e}"));
            }
            let vs_single = spans.median_of("dist.colors") / r.num_colors.max(1) as f64;
            notes.push(format!(
                "in-process BSP colors={sharded_colors} single-node colors={}",
                r.num_colors
            ));
            let run_level = [
                ("trace.overhead", overhead),
                ("dist.inprocess_ms", median(&inproc)),
                ("dist.colors_vs_single", vs_single),
            ];
            Measurement::Traced {
                metrics: per_layer(&spans, &run_level),
                spans,
            }
        }
    };
    Outcome {
        tally,
        inputs,
        host,
        notes,
        result,
    }
}
