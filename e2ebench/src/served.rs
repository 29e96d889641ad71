//! `serve-mixed`: an in-process `serve::Daemon` (pool of 2) on loopback,
//! driven as a closed loop by two `ServeClient`s that each wait for their
//! reply. Jobs are engine-routed (empty schedule).
//!
//! Graph `i` of the workload is base graph `i mod BASES` (seeded,
//! generated at set-up) with its vertex ids shuffled by a permutation
//! seeded by `i`: same structure, a fresh fingerprint. Client `c` submits
//! graphs `c, c + 2, c + 4, …` and repeats a fixed eight-job cycle: the
//! first submit of its next graph (a cold miss), then
//! `hit, hit, update, hit, hit, update, hit` against graphs it has already
//! submitted. Shares: 1/8 cold, 5/8 hits, 1/4 updates. An update deletes 5
//! edges of a cached base and inserts 5 absent ones, so the daemon reseeds
//! from the cached coloring. `README.md` gives where each share and the
//! delta size come from.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bgpc::{RunnerOpts, Schedule};
use graph::{BipartiteGraph, Ordering};
use serve::cache::CachedColoring;
use serve::{
    Daemon, JobRequest, Priority, ResultCache, RetryPolicy, ServeClient, ServeConfig, UpdateRequest,
};
use sparse::Csr;

use crate::gen::{self, Rng};
use crate::harness::{
    settle, setup_again, setup_repeated, InputStamp, JobError, Measurement, Opts, Outcome,
};
use crate::host::{peak_rss_mb, Host};
use crate::metrics::{median, per_layer, record_coloring, Job, Kind, Plain, Spans, Suffix, Tally};

const POOL_THREADS: usize = 2;
const CLIENTS: usize = 2;
/// Edges deleted, and edges inserted, by one update: together the 10-edge
/// half-deletions batch of `bench_coloring --delta`.
const DELTA_EDGES: usize = 5;
/// Base graphs generated at set-up.
const BASES: usize = 32;
/// Nets, vertices, entries and widest net of each base graph: small
/// rating-shaped instances that take tens of milliseconds to color cold.
const GRAPH_SHAPE: (usize, usize, usize, usize) = (600, 4_000, 40_000, 1_000);
/// The per-client job cycle; each cycle starts with a cold submit.
const CYCLE: [Kind; 8] = [
    Kind::Cold,
    Kind::Hit,
    Kind::Hit,
    Kind::Update,
    Kind::Hit,
    Kind::Hit,
    Kind::Update,
    Kind::Hit,
];

fn base_graph(seed: u64, tiny: bool) -> Csr {
    if tiny {
        gen::skewed_bipartite(60, 200, 1_200, 0.9, 80, seed)
    } else {
        let (nets, verts, nnz, max_net) = GRAPH_SHAPE;
        gen::skewed_bipartite(nets, verts, nnz, 0.9, max_net, seed)
    }
}

/// The seeded base graphs of one run.
fn bases(seed: u64, tiny: bool) -> Vec<Csr> {
    (0..BASES)
        .map(|b| base_graph(gen::derive(seed, 1000 + b as u64), tiny))
        .collect()
}

/// Graph `i` of the workload: its base with vertex ids shuffled.
fn workload_graph(bases: &[Csr], seed: u64, i: usize) -> Csr {
    let base = &bases[i % bases.len()];
    let mut perm: Vec<u32> = (0..base.ncols() as u32).collect();
    Rng::new(gen::derive(seed, 5000 + i as u64)).shuffle(&mut perm);
    gen::permute_columns(base, &perm)
}

/// Starts a daemon on a fresh cache directory and waits until its executor
/// has spawned its pool, so that daemon start and pool spawn land in set-up.
fn start_daemon(cache_dir: PathBuf) -> Daemon {
    let _ = std::fs::remove_dir_all(&cache_dir);
    let d = Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        pool_threads: POOL_THREADS,
        cache_dir,
        ..ServeConfig::default()
    })
    .expect("daemon binds on loopback");
    while d.pool_workers() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    ServeClient::new(d.local_addr().to_string(), RetryPolicy::default())
        .ping()
        .expect("daemon answers a ping");
    d
}

/// In-process replay of the daemon's stages for the traced run: the same
/// public functions on the same bytes, each under its own span.
struct Replay {
    cache: ResultCache,
    engine: bgpc::Engine,
    pool: Mutex<par::Pool>,
}

/// Span names that are daemon stages (what `serve.unaccounted_ms` subtracts).
const STAGES: &[&str] = &[
    "sparse.decode_ms",
    "serve.fingerprint_ms",
    "serve.cache_get_ms",
    "graph.build_ms",
    "core.select_ms",
    "sparse.relabel_ms",
    "graph.order_ms",
    "core.color_ms",
    "core.delta_apply_ms",
    "core.incremental_ms",
    "serve.cache_put_ms",
];

impl Replay {
    fn new(dir: PathBuf) -> Replay {
        let _ = std::fs::remove_dir_all(&dir);
        let mut pool = par::Pool::new(POOL_THREADS);
        let threads = pool.threads();
        pool.set_tracer(std::sync::Arc::new(trace::Recorder::new(threads)));
        Replay {
            cache: ResultCache::open(dir).expect("replay cache directory"),
            engine: bgpc::Engine::with_default_table(),
            pool: Mutex::new(pool),
        }
    }

    /// The engine-routed full run, as the daemon's executor does it.
    fn full(&self, sp: &mut Spans, m: &Csr, fp: u128) {
        let Ok(g) = sp.time("graph.build_ms", || {
            BipartiteGraph::try_from_matrix_owned(m.clone())
        }) else {
            return;
        };
        let choice = sp.time("core.select_ms", || self.engine.select_bgpc(&g));
        let cfg = &choice.config;
        let (pm, perm) = sp.time("sparse.relabel_ms", || cfg.relabel.apply_columns(m));
        let pool = self.pool.lock().expect("replay pool lock is not poisoned");
        let opts = RunnerOpts {
            online: Some(bgpc::OnlineTuner::default()),
            ..RunnerOpts::default()
        };
        let mut r = match cfg.index_width {
            sparse::IndexWidth::U32 => {
                let gp = sp.time("graph.build_ms", || BipartiteGraph::from_matrix(&pm));
                let order: Vec<u32> = (0..gp.n_vertices() as u32).collect();
                sp.time("core.color_ms", || {
                    bgpc::engine::color_bgpc_with_config(&gp, &order, cfg, &pool, opts)
                })
            }
            sparse::IndexWidth::U64 => {
                let pm = pm.to_index::<u64>();
                let gp = sp.time("graph.build_ms", || BipartiteGraph::from_matrix(&pm));
                let order: Vec<u32> = (0..gp.n_vertices() as u32).collect();
                sp.time("core.color_ms", || {
                    bgpc::engine::color_bgpc_with_config(&gp, &order, cfg, &pool, opts)
                })
            }
        };
        drop(pool);
        record_coloring(sp, &r, g.n_vertices(), Suffix::Bgpc);
        if let Some(p) = &perm {
            r.colors = sparse::unpermute(&r.colors, p);
        }
        self.put(sp, fp, r.num_colors, cfg.describe(), r.colors);
    }

    fn put(&self, sp: &mut Spans, fp: u128, num_colors: usize, config: String, colors: Vec<i32>) {
        let entry = CachedColoring {
            num_colors: num_colors as u32,
            config,
            colors,
        };
        let _ = sp.time("serve.cache_put_ms", || self.cache.put(fp, &entry));
    }

    fn submit(&self, sp: &mut Spans, bytes: &[u8]) {
        let Ok(m) = sp.time("sparse.decode_ms", || sparse::bin_io::read_bin(bytes)) else {
            return;
        };
        let fp = sp.time("serve.fingerprint_ms", || serve::csr_fingerprint(&m));
        if sp
            .time("serve.cache_get_ms", || self.cache.get(fp))
            .is_none()
        {
            self.full(sp, &m, fp);
        }
    }

    fn update(&self, sp: &mut Spans, bytes: &[u8], delta: &Delta) {
        let Ok(base) = sp.time("sparse.decode_ms", || sparse::bin_io::read_bin(bytes)) else {
            return;
        };
        let Ok(delta) = bgpc::CsrDelta::try_new(delta.insertions.clone(), delta.deletions.clone())
        else {
            return;
        };
        let base_fp = sp.time("serve.fingerprint_ms", || serve::csr_fingerprint(&base));
        let Ok(applied) = sp.time("core.delta_apply_ms", || bgpc::apply_delta(&base, &delta))
        else {
            return;
        };
        let dirty = applied.dirty_bgpc().to_vec();
        let mutated = applied.matrix;
        let fp = sp.time("serve.fingerprint_ms", || serve::csr_fingerprint(&mutated));
        if sp
            .time("serve.cache_get_ms", || self.cache.get(fp))
            .is_some()
        {
            return;
        }
        let Some(hit) = sp.time("serve.cache_get_ms", || self.cache.get(base_fp)) else {
            return self.full(sp, &mutated, fp);
        };
        let Ok(g) = sp.time("graph.build_ms", || {
            BipartiteGraph::try_from_matrix_owned(mutated.clone())
        }) else {
            return;
        };
        let order = sp.time("graph.order_ms", || Ordering::Natural.vertex_order_bgpc(&g));
        let pool = self.pool.lock().expect("replay pool lock is not poisoned");
        let r = sp.time("core.incremental_ms", || {
            bgpc::recolor_bgpc_incremental(
                &g,
                &hit.colors,
                &dirty,
                &order,
                &Schedule::n1_n2(),
                &pool,
                RunnerOpts::default(),
            )
        });
        drop(pool);
        sp.add(
            "core.dirty_share",
            dirty.len() as f64 / g.n_vertices().max(1) as f64,
        );
        self.put(sp, fp, r.num_colors, "update".into(), r.colors);
    }
}

/// An update's edge delta.
struct Delta {
    insertions: Vec<(u32, u32)>,
    deletions: Vec<(u32, u32)>,
}

/// One request of a traced client, kept for the replay after the phase.
struct Sent {
    id: u64,
    /// The workload graph the request was built from.
    graph: usize,
    update: Option<Delta>,
    ms: f64,
}

/// One client's closed loop over its share of the workload's graphs.
struct Client<'a> {
    id: usize,
    addr: String,
    bases: &'a [Csr],
    seed: u64,
    rng: Rng,
    broken: bool,
}

struct ClientRun {
    jobs: Vec<Job>,
    tally: Tally,
    spans: Spans,
    retries: u64,
    elapsed_s: f64,
    /// Traced runs only: every request, in the order it was sent.
    sent: Vec<Sent>,
}

impl Client<'_> {
    fn run(mut self, seconds: f64, traced: bool, epoch: Instant) -> ClientRun {
        let policy = RetryPolicy {
            jitter_seed: 0x5e17e + self.id as u64,
            ..RetryPolicy::default()
        };
        let mut client = ServeClient::new(self.addr.clone(), policy);
        let mut spans = Spans::new(epoch, self.id, traced);
        let (mut jobs, mut tally, mut retries) = (Vec::new(), Tally::default(), 0);
        let mut sent = Vec::new();
        let start = Instant::now();
        let mut submitted = 0usize;
        let mut step = 0usize;
        let mut id = 0u64;
        while start.elapsed().as_secs_f64() < seconds {
            // Input preparation is the caller's work, outside the timing.
            let kind = CYCLE[step % CYCLE.len()];
            step += 1;
            let k = match kind {
                Kind::Cold => {
                    submitted += 1;
                    submitted - 1
                }
                _ => self.rng.below(submitted),
            };
            let graph = k * CLIENTS + self.id;
            let matrix = workload_graph(self.bases, self.seed, graph);
            let update = (kind == Kind::Update).then(|| Delta {
                deletions: gen::present_edges(&matrix, DELTA_EDGES, &mut self.rng),
                insertions: gen::absent_edges(&matrix, DELTA_EDGES, &mut self.rng),
            });
            let bytes = serve::client::encode_graph(&matrix);
            let t0 = Instant::now();
            let reply = match &update {
                Some(d) => client.update(&UpdateRequest {
                    priority: Priority::Normal,
                    deadline_ms: 0,
                    no_cache: false,
                    schedule: String::new(),
                    insertions: d.insertions.clone(),
                    deletions: d.deletions.clone(),
                    graph_bytes: bytes,
                }),
                None => client.submit(&JobRequest {
                    priority: Priority::Normal,
                    deadline_ms: 0,
                    no_cache: false,
                    schedule: String::new(),
                    graph_bytes: bytes,
                }),
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;

            spans.begin_job(id);
            let checked = match reply {
                Err(e) => Err(JobError::Failed(format!("client error: {e}"))),
                Ok(o) => {
                    retries += u64::from(o.attempts.saturating_sub(1));
                    // A submit is a hit or a miss by the daemon's answer.
                    let kind = match kind {
                        Kind::Update => Kind::Update,
                        _ if o.cache_hit => Kind::Hit,
                        _ => Kind::Cold,
                    };
                    if let Some(d) = o.degraded {
                        Err(JobError::Failed(format!("degraded served job: {d}")))
                    } else {
                        let m = match &update {
                            Some(d) => gen::with_delta(&matrix, &d.insertions, &d.deletions),
                            None => matrix,
                        };
                        verify(&mut spans, &m, o.colors, self.broken)
                            .map(|bound| (kind, vec![o.num_colors as f64 / bound as f64]))
                    }
                }
            };
            spans.end_job();
            if traced {
                sent.push(Sent {
                    id,
                    graph,
                    update,
                    ms,
                });
            }
            id += 1;
            jobs.extend(settle(&mut tally, ms, checked));
        }
        ClientRun {
            jobs,
            tally,
            spans,
            retries,
            elapsed_s: start.elapsed().as_secs_f64(),
            sent,
        }
    }
}

/// Replays one client's requests in the order it sent them, after the
/// phase, so that the replay shares no core with the daemon's own work.
/// Clients own disjoint graphs, so the replay cache sees each client's
/// hits and misses as the daemon did.
fn replay_client(rp: &Replay, bases: &[Csr], seed: u64, sent: &[Sent], sp: &mut Spans) {
    for s in sent {
        let bytes = serve::client::encode_graph(&workload_graph(bases, seed, s.graph));
        sp.begin_job(s.id);
        match &s.update {
            Some(d) => rp.update(sp, &bytes, d),
            None => rp.submit(sp, &bytes),
        }
        let stages = sp.job_sum(STAGES);
        sp.add("serve.unaccounted_ms", s.ms - stages);
        sp.end_job();
    }
}

/// Checks a served coloring against the client's own copy of the graph;
/// returns the graph's lower bound.
fn verify(sp: &mut Spans, m: &Csr, mut colors: Vec<i32>, broken: bool) -> Result<usize, JobError> {
    let g = BipartiteGraph::from_matrix(m);
    if broken {
        if let Some(net) = (0..g.n_nets()).find(|&v| g.vtxs(v).len() >= 2) {
            colors[g.vtxs(net)[0] as usize] = colors[g.vtxs(net)[1] as usize];
        }
    }
    sp.time("core.verify_ms", || bgpc::verify::verify_bgpc(&g, &colors))
        .map_err(JobError::Invalid)?;
    Ok(g.max_net_size().max(1))
}

/// One stamp for the base graphs (the shuffles are fixed by the seed): a
/// digest over every base's digest, shapes and entries summed, and the
/// widest net over all bases.
fn bases_stamp(bases: &[Csr]) -> InputStamp {
    let mut stamp = InputStamp {
        name: "serve-bases".into(),
        digest: 0,
        nrows: 0,
        ncols: 0,
        nnz: 0,
        max_net: 0,
        bound: 0,
    };
    for m in bases {
        stamp.digest = stamp.digest.rotate_left(7) ^ gen::digest(m);
        stamp.nrows += m.nrows();
        stamp.ncols += m.ncols();
        stamp.nnz += m.nnz();
        stamp.max_net = stamp.max_net.max(gen::max_net(m));
    }
    stamp.bound = stamp.max_net;
    stamp
}

struct State {
    bases: Vec<Csr>,
    daemon: Daemon,
}

struct Phase {
    jobs: Vec<Job>,
    elapsed_s: f64,
    spans: Spans,
    retries: u64,
}

/// Runs both clients against `daemon` for `seconds`.
fn phase(
    st: &State,
    opts: &Opts,
    seconds: f64,
    replay: Option<&Replay>,
    tally: &mut Tally,
) -> Phase {
    let epoch = Instant::now();
    let addr = st.daemon.local_addr().to_string();
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let c = Client {
                    id,
                    addr: addr.clone(),
                    bases: &st.bases,
                    seed: opts.seed,
                    rng: Rng::new(gen::derive(opts.seed, 77 + id as u64)),
                    broken: opts.corrupt,
                };
                s.spawn(move || c.run(seconds, replay.is_some(), epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let mut out = Phase {
        jobs: Vec::new(),
        elapsed_s: 0.0,
        spans: Spans::new(epoch, 0, true),
        retries: 0,
    };
    for (id, r) in runs.into_iter().enumerate() {
        if let Some(rp) = replay {
            let mut sp = Spans::new(epoch, CLIENTS + id, true);
            replay_client(rp, &st.bases, opts.seed, &r.sent, &mut sp);
            out.spans.merge(sp);
        }
        out.jobs.extend(r.jobs);
        out.elapsed_s = out.elapsed_s.max(r.elapsed_s);
        out.retries += r.retries;
        tally.merge(r.tally);
        out.spans.merge(r.spans);
    }
    out
}

pub fn run(opts: &Opts, work: &Path) -> Outcome {
    let mut n = 0;
    let mut make = || {
        n += 1;
        State {
            bases: bases(opts.seed, opts.tiny),
            daemon: start_daemon(work.join(format!("cache-setup{n}"))),
        }
    };
    let (mut st, mut setups) = setup_repeated(&mut make);
    let inputs = vec![bases_stamp(&st.bases)];
    let host = Host::new(POOL_THREADS, st.daemon.pool_workers());
    let mut tally = Tally::default();

    // Untimed warm-up: one cold submit of a graph outside the pool.
    {
        let warm = base_graph(gen::derive(opts.seed, 999), opts.tiny);
        let mut c = ServeClient::new(st.daemon.local_addr().to_string(), RetryPolicy::default());
        let r = c.submit(&JobRequest {
            priority: Priority::Normal,
            deadline_ms: 0,
            no_cache: false,
            schedule: String::new(),
            graph_bytes: serve::client::encode_graph(&warm),
        });
        let mut off = Spans::new(Instant::now(), 0, false);
        let checked = match r {
            Ok(o) => {
                verify(&mut off, &warm, o.colors, opts.corrupt).map(|_| (Kind::Cold, Vec::new()))
            }
            Err(e) => Err(JobError::Failed(format!("warm-up: {e}"))),
        };
        settle(&mut tally, 0.0, checked);
    }

    if !opts.trace {
        let p = phase(&st, opts, opts.seconds, None, &mut tally);
        let rss_mb = vec![peak_rss_mb()];
        setups.extend(setup_again(st, &mut make));
        let plain = Plain {
            jobs: p.jobs,
            elapsed_s: p.elapsed_s,
            setups,
            rss_mb,
        };
        return Outcome {
            tally,
            inputs,
            host,
            notes: Vec::new(),
            result: Measurement::Plain(plain),
        };
    }

    // Traced run: an untraced half on this daemon, then a traced half on
    // a fresh daemon and cache, so both halves start cold.
    let plain = phase(&st, opts, opts.seconds / 2.0, None, &mut tally);
    st.daemon = start_daemon(work.join("cache-traced"));
    let replay = Replay::new(work.join("cache-replay"));
    let traced = phase(&st, opts, opts.seconds / 2.0, Some(&replay), &mut tally);
    let p50 = |v: &[Job]| median(&v.iter().map(|j| j.ms).collect::<Vec<_>>());
    let stats = st.daemon.stats();
    let load =
        |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed) as f64;
    let run_level = [
        (
            "trace.overhead",
            p50(&traced.jobs) / p50(&plain.jobs).max(1e-9),
        ),
        (
            "serve.hit_share",
            load(&stats.cache_hits) / load(&stats.completed).max(1.0),
        ),
        (
            "serve.reseed_share",
            load(&stats.update_reseeds) / load(&stats.updates).max(1.0),
        ),
        ("serve.queue_peak", st.daemon.peak_queue_depth() as f64),
        ("serve.retries", traced.retries as f64),
    ];
    let metrics = per_layer(&traced.spans, &run_level);
    Outcome {
        tally,
        inputs,
        host,
        notes: Vec::new(),
        result: Measurement::Traced {
            metrics,
            spans: traced.spans,
        },
    }
}
