//! Load generator for the coloring daemon.
//!
//! Starts an in-process [`serve::Daemon`], fires a deterministic job mix
//! at it from several client threads, and writes service-level metrics —
//! p50/p99 latency, throughput, cache hit rate, shed rate — to
//! `BENCH_serve.json` (override with `--out`). The JSON is hand-written
//! like the rest of the bench suite (no serde; hermetic-offline rule).
//!
//! ```text
//! bench_serve [--out PATH] [--jobs N] [--clients C] [--distinct M]
//!             [--queue-capacity Q] [--threads T] [--deadline-ms D] [--seed S]
//! ```

use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serve::client::encode_graph;
use serve::{Daemon, JobRequest, Priority, RetryPolicy, ServeClient, ServeConfig};

struct Args {
    out: String,
    jobs: usize,
    clients: usize,
    distinct: usize,
    queue_capacity: usize,
    threads: usize,
    deadline_ms: u32,
    seed: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            out: "BENCH_serve.json".into(),
            jobs: 48,
            clients: 4,
            distinct: 6,
            queue_capacity: 8,
            threads: 4,
            deadline_ms: 0,
            seed: 42,
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next().unwrap_or_else(|| {
                eprintln!("bench_serve: {flag} needs a value");
                std::process::exit(2);
            })
        };
        let v = val();
        let num = |s: &str| -> u64 {
            s.parse().unwrap_or_else(|_| {
                eprintln!("bench_serve: bad numeric value {s:?}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--out" => args.out = v,
            "--jobs" => args.jobs = num(&v) as usize,
            "--clients" => args.clients = (num(&v) as usize).max(1),
            "--distinct" => args.distinct = (num(&v) as usize).max(1),
            "--queue-capacity" => args.queue_capacity = (num(&v) as usize).max(1),
            "--threads" => args.threads = (num(&v) as usize).max(1),
            "--deadline-ms" => args.deadline_ms = num(&v) as u32,
            "--seed" => args.seed = num(&v),
            _ => {
                eprintln!("bench_serve: unknown flag {flag}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

fn main() {
    let args = parse_args();
    let cache_dir = std::env::temp_dir().join(format!("bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let daemon = Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        pool_threads: args.threads,
        queue_capacity: args.queue_capacity,
        read_timeout: Duration::from_secs(5),
        default_deadline_ms: 0,
        cache_dir: cache_dir.clone(),
        ..ServeConfig::default()
    })
    .unwrap_or_else(|e| {
        eprintln!("bench_serve: daemon failed to start: {e}");
        std::process::exit(1);
    });
    let addr = daemon.local_addr().to_string();

    // Pre-encode the distinct patterns once; clients share them read-only.
    let patterns: Arc<Vec<Vec<u8>>> = Arc::new(
        (0..args.distinct)
            .map(|i| {
                encode_graph(&sparse::gen::bipartite_uniform(
                    400,
                    300,
                    3600,
                    args.seed + i as u64,
                ))
            })
            .collect(),
    );

    let next_job = Arc::new(AtomicUsize::new(0));
    let started = Instant::now();
    let mut workers = Vec::new();
    for c in 0..args.clients {
        let addr = addr.clone();
        let patterns = Arc::clone(&patterns);
        let next_job = Arc::clone(&next_job);
        let total = args.jobs;
        let deadline_ms = args.deadline_ms;
        let seed = args.seed;
        workers.push(std::thread::spawn(move || {
            let mut client = ServeClient::new(
                addr,
                RetryPolicy {
                    max_attempts: 8,
                    base: Duration::from_millis(5),
                    cap: Duration::from_millis(200),
                    jitter_seed: seed ^ (c as u64) << 32,
                },
            );
            let mut latencies_ms: Vec<f64> = Vec::new();
            let mut failed = 0usize;
            let mut degraded = 0usize;
            let mut hits = 0usize;
            loop {
                let i = next_job.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let req = JobRequest {
                    priority: Priority::ALL[i % 3],
                    deadline_ms,
                    no_cache: false,
                    schedule: String::new(),
                    graph_bytes: patterns[i % patterns.len()].clone(),
                };
                let t0 = Instant::now();
                match client.submit(&req) {
                    Ok(o) => {
                        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        degraded += o.degraded.is_some() as usize;
                        hits += o.cache_hit as usize;
                    }
                    Err(_) => failed += 1,
                }
            }
            (latencies_ms, failed, degraded, hits)
        }));
    }

    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut failed = 0usize;
    let mut degraded = 0usize;
    let mut client_hits = 0usize;
    for w in workers {
        let (l, f, d, h) = w.join().expect("client thread panicked");
        latencies_ms.extend(l);
        failed += f;
        degraded += d;
        client_hits += h;
    }
    let wall = started.elapsed();

    let stats = daemon.stats().snapshot();
    let stat = |k: &str| {
        stats
            .iter()
            .find(|(n, _)| *n == k)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    let peak_depth = daemon.peak_queue_depth();
    // Host stamping: record the thread count we *asked* for and the
    // worker count the daemon's pool *actually* spawned as separate
    // fields — rows from clamped or oversubscribed runs must not be
    // compared as if the request had been honored.
    let pool_workers = daemon.pool_workers();
    let host_threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    if pool_workers != args.threads {
        eprintln!(
            "bench_serve: WARN: requested {} worker threads but the pool runs {pool_workers}",
            args.threads
        );
    }
    if host_threads > 0 && args.threads > host_threads {
        eprintln!(
            "bench_serve: WARN: requested {} worker threads on a host with {host_threads} \
             logical CPUs; latencies reflect oversubscription",
            args.threads
        );
    }
    drop(daemon);
    let _ = std::fs::remove_dir_all(&cache_dir);

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let completed = latencies_ms.len();
    let mean = if completed > 0 {
        latencies_ms.iter().sum::<f64>() / completed as f64
    } else {
        0.0
    };
    let hits = stat("cache_hits");
    let misses = stat("cache_misses");
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    let shed = stat("shed");
    let admitted = stat("submitted");
    let shed_rate = if shed + admitted > 0 {
        shed as f64 / (shed + admitted) as f64
    } else {
        0.0
    };
    let throughput = completed as f64 / wall.as_secs_f64().max(1e-9);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"serve\",\n");
    json.push_str(&format!("  \"jobs\": {},\n", args.jobs));
    json.push_str(&format!("  \"clients\": {},\n", args.clients));
    json.push_str(&format!("  \"distinct_matrices\": {},\n", args.distinct));
    json.push_str(&format!("  \"queue_capacity\": {},\n", args.queue_capacity));
    // Requested vs actually-spawned worker counts, stamped separately
    // (plus the host's logical CPU count) so a clamped pool or an
    // oversubscribed host is visible in the archived numbers.
    json.push_str(&format!("  \"requested_threads\": {},\n", args.threads));
    json.push_str(&format!("  \"pool_workers\": {pool_workers},\n"));
    json.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    // The host's ISA features, and whether the daemon's pool was pinned
    // (it never is — affinity is a bench/CLI axis, not a service
    // default) — stamped so BENCH_serve.json rows
    // are comparable across hosts like BENCH_coloring.json ones.
    json.push_str(&format!("  \"isa\": \"{}\",\n", bgpc::simd::isa_features()));
    json.push_str("  \"pinned\": false,\n");
    json.push_str(&format!("  \"deadline_ms\": {},\n", args.deadline_ms));
    json.push_str(&format!("  \"completed\": {completed},\n"));
    json.push_str(&format!("  \"failed\": {failed},\n"));
    json.push_str(&format!("  \"degraded\": {degraded},\n"));
    json.push_str(&format!("  \"deadline_miss\": {},\n", stat("deadline_miss")));
    json.push_str("  \"latency_ms\": {\n");
    json.push_str(&format!("    \"p50\": {:.3},\n", percentile(&latencies_ms, 0.50)));
    json.push_str(&format!("    \"p99\": {:.3},\n", percentile(&latencies_ms, 0.99)));
    json.push_str(&format!("    \"mean\": {mean:.3}\n"));
    json.push_str("  },\n");
    json.push_str(&format!("  \"throughput_jobs_per_s\": {throughput:.3},\n"));
    json.push_str(&format!("  \"cache_hit_rate\": {hit_rate:.4},\n"));
    json.push_str(&format!("  \"client_observed_cache_hits\": {client_hits},\n"));
    json.push_str(&format!("  \"shed_rate\": {shed_rate:.4},\n"));
    json.push_str(&format!("  \"shed\": {shed},\n"));
    json.push_str(&format!("  \"peak_queue_depth\": {peak_depth},\n"));
    json.push_str(&format!("  \"queue_bounded\": {}\n", peak_depth <= args.queue_capacity));
    json.push_str("}\n");

    let mut f = std::fs::File::create(&args.out).unwrap_or_else(|e| {
        eprintln!("bench_serve: cannot create {}: {e}", args.out);
        std::process::exit(1);
    });
    f.write_all(json.as_bytes()).expect("write BENCH_serve.json");
    println!(
        "bench_serve: {completed}/{} jobs in {:.2}s (p50 {:.1} ms, p99 {:.1} ms, \
         hit rate {:.0}%, shed rate {:.0}%) -> {}",
        args.jobs,
        wall.as_secs_f64(),
        percentile(&latencies_ms, 0.50),
        percentile(&latencies_ms, 0.99),
        hit_rate * 100.0,
        shed_rate * 100.0,
        args.out
    );
    if failed > 0 {
        eprintln!("bench_serve: {failed} jobs failed terminally");
        std::process::exit(1);
    }
}
