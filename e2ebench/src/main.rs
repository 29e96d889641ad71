//! End-to-end and per-layer benchmark of the BGPC workspace.
//!
//! ```text
//! e2ebench --workload NAME --seed N --seconds S --trace 0|1
//! e2ebench selftest
//! e2ebench compare REPORT_A REPORT_B
//! ```
//!
//! A run prints its host stamps, input digests and every metric with its
//! unit, writes a report (and, traced, a chrome trace) under
//! `.bench_work/`, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! Untraced runs report the end-to-end metrics, traced runs the per-layer
//! ones. The exit code is 1 if any coloring failed verification. See
//! `README.md` next to this crate for the workloads and metrics.

mod color;
mod gen;
mod harness;
mod host;
mod metrics;
mod served;
mod shard;

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use harness::{InputStamp, Measurement, Opts, Outcome};
use host::Host;
use metrics::{end_to_end, Job, Kind, Metric, Plain, Tally, END_TO_END, PER_LAYER};

const WORKLOADS: [&str; 4] = [
    "color-movielens",
    "color-coauthor",
    "serve-mixed",
    "shard-2",
];
/// Scratch space inside the checkout; caches are removed after each run.
const WORK_DIR: &str = ".bench_work";
/// Processes an untraced run is split into. On a small VM a whole
/// process's timings sit up to ±15% off another's (same seed, same
/// binary), while jobs inside one process agree to a few percent; pooling
/// the jobs of several shorter processes averages that offset out. Each
/// process also times set-ups before and after its measured span, so the
/// set-up samples are spread over the whole run.
const CHILDREN: usize = 10;

fn usage() -> ! {
    eprintln!(
        "usage: e2ebench --workload {} --seed N --seconds S --trace 0|1\n       \
         e2ebench selftest\n       e2ebench compare REPORT_A REPORT_B",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

/// Parses a run's flags; `--child` marks one process of a split run.
fn parse_run(args: &[String]) -> (String, Opts, bool) {
    let mut workload = None;
    let mut child = false;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        corrupt: false,
    };
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--child" {
            child = true;
            i += 1;
            continue;
        }
        let v = args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--workload" => workload = Some(v),
            "--seed" => opts.seed = v.parse().unwrap_or_else(|_| usage()),
            "--seconds" => opts.seconds = v.parse().unwrap_or_else(|_| usage()),
            "--trace" => opts.trace = v == "1",
            _ => usage(),
        }
        i += 2;
    }
    let workload = workload.unwrap_or_else(|| usage());
    if !WORKLOADS.contains(&workload.as_str()) {
        usage();
    }
    (workload, opts, child)
}

fn run_workload(workload: &str, opts: &Opts, work: &Path) -> Outcome {
    match workload {
        "color-movielens" => color::run(opts, false),
        "color-coauthor" => color::run(opts, true),
        "serve-mixed" => served::run(opts, work),
        "shard-2" => shard::run(opts, work),
        _ => unreachable!("workload names are checked when parsing"),
    }
}

/// Runs the workload in this process, in a fresh directory for daemon
/// caches that is removed afterwards.
fn run_here(workload: &str, opts: &Opts) -> Outcome {
    let work = Path::new(WORK_DIR).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("create the work directory inside the checkout");
    let o = run_workload(workload, opts, &work);
    let _ = std::fs::remove_dir_all(&work);
    o
}

/// A child's raw record, one item per line, for the parent to pool.
fn print_child(o: &Outcome) {
    println!(
        "host {} {}",
        o.host.requested_threads, o.host.spawned_workers
    );
    for i in &o.inputs {
        println!(
            "input {} {:016x} {} {} {} {} {}",
            i.name, i.digest, i.nrows, i.ncols, i.nnz, i.max_net, i.bound
        );
    }
    println!(
        "tally {} {} {}",
        o.tally.attempted, o.tally.failed, o.tally.invalid
    );
    for n in &o.tally.notes {
        println!("fail {n}");
    }
    if let Measurement::Plain(p) = &o.result {
        let setups: Vec<String> = p.setups.iter().map(f64::to_string).collect();
        println!("plain {} {} {}", p.elapsed_s, p.rss_mb[0], setups.join(" "));
        for j in &p.jobs {
            let kind = match j.kind {
                Kind::Cold => 'c',
                Kind::Hit => 'h',
                Kind::Update => 'u',
            };
            let ratios: Vec<String> = j.ratios.iter().map(f64::to_string).collect();
            println!("job {kind} {} {}", j.ms, ratios.join(" "));
        }
    }
}

fn parse_child(text: &str) -> Result<Outcome, String> {
    let mut host = None;
    let mut inputs = Vec::new();
    let mut tally = Tally::default();
    let mut plain = Plain::default();
    for line in text.lines() {
        let w: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("malformed child line {line:?}");
        let n = |k: usize| w.get(k).and_then(|x| x.parse::<f64>().ok()).ok_or_else(bad);
        let floats = |from: usize| w.iter().skip(from).filter_map(|x| x.parse::<f64>().ok());
        match w.first().copied() {
            Some("host") => host = Some(Host::new(n(1)? as usize, n(2)? as usize)),
            Some("input") => inputs.push(InputStamp {
                name: w.get(1).ok_or_else(bad)?.to_string(),
                digest: w
                    .get(2)
                    .and_then(|x| u64::from_str_radix(x, 16).ok())
                    .ok_or_else(bad)?,
                nrows: n(3)? as usize,
                ncols: n(4)? as usize,
                nnz: n(5)? as usize,
                max_net: n(6)? as usize,
                bound: n(7)? as usize,
            }),
            Some("tally") => {
                tally.attempted = n(1)? as u64;
                tally.failed = n(2)? as u64;
                tally.invalid = n(3)? as u64;
            }
            Some("fail") => tally.notes.push(line["fail ".len()..].to_string()),
            Some("plain") => {
                plain.elapsed_s = n(1)?;
                plain.rss_mb.push(n(2)?);
                plain.setups.extend(floats(3));
            }
            Some("job") => {
                let kind = match w.get(1) {
                    Some(&"c") => Kind::Cold,
                    Some(&"h") => Kind::Hit,
                    Some(&"u") => Kind::Update,
                    _ => return Err(bad()),
                };
                plain.jobs.push(Job {
                    ms: n(2)?,
                    kind,
                    ratios: floats(3).collect(),
                });
            }
            _ => {}
        }
    }
    Ok(Outcome {
        tally,
        inputs,
        host: host.ok_or("child printed no host line")?,
        notes: Vec::new(),
        result: Measurement::Plain(plain),
    })
}

/// An untraced run: [`CHILDREN`] processes of `seconds / CHILDREN` each,
/// run one after another, their jobs, set-ups and tallies pooled.
fn run_children(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let seconds = (opts.seconds / CHILDREN as f64).to_string();
    let seed = opts.seed.to_string();
    let mut pooled: Option<Outcome> = None;
    for c in 0..CHILDREN {
        let out = Command::new(&exe)
            .args(["--child", "--workload", workload, "--seed", &seed])
            .args(["--seconds", &seconds, "--trace", "0"])
            .output()
            .map_err(|e| format!("starting child {c}: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "child {c} exited with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let o = parse_child(&String::from_utf8_lossy(&out.stdout))?;
        let Some(p) = pooled.as_mut() else {
            pooled = Some(o);
            continue;
        };
        let digests = |o: &Outcome| o.inputs.iter().map(|i| i.digest).collect::<Vec<_>>();
        if digests(p) != digests(&o) {
            return Err(format!("child {c} colored different inputs"));
        }
        p.tally.merge(o.tally);
        if let (Measurement::Plain(a), Measurement::Plain(b)) = (&mut p.result, o.result) {
            a.merge(b);
        }
    }
    pooled.ok_or_else(|| "no child ran".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `value` as JSON: all digits, and never NaN or infinity.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The full report: stamps, inputs and metrics, for `compare`.
fn report_json(workload: &str, opts: &Opts, o: &Outcome, metrics: &[Metric]) -> String {
    let h = &o.host;
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {{\"nproc\": {}, \"requested_threads\": {}, \"spawned_workers\": {}, \
         \"isa\": {}, \"git_sha\": {}, \"oversubscribed\": {}}}, \"inputs\": [",
        json_str(workload),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        h.nproc,
        h.requested_threads,
        h.spawned_workers,
        json_str(h.isa),
        json_str(&h.git_sha),
        h.oversubscribed()
    );
    let inputs: Vec<String> = o
        .inputs
        .iter()
        .map(|i| {
            format!(
                "{{\"name\": {}, \"digest\": \"{:016x}\", \"nrows\": {}, \"ncols\": {}, \"nnz\": {}, \
                 \"max_net\": {}, \"bound\": {}}}",
                json_str(&i.name),
                i.digest,
                i.nrows,
                i.ncols,
                i.nnz,
                i.max_net,
                i.bound
            )
        })
        .collect();
    let _ = writeln!(
        s,
        "{}], \"attempted\": {}, \"failed\": {}, \"invalid\": {}, \"metrics\": {}}}",
        inputs.join(", "),
        o.tally.attempted,
        o.tally.failed,
        o.tally.invalid,
        metrics_json(metrics)
    );
    s
}

/// The metrics of an outcome, with the notes that explain them.
fn finish(o: &Outcome) -> (Vec<Metric>, Vec<String>) {
    let mut notes = o.notes.clone();
    let metrics = match &o.result {
        Measurement::Plain(p) => {
            let (metrics, tail_note) = end_to_end(p, &o.tally);
            let count = |k: Kind| p.jobs.iter().filter(|j| j.kind == k).count();
            notes.push(tail_note);
            notes.push(format!(
                "mix: cold={} hit={} update={}",
                count(Kind::Cold),
                count(Kind::Hit),
                count(Kind::Update)
            ));
            metrics
        }
        Measurement::Traced { metrics, .. } => metrics.clone(),
    };
    (metrics, notes)
}

fn run_cmd(args: &[String]) -> i32 {
    let (workload, opts, child) = parse_run(args);
    if child {
        print_child(&run_here(&workload, &opts));
        return 0;
    }
    let o = if opts.trace {
        run_here(&workload, &opts)
    } else {
        match run_children(&workload, &opts) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("e2ebench: {e}");
                return 1;
            }
        }
    };
    let (metrics, notes) = finish(&o);

    let h = &o.host;
    println!(
        "e2ebench: workload={workload} seed={} seconds={} trace={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!(
        "host: nproc={} requested_threads={} spawned_workers={} isa={} git={} oversubscribed={}",
        h.nproc,
        h.requested_threads,
        h.spawned_workers,
        h.isa,
        h.git_sha,
        h.oversubscribed()
    );
    if h.oversubscribed() {
        println!(
            "host: OVERSUBSCRIBED — more coloring threads than cores; excluded from comparisons"
        );
    }
    for i in &o.inputs {
        println!(
            "input: {} digest={:016x} {}x{} nnz={} max_net={} lower_bound={}",
            i.name, i.digest, i.nrows, i.ncols, i.nnz, i.max_net, i.bound
        );
    }
    for n in notes.iter().chain(&o.tally.notes) {
        println!("note: {n}");
    }
    let failed_share = o.tally.failed as f64 / o.tally.attempted.max(1) as f64;
    println!(
        "jobs: attempted={} failed={} invalid={} failed_share={failed_share}",
        o.tally.attempted, o.tally.failed, o.tally.invalid
    );
    for m in &metrics {
        println!("metric {:<28} {:>16} {}", m.name, json_num(m.value), m.unit);
    }
    let spans = match &o.result {
        Measurement::Traced { spans, .. } => Some(spans),
        Measurement::Plain(_) => None,
    };
    if let (Some(sp), true) = (spans, workload.starts_with("color-")) {
        let acc: f64 = [
            "graph.build_ms",
            "sparse.relabel_ms",
            "graph.order_ms",
            "core.net_color_ms",
            "core.vertex_color_ms",
            "core.conflict_ms",
            "core.verify_ms",
        ]
        .iter()
        .map(|n| sp.median_of(n))
        .sum();
        println!(
            "accounting: per-layer medians sum to {acc:.3} ms of a traced job p50 of {:.3} ms",
            sp.job_p50()
        );
    }

    let reports = Path::new(WORK_DIR).join("reports");
    let stem = format!("{workload}-seed{}-trace{}", opts.seed, u8::from(opts.trace));
    if std::fs::create_dir_all(&reports).is_ok() {
        let path = reports.join(format!("{stem}.json"));
        if std::fs::write(&path, report_json(&workload, &opts, &o, &metrics)).is_ok() {
            println!("report: {}", path.display());
        }
        if let Some(sp) = spans {
            let path = reports.join(format!("{stem}.trace.json"));
            if std::fs::write(&path, sp.chrome_json(&workload)).is_ok() {
                println!("trace: {}", path.display());
            }
        }
    }
    let correct = o.tally.invalid == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.tally.attempted.max(1),
        o.tally.failed,
        metrics_json(&metrics)
    );
    if correct {
        0
    } else {
        1
    }
}

/// Tiny runs of every workload, untraced and traced, must emit every
/// metric with its unit and fail nothing; corrupted colorings must be
/// counted as failed.
fn selftest() -> i32 {
    let mut bad = Vec::new();
    for w in WORKLOADS {
        for trace in [false, true] {
            let opts = Opts {
                seed: 7,
                seconds: 0.4,
                trace,
                tiny: true,
                corrupt: false,
            };
            let o = run_here(w, &opts);
            let (metrics, _) = finish(&o);
            let want = if trace { PER_LAYER } else { END_TO_END };
            let got: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
            if got != want {
                bad.push(format!("{w} trace={trace}: emitted {got:?}"));
            }
            if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
                bad.push(format!("{w} trace={trace}: {} is not finite", m.name));
            }
            if o.tally.failed != 0 || o.tally.attempted < 2 {
                bad.push(format!(
                    "{w} trace={trace}: {} of {} jobs failed",
                    o.tally.failed, o.tally.attempted
                ));
            }
            println!(
                "selftest: {w} trace={} emitted {} metrics, {} jobs",
                u8::from(trace),
                metrics.len(),
                o.tally.attempted
            );
        }
        let opts = Opts {
            seed: 7,
            seconds: 0.2,
            trace: false,
            tiny: true,
            corrupt: true,
        };
        let o = run_here(w, &opts);
        let ok_share = finish(&o)
            .0
            .iter()
            .find(|m| m.name == "ok_share")
            .map(|m| m.value);
        if o.tally.invalid == 0 || o.tally.failed != o.tally.attempted || ok_share != Some(0.0) {
            bad.push(format!(
                "{w}: corrupted colorings passed (attempted={} failed={} invalid={} ok_share={ok_share:?})",
                o.tally.attempted, o.tally.failed, o.tally.invalid
            ));
        }
        println!(
            "selftest: {w} corrupted colorings: {} of {} jobs failed",
            o.tally.failed, o.tally.attempted
        );
    }
    // The pooled path: a split run must parse back every child's jobs.
    let opts = Opts {
        seed: 7,
        seconds: 0.0,
        trace: false,
        tiny: false,
        corrupt: false,
    };
    match run_children("color-coauthor", &opts) {
        Ok(o) if o.tally.attempted == CHILDREN as u64 && o.tally.failed == 0 => {}
        Ok(o) => bad.push(format!("split run pooled {} jobs", o.tally.attempted)),
        Err(e) => bad.push(format!("split run: {e}")),
    }
    for b in &bad {
        println!("selftest: FAIL {b}");
    }
    if bad.is_empty() {
        println!("selftest: PASS");
        0
    } else {
        1
    }
}

/// Compares two reports metric by metric (B ÷ A). Refuses when the inputs'
/// digests differ, the workloads differ, or either run was oversubscribed.
fn compare(a: &str, b: &str) -> i32 {
    let load = |p: &str| -> trace::reader::Json {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("compare: reading {p}: {e}");
            std::process::exit(2)
        });
        trace::reader::parse(&text).unwrap_or_else(|e| {
            eprintln!("compare: parsing {p}: {e}");
            std::process::exit(2)
        })
    };
    let (ra, rb) = (load(a), load(b));
    let field = |r: &trace::reader::Json, k: &str| {
        r.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string()
    };
    let digests = |r: &trace::reader::Json| -> Vec<String> {
        r.get("inputs")
            .and_then(|v| v.as_arr())
            .map(|xs| xs.iter().map(|x| field(x, "digest")).collect())
            .unwrap_or_default()
    };
    let over = |r: &trace::reader::Json| {
        r.get("host")
            .and_then(|h| h.get("oversubscribed"))
            .map(|v| matches!(v, trace::reader::Json::Bool(true)))
    };
    if field(&ra, "workload") != field(&rb, "workload") {
        eprintln!("compare: refused — different workloads");
        return 3;
    }
    if digests(&ra) != digests(&rb) {
        eprintln!(
            "compare: refused — input digests differ ({:?} vs {:?}); run both with the same --seed",
            digests(&ra),
            digests(&rb)
        );
        return 3;
    }
    if over(&ra) != Some(false) || over(&rb) != Some(false) {
        eprintln!("compare: refused — a run is oversubscribed or has no host stamp");
        return 3;
    }
    let (Some(ma), Some(mb)) = (ra.get("metrics"), rb.get("metrics")) else {
        eprintln!("compare: a report has no metrics");
        return 2;
    };
    println!("{:<28} {:>14} {:>14} {:>8}", "metric", "A", "B", "B/A");
    for &(name, _) in END_TO_END.iter().chain(PER_LAYER) {
        let val = |m: &trace::reader::Json| {
            m.get(name)
                .and_then(|v| v.get("value"))
                .and_then(|v| v.as_f64())
        };
        if let (Some(x), Some(y)) = (val(ma), val(mb)) {
            let ratio = if x != 0.0 {
                format!("{:.3}", y / x)
            } else {
                "-".into()
            };
            println!("{name:<28} {x:>14.4} {y:>14.4} {ratio:>8}");
        }
    }
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("selftest") => selftest(),
        Some("compare") if args.len() == 3 => compare(&args[1], &args[2]),
        Some(_) => run_cmd(&args),
        None => usage(),
    };
    std::process::exit(code);
}
