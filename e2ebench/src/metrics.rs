//! Job records, in-memory spans, and the metric arithmetic.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// What a served job did; the one-shot workloads only run `Cold` jobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Computed a coloring from scratch.
    Cold,
    /// Answered from a stored result.
    Hit,
    /// Recolored after an edge delta.
    Update,
}

/// One finished, verified job.
#[derive(Clone, Debug)]
pub struct Job {
    pub ms: f64,
    pub kind: Kind,
    /// colors ÷ lower bound, one entry per coloring the job produced.
    pub ratios: Vec<f64>,
}

/// The raw record of untraced measurement, from one process or pooled
/// over several.
#[derive(Debug, Default)]
pub struct Plain {
    pub jobs: Vec<Job>,
    /// Measured wall time, summed over processes.
    pub elapsed_s: f64,
    /// Every set-up's seconds.
    pub setups: Vec<f64>,
    /// Each process's peak resident set, MB.
    pub rss_mb: Vec<f64>,
}

impl Plain {
    pub fn merge(&mut self, other: Plain) {
        self.jobs.extend(other.jobs);
        self.elapsed_s += other.elapsed_s;
        self.setups.extend(other.setups);
        self.rss_mb.extend(other.rss_mb);
    }
}

/// Attempted/failed accounting. `invalid` counts colorings that failed
/// verification: any of them makes the run incorrect.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub invalid: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(why);
        }
    }

    pub fn invalid(&mut self, why: String) {
        self.invalid += 1;
        self.fail(format!("invalid coloring: {why}"));
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.invalid += other.invalid;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// A named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Every end-to-end metric, in output order, with its unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_ms.p50", "ms"),
    ("job_ms.tail", "ms"),
    ("jobs_per_s", "1/s"),
    ("colors_over_bound", "ratio"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("cold_ms.p50", "ms"),
    ("hit_ms.p50", "ms"),
    ("update_ms.p50", "ms"),
];

/// Pairs `values` with the names and units of `list`, in order.
fn named(
    list: &[(&'static str, &'static str)],
    values: impl IntoIterator<Item = f64>,
) -> Vec<Metric> {
    list.iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest order statistic with at least ten samples above it, as
/// `(value, percentile, samples)`. With ten samples or fewer no order
/// statistic qualifies and the maximum is reported.
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let idx = if n > 10 { n - 11 } else { n - 1 };
    (s[idx], 100.0 * (idx + 1) as f64 / n as f64, n)
}

/// The end-to-end metrics of an untraced run, and a note naming the
/// tail's percentile and sample count.
pub fn end_to_end(plain: &Plain, tally: &Tally) -> (Vec<Metric>, String) {
    let jobs = &plain.jobs;
    let all: Vec<f64> = jobs.iter().map(|j| j.ms).collect();
    let p50 = median(&all);
    let (tail_ms, tail_pct, n) = tail(&all);
    let ratios: Vec<f64> = jobs.iter().flat_map(|j| j.ratios.iter().copied()).collect();
    // A workload without a job kind reports the all-jobs median under that
    // kind's name: every metric must exist on every workload, and none may
    // read 0.
    let kind_p50 = |k: Kind| {
        let v: Vec<f64> = jobs.iter().filter(|j| j.kind == k).map(|j| j.ms).collect();
        if v.is_empty() {
            p50
        } else {
            median(&v)
        }
    };
    let ok = tally.attempted.saturating_sub(tally.failed) as f64 / tally.attempted.max(1) as f64;
    let metrics = named(
        END_TO_END,
        [
            median(&plain.setups),
            p50,
            tail_ms,
            jobs.len() as f64 / plain.elapsed_s.max(1e-9),
            median(&ratios),
            ok,
            median(&plain.rss_mb),
            kind_p50(Kind::Cold),
            kind_p50(Kind::Hit),
            kind_p50(Kind::Update),
        ],
    );
    (
        metrics,
        format!("job_ms.tail is p{tail_pct:.1} of {n} jobs"),
    )
}

/// One recorded span: a call the benchmark made into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub tid: usize,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Index of the enclosing job span in the same recorder.
    pub parent: Option<usize>,
}

/// In-memory span recorder for one thread of the traced run. Each stage
/// is a span under its job's span; per-job sums per stage name feed the
/// per-layer medians.
pub struct Spans {
    /// Off in untraced runs: every method is then a pass-through.
    pub enabled: bool,
    epoch: Instant,
    tid: usize,
    job: u64,
    job_span: Option<usize>,
    pub spans: Vec<Span>,
    sums: BTreeMap<&'static str, f64>,
    /// Per-job values, keyed by metric name.
    pub per_job: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    pub fn new(epoch: Instant, tid: usize, enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch,
            tid,
            job: 0,
            job_span: None,
            spans: Vec::new(),
            sums: BTreeMap::new(),
            per_job: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin_job(&mut self, job: u64) {
        if !self.enabled {
            return;
        }
        self.job = job;
        self.sums.clear();
        let start_ns = self.now_ns();
        self.job_span = Some(self.spans.len());
        self.spans.push(Span {
            name: "job",
            job,
            tid: self.tid,
            start_ns,
            dur_ns: 0,
            parent: None,
        });
    }

    /// Times `f` as a span named `name` and adds its milliseconds to the
    /// job's sum for that name.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let t0 = Instant::now();
        let out = f();
        let dur = t0.elapsed();
        self.spans.push(Span {
            name,
            job: self.job,
            tid: self.tid,
            start_ns,
            dur_ns: dur.as_nanos() as u64,
            parent: self.job_span,
        });
        *self.sums.entry(name).or_default() += dur.as_secs_f64() * 1e3;
        out
    }

    /// Adds `v` to this job's value of `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        if !self.enabled {
            return;
        }
        *self.sums.entry(name).or_default() += v;
    }

    /// Closes the job span and files its per-name sums.
    pub fn end_job(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(i) = self.job_span.take() {
            self.spans[i].dur_ns = self.now_ns().saturating_sub(self.spans[i].start_ns);
        }
        for (k, v) in std::mem::take(&mut self.sums) {
            self.per_job.entry(k).or_default().push(v);
        }
    }

    /// Sum of this job's spans so far (stage time the replay accounts for).
    pub fn job_sum(&self, names: &[&'static str]) -> f64 {
        names.iter().filter_map(|n| self.sums.get(n)).sum()
    }

    pub fn merge(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in other.per_job {
            self.per_job.entry(k).or_default().extend(v);
        }
    }

    /// Median duration of the recorded job spans, in milliseconds.
    pub fn job_p50(&self) -> f64 {
        let v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == "job")
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect();
        median(&v)
    }

    /// Median over jobs of `name`'s per-job value; 0 when no job had one.
    pub fn median_of(&self, name: &str) -> f64 {
        self.per_job.get(name).map(|v| median(v)).unwrap_or(0.0)
    }

    /// Chrome-trace JSON of every recorded span.
    pub fn chrome_json(&self, process: &str) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        let _ = write!(
            out,
            "  {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
             \"args\": {{\"name\": \"{process}\"}}}}"
        );
        for (i, s) in self.spans.iter().enumerate() {
            // Events are numbered by their position in this array; a
            // stage's `parent` is the number of its job's event.
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                ",\n  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"job\": {}, \"span\": {i}, \
                 \"parent\": {parent}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.job
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Kernel-level figures of one coloring, from the runner's own
/// `IterationMetrics` and per-thread counter sheets (the latter exist only
/// when a `trace::Recorder` is attached to the pool).
pub fn record_coloring(sp: &mut Spans, r: &bgpc::ColoringResult, n: usize, suffix: Suffix) {
    use trace::Counter;
    for m in &r.iterations {
        let ms = m.color_time.as_secs_f64() * 1e3;
        match m.color_kind {
            bgpc::PhaseKind::Net => sp.add("core.net_color_ms", ms),
            bgpc::PhaseKind::Vertex => sp.add("core.vertex_color_ms", ms),
        }
        sp.add("core.conflict_ms", m.conflict_time.as_secs_f64() * 1e3);
    }
    let sheets = r.per_thread_totals();
    let probes: u64 = sheets.iter().map(|s| s.get(Counter::ForbiddenProbes)).sum();
    sp.add("core.probes", probes as f64);
    let leftover = r.remaining_after_first() as f64 / n.max(1) as f64;
    sp.add(
        suffix.pick("core.leftover_share.bgpc", "core.leftover_share.d2gc"),
        leftover,
    );
    sp.add(
        suffix.pick("core.iterations.bgpc", "core.iterations.d2gc"),
        r.rounds() as f64,
    );
    let busy: Vec<f64> = sheets
        .iter()
        .map(|s| s.get(Counter::BusyNs) as f64)
        .collect();
    let wall_ns = (r.color_time() + r.conflict_time()).as_nanos() as f64;
    if !busy.is_empty() && wall_ns > 0.0 {
        let sum: f64 = busy.iter().sum();
        let mean = sum / busy.len() as f64;
        let max = busy.iter().copied().fold(0.0, f64::max);
        sp.add(
            suffix.pick("par.busy_share.bgpc", "par.busy_share.d2gc"),
            sum / (busy.len() as f64 * wall_ns),
        );
        sp.add(
            suffix.pick("par.imbalance.bgpc", "par.imbalance.d2gc"),
            if mean > 0.0 { max / mean } else { 0.0 },
        );
    }
    let chunks: u64 = sheets.iter().map(|s| s.get(Counter::ChunksClaimed)).sum();
    let steals: u64 = sheets.iter().map(|s| s.get(Counter::StealsWon)).sum();
    sp.add(
        suffix.pick("par.chunks.bgpc", "par.chunks.d2gc"),
        chunks as f64,
    );
    sp.add(
        suffix.pick("par.steals.bgpc", "par.steals.d2gc"),
        steals as f64,
    );
}

/// Which problem a coloring solved, for the per-problem metric names.
#[derive(Clone, Copy)]
pub enum Suffix {
    Bgpc,
    D2gc,
}

impl Suffix {
    fn pick(self, bgpc: &'static str, d2gc: &'static str) -> &'static str {
        match self {
            Suffix::Bgpc => bgpc,
            Suffix::D2gc => d2gc,
        }
    }
}

/// Every per-layer metric, in output order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.net_color_ms", "ms"),
    ("core.vertex_color_ms", "ms"),
    ("core.conflict_ms", "ms"),
    ("core.probes", "count"),
    ("core.verify_ms", "ms"),
    ("core.leftover_share.bgpc", "ratio"),
    ("core.leftover_share.d2gc", "ratio"),
    ("core.iterations.bgpc", "count"),
    ("core.iterations.d2gc", "count"),
    ("par.busy_share.bgpc", "ratio"),
    ("par.busy_share.d2gc", "ratio"),
    ("par.imbalance.bgpc", "ratio"),
    ("par.imbalance.d2gc", "ratio"),
    ("par.chunks.bgpc", "count"),
    ("par.chunks.d2gc", "count"),
    ("par.steals.bgpc", "count"),
    ("par.steals.d2gc", "count"),
    ("graph.build_ms", "ms"),
    ("graph.order_ms", "ms"),
    ("sparse.relabel_ms", "ms"),
    ("core.select_ms", "ms"),
    ("sparse.decode_ms", "ms"),
    ("serve.fingerprint_ms", "ms"),
    ("serve.cache_get_ms", "ms"),
    ("serve.cache_put_ms", "ms"),
    ("serve.hit_share", "ratio"),
    ("core.delta_apply_ms", "ms"),
    ("core.incremental_ms", "ms"),
    ("core.dirty_share", "ratio"),
    ("serve.reseed_share", "ratio"),
    ("serve.unaccounted_ms", "ms"),
    ("serve.queue_peak", "count"),
    ("serve.retries", "count"),
    ("dist.connect_ms", "ms"),
    ("dist.rounds", "count"),
    ("dist.messages", "count"),
    ("dist.conflicts", "count"),
    ("dist.inprocess_ms", "ms"),
    ("dist.colors_vs_single", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Turns the traced run's span medians plus run-level values into the full
/// per-layer list. Metrics whose layer the workload never calls read 0.
pub fn per_layer(spans: &Spans, run_level: &[(&str, f64)]) -> Vec<Metric> {
    let value = |name: &str| {
        run_level
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| spans.median_of(name))
    };
    named(PER_LAYER, PER_LAYER.iter().map(|&(name, _)| value(name)))
}
