//! Fits the engine's decision table from a `BENCH_coloring.json` sweep.
//!
//! For every (problem, dataset) instance in the sweep the fitter picks the
//! single config minimizing the summed log-ratio to the per-thread oracle
//! best — i.e. the best *thread-count-independent* choice, matching the
//! engine's contract that selection never looks at the pool size. Each
//! winner becomes a `point` row keyed by the instance's features
//! (recomputed from the synthetic registry at the sweep's scale/seed);
//! the config with the best summed score across *all* instances of a
//! problem becomes its `default` row.
//!
//! ```text
//! fit_engine [--sweep BENCH_coloring.json]
//!            [--out crates/core/src/engine/default_table.txt]
//! ```
//!
//! The output is the text format `bgpc::engine::table` parses; the fitter
//! re-parses its own output before writing, so a bad fit can never land an
//! unloadable table. `scripts/fit_engine.sh` wraps this binary.

use std::collections::BTreeMap;

use bgpc::engine::table::{render_default, ConfigSpec, EngineTable, TablePoint};
use bgpc::{ForbiddenKind, InstanceFeatures, ProblemKind, Schedule};
use graph::Graph;
use par::Sched;
use sparse::{Dataset, IndexWidth, LocalityOrder};
use trace::reader::Json;

/// One sweep record, decoded from the report's `schedules` array.
struct SweepRow {
    problem: ProblemKind,
    dataset: String,
    threads: usize,
    spec: ConfigSpec,
    time_ms: f64,
}

fn field_str<'a>(rec: &'a Json, key: &str, i: usize) -> Result<&'a str, String> {
    rec.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("schedules[{i}]: missing string `{key}`"))
}

fn field_num(rec: &Json, key: &str, i: usize) -> Result<f64, String> {
    rec.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("schedules[{i}]: missing number `{key}`"))
}

/// Decodes one `schedules` record into a row; errors name the offending
/// field so a schema drift in the report fails loudly.
///
/// Older reports carry a per-record `kernel` field from the removed
/// vector kernel tier; rows whose kernel is not `scalar` timed code that
/// no longer exists and decode to `None`.
fn decode_row(rec: &Json, i: usize) -> Result<Option<SweepRow>, String> {
    if rec.get("kernel").and_then(Json::as_str).is_some_and(|k| k != "scalar") {
        return Ok(None);
    }
    let problem = ProblemKind::from_name(field_str(rec, "problem", i)?)
        .ok_or_else(|| format!("schedules[{i}]: unknown problem"))?;
    let schedule = field_str(rec, "schedule", i)?;
    let sched = field_str(rec, "sched", i)?;
    let width = field_str(rec, "index_width", i)?;
    let order = field_str(rec, "order", i)?;
    let set_impl = field_str(rec, "set_impl", i)?;
    let spec = ConfigSpec {
        schedule: Schedule::from_name(schedule)
            .ok_or_else(|| format!("schedules[{i}]: unknown schedule `{schedule}`"))?,
        sched: Sched::from_name(sched)
            .ok_or_else(|| format!("schedules[{i}]: unknown sched `{sched}`"))?,
        width: Some(
            IndexWidth::from_name(width)
                .ok_or_else(|| format!("schedules[{i}]: unknown index_width `{width}`"))?,
        ),
        relabel: LocalityOrder::from_name(order)
            .ok_or_else(|| format!("schedules[{i}]: unknown order `{order}`"))?,
        // The forced-representation ablation rows name the set; axis rows
        // say `auto` (runner dispatch), which the table keeps symbolic.
        forbidden: if set_impl.eq_ignore_ascii_case("auto") {
            None
        } else {
            Some(
                ForbiddenKind::from_name(set_impl)
                    .ok_or_else(|| format!("schedules[{i}]: unknown set_impl `{set_impl}`"))?,
            )
        },
    };
    Ok(Some(SweepRow {
        problem,
        dataset: field_str(rec, "dataset", i)?.to_string(),
        threads: field_num(rec, "threads", i)? as usize,
        spec,
        time_ms: field_num(rec, "time_ms", i)?,
    }))
}

/// Per-config timings for one instance: config key → (min time per thread
/// count), in first-appearance order so tie-breaks are deterministic.
struct CandidateSet {
    keys: Vec<String>,
    specs: Vec<ConfigSpec>,
    times: Vec<BTreeMap<usize, f64>>,
}

impl CandidateSet {
    fn new() -> CandidateSet {
        CandidateSet {
            keys: Vec::new(),
            specs: Vec::new(),
            times: Vec::new(),
        }
    }

    fn add(&mut self, spec: &ConfigSpec, threads: usize, time_ms: f64) {
        let key = spec.render();
        let idx = match self.keys.iter().position(|k| *k == key) {
            Some(i) => i,
            None => {
                self.keys.push(key);
                self.specs.push(spec.clone());
                self.times.push(BTreeMap::new());
                self.keys.len() - 1
            }
        };
        let slot = self.times[idx].entry(threads).or_insert(f64::INFINITY);
        *slot = slot.min(time_ms);
    }

    /// The fastest time per thread count across every config.
    fn oracle(&self) -> BTreeMap<usize, f64> {
        let mut oracle: BTreeMap<usize, f64> = BTreeMap::new();
        for per in &self.times {
            for (&t, &ms) in per {
                let slot = oracle.entry(t).or_insert(f64::INFINITY);
                *slot = slot.min(ms);
            }
        }
        oracle
    }

    /// Summed log-ratio of config `idx` to the oracle, or `None` when the
    /// config was not measured at every thread count (an unfair score).
    fn score(&self, idx: usize, oracle: &BTreeMap<usize, f64>) -> Option<f64> {
        let mut total = 0.0;
        for (&t, &best) in oracle {
            let ms = *self.times[idx].get(&t)?;
            total += (ms / best).ln();
        }
        Some(total)
    }

    /// Index of the best-scoring fully-measured config (earliest wins
    /// ties); `None` for an empty set.
    fn best(&self) -> Option<usize> {
        let oracle = self.oracle();
        let mut best: Option<(usize, f64)> = None;
        for idx in 0..self.specs.len() {
            if let Some(s) = self.score(idx, &oracle) {
                if best.is_none_or(|(_, bs)| s < bs) {
                    best = Some((idx, s));
                }
            }
        }
        best.map(|(idx, _)| idx)
    }
}

/// Features of a swept instance, rebuilt from the synthetic registry at
/// the sweep's scale and seed.
fn instance_features(
    problem: ProblemKind,
    dataset: &str,
    scale: f64,
    seed: u64,
) -> Option<InstanceFeatures> {
    let d = Dataset::from_name(dataset)?;
    let inst = d.build(scale, seed);
    Some(match problem {
        ProblemKind::Bgpc => InstanceFeatures::from_matrix_bgpc(&inst.matrix),
        ProblemKind::D2gc => {
            InstanceFeatures::from_graph_d2gc(&Graph::from_symmetric_matrix(&inst.matrix))
        }
    })
}

fn flag_value(args: &[String], i: usize, flag: &str) -> String {
    args.get(i + 1)
        .unwrap_or_else(|| {
            eprintln!("missing value after {flag}");
            std::process::exit(2);
        })
        .clone()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sweep_path = String::from("BENCH_coloring.json");
    let mut out_path = String::from("crates/core/src/engine/default_table.txt");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sweep" => {
                sweep_path = flag_value(&args, i, "--sweep");
                i += 2;
            }
            "--out" => {
                out_path = flag_value(&args, i, "--out");
                i += 2;
            }
            other => {
                eprintln!("unknown flag `{other}` (expected --sweep PATH, --out PATH)");
                std::process::exit(2);
            }
        }
    }

    let text = std::fs::read_to_string(&sweep_path).unwrap_or_else(|e| {
        eprintln!("FATAL: cannot read sweep {sweep_path}: {e}");
        std::process::exit(1);
    });
    let doc = trace::reader::parse(&text).unwrap_or_else(|e| {
        eprintln!("FATAL: {sweep_path} is not valid JSON: {e}");
        std::process::exit(1);
    });
    let scale = doc.get("scale").and_then(Json::as_f64).unwrap_or_else(|| {
        eprintln!("FATAL: sweep misses `scale`");
        std::process::exit(1);
    });
    let seed = doc.get("seed").and_then(Json::as_f64).unwrap_or_else(|| {
        eprintln!("FATAL: sweep misses `seed`");
        std::process::exit(1);
    }) as u64;
    let mode = doc
        .get("mode")
        .and_then(Json::as_str)
        .unwrap_or("unknown")
        .to_string();
    let git_sha = doc
        .get("git_sha")
        .and_then(Json::as_str)
        .unwrap_or("unknown")
        .to_string();
    let records = doc
        .get("schedules")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| {
            eprintln!("FATAL: sweep misses the `schedules` array");
            std::process::exit(1);
        });

    // Group rows per (problem, dataset) in first-appearance order.
    let mut instances: Vec<((ProblemKind, String), CandidateSet)> = Vec::new();
    let mut n_rows = 0usize;
    for (i, rec) in records.iter().enumerate() {
        let row = match decode_row(rec, i) {
            Ok(Some(row)) => row,
            Ok(None) => continue,
            Err(e) => {
                eprintln!("FATAL: {e}");
                std::process::exit(1);
            }
        };
        let key = (row.problem, row.dataset.clone());
        let set = match instances.iter_mut().find(|(k, _)| *k == key) {
            Some((_, set)) => set,
            None => {
                instances.push((key, CandidateSet::new()));
                &mut instances.last_mut().expect("just pushed").1
            }
        };
        set.add(&row.spec, row.threads, row.time_ms);
        n_rows += 1;
    }
    if instances.is_empty() {
        eprintln!("FATAL: sweep holds no schedule records to fit from");
        std::process::exit(1);
    }

    // Per-instance winners become table points.
    let mut points: Vec<TablePoint> = Vec::new();
    // Problem-wide scores for the default rows: config key → (spec,
    // summed score, instances covered), kept in first-appearance order.
    let mut global: Vec<(ProblemKind, String, ConfigSpec, f64, usize)> = Vec::new();
    for ((problem, dataset), set) in &instances {
        let best = set.best().unwrap_or_else(|| {
            eprintln!("FATAL: no config measured at every thread count for {dataset}");
            std::process::exit(1);
        });
        eprintln!(
            "fit {} {dataset}: {} ({} configs, {} threads)",
            problem.label(),
            set.keys[best],
            set.keys.len(),
            set.oracle().len(),
        );
        match instance_features(*problem, dataset, scale, seed) {
            Some(features) => points.push(TablePoint {
                problem: *problem,
                tag: dataset.clone(),
                features,
                spec: set.specs[best].clone(),
            }),
            None => eprintln!(
                "WARN: dataset `{dataset}` is not in the synthetic registry; \
                 skipping its point"
            ),
        }
        let oracle = set.oracle();
        for idx in 0..set.specs.len() {
            let Some(s) = set.score(idx, &oracle) else {
                continue;
            };
            match global
                .iter_mut()
                .find(|(p, k, ..)| p == problem && *k == set.keys[idx])
            {
                Some((.., total, covered)) => {
                    *total += s;
                    *covered += 1;
                }
                None => global.push((*problem, set.keys[idx].clone(), set.specs[idx].clone(), s, 1)),
            }
        }
    }

    // Default row per problem: the best summed score among configs
    // measured on every instance of that problem; the first instance's
    // winner as fallback when the sweeps don't overlap.
    let default_for = |problem: ProblemKind| -> ConfigSpec {
        let n_inst = instances.iter().filter(|((p, _), _)| *p == problem).count();
        let mut best: Option<(&ConfigSpec, f64)> = None;
        for (p, _, spec, total, covered) in &global {
            if *p == problem && *covered == n_inst && best.is_none_or(|(_, bs)| *total < bs) {
                best = Some((spec, *total));
            }
        }
        if let Some((spec, _)) = best {
            return spec.clone();
        }
        instances
            .iter()
            .find(|((p, _), _)| *p == problem)
            .and_then(|(_, set)| set.best().map(|i| set.specs[i].clone()))
            .unwrap_or_else(|| ConfigSpec {
                schedule: match problem {
                    ProblemKind::Bgpc => Schedule::n1_n2(),
                    ProblemKind::D2gc => Schedule::v_v_64d(),
                },
                sched: Sched::Dynamic,
                width: None,
                relabel: LocalityOrder::None,
                forbidden: None,
            })
    };
    let default_bgpc = default_for(ProblemKind::Bgpc);
    let default_d2gc = default_for(ProblemKind::D2gc);

    let mut out = String::new();
    out.push_str(&format!(
        "# Fitted engine decision table — regenerate with scripts/fit_engine.sh.\n\
         # Source sweep: {sweep_path} (mode {mode}, scale {scale}, seed {seed}, \
         sha {git_sha}; {n_rows} records).\n\
         # Per point: the config minimizing the summed log-ratio to the\n\
         # per-thread oracle best, so one choice serves every pool size.\n"
    ));
    out.push_str(&render_default(ProblemKind::Bgpc, &default_bgpc));
    out.push('\n');
    out.push_str(&render_default(ProblemKind::D2gc, &default_d2gc));
    out.push('\n');
    for p in &points {
        out.push_str(&p.render());
        out.push('\n');
    }

    // Refuse to write a table the engine cannot load back.
    if let Err(e) = EngineTable::parse(&out) {
        eprintln!("FATAL: fitted table fails to re-parse: {e}\n---\n{out}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(&out_path, &out) {
        eprintln!("FATAL: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "wrote {out_path} ({} points, defaults: bgpc [{}], d2gc [{}])",
        points.len(),
        default_bgpc.render(),
        default_d2gc.render()
    );
}
