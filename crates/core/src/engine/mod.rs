//! The adaptive auto-tuning engine (ROADMAP item 5).
//!
//! The paper's central result is that no single configuration wins
//! everywhere: the best schedule, forbidden-set representation, index
//! width, relabeling, and chunk scheduler shift with degree skew, net
//! size, and density. This module turns that observation into one
//! surface:
//!
//! 1. [`InstanceFeatures`] — a cheap O(n + nnz) feature pass over the
//!    instance (sizes, max/avg degrees, degree coefficient of variation,
//!    density).
//! 2. [`Engine`] — maps features to a full [`EngineConfig`] via a fitted
//!    decision [`table`] shipped in-repo (`default_table.txt`, regenerated
//!    from `BENCH_coloring.json` sweeps by `scripts/fit_engine.sh`).
//!    Selection is a pure function of (instance, table): no clocks, no
//!    randomness, no thread-count input — the same instance picks the
//!    same config on every run and pool size.
//! 3. [`OnlineTuner`] — optional between-iteration refinement inside the
//!    speculative drivers: after each iteration it reads the queue sizes
//!    and `trace` per-thread counters and may truncate the net phases,
//!    flip the chunk scheduler, or shrink the chunk size. Every rule
//!    touches performance hints only, so refinement can never change
//!    validity; the actions taken are reported in
//!    [`ColoringResult::tuner_actions`].
//!
//! Explicit user choices always win: callers fold CLI flags into
//! [`Overrides`] and apply them after selection.

use graph::{BipartiteGraph, Graph};
use par::Sched;
use sparse::{Csr, CsrIndex, IndexWidth, LocalityOrder};

use crate::forbidden::ForbiddenSet;
use crate::metrics::{ColoringResult, IterationMetrics, TunerAction, TunerActionKind};
use crate::runner::RunnerOpts;
use crate::schedule::PhaseKind;
use crate::{tuning, Schedule};

pub mod table;

pub use table::{ConfigSpec, EngineTable, TablePoint};

/// The fitted decision table shipped with the crate, regenerated by
/// `scripts/fit_engine.sh` from `BENCH_coloring.json`.
pub const DEFAULT_TABLE: &str = include_str!("default_table.txt");

/// Which coloring problem a feature vector (or table row) describes.
/// BGPC and D2GC instances live in different feature distributions, so
/// the table is partitioned by problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProblemKind {
    /// Bipartite-graph partial coloring (color `V_A`).
    Bgpc,
    /// Distance-2 coloring of a unipartite graph.
    D2gc,
}

impl ProblemKind {
    /// Stable label used in the table format and benchmark records.
    pub fn label(self) -> &'static str {
        match self {
            ProblemKind::Bgpc => "bgpc",
            ProblemKind::D2gc => "d2gc",
        }
    }

    /// Parses a label (case-insensitive).
    pub fn from_name(name: &str) -> Option<ProblemKind> {
        match name.to_ascii_lowercase().as_str() {
            "bgpc" => Some(ProblemKind::Bgpc),
            "d2gc" => Some(ProblemKind::D2gc),
            _ => None,
        }
    }
}

/// Forbidden-set representation choice — the axis the runners used to
/// dispatch with a private threshold, now a first-class engine knob.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForbiddenKind {
    /// Word-packed [`crate::BitStampSet`] (scan-dominated regime).
    BitStamp,
    /// Per-color [`crate::StampSet`] (insert-dominated regime).
    Stamp,
}

impl ForbiddenKind {
    /// Stable label used in the table format and benchmark records.
    pub fn label(self) -> &'static str {
        match self {
            ForbiddenKind::BitStamp => "bitstamp",
            ForbiddenKind::Stamp => "stamp",
        }
    }

    /// Parses a label (accepts the `set_impl` spellings from
    /// `BENCH_coloring.json` too).
    pub fn from_name(name: &str) -> Option<ForbiddenKind> {
        match name.to_ascii_lowercase().as_str() {
            "bitstamp" | "bitstampset" => Some(ForbiddenKind::BitStamp),
            "stamp" | "stampset" => Some(ForbiddenKind::Stamp),
            _ => None,
        }
    }

    /// The legacy heuristic: bitmap up to
    /// [`tuning::DENSE_FORBIDDEN_CUTOFF`] colors of dispatch neighborhood
    /// (max net size for BGPC, max degree for D2GC), stamp array above.
    /// This is the exact rule the runners' auto dispatch uses.
    pub fn auto_for(neighborhood: usize) -> ForbiddenKind {
        if neighborhood > tuning::DENSE_FORBIDDEN_CUTOFF {
            ForbiddenKind::Stamp
        } else {
            ForbiddenKind::BitStamp
        }
    }
}

/// Cheap instance features, extracted in one O(n + nnz) pass.
///
/// Raw counts are kept (the table stores them human-readably);
/// [`InstanceFeatures::feature_vector`] is the log-scaled embedding that
/// nearest-neighbor matching actually measures distance in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InstanceFeatures {
    /// Which problem the instance belongs to.
    pub problem: ProblemKind,
    /// Colored-side vertex count (`|V_A|`; graph vertex count for D2GC).
    pub n: usize,
    /// Net count (`|V_B|`; for D2GC equals `n` — every vertex is also a
    /// constraint row).
    pub nets: usize,
    /// Nonzeros (pins / edge endpoints) — also the index-width driver.
    pub nnz: usize,
    /// Maximum vertex degree (nets per vertex; neighbors for D2GC).
    pub max_degree: usize,
    /// Maximum net size (vertices per net; for D2GC the closed
    /// neighborhood `max_degree + 1`, mirroring the runner dispatch).
    pub max_net: usize,
    /// Mean vertex degree `nnz / n` (0 for empty instances).
    pub avg_degree: f64,
    /// Coefficient of variation of the vertex degrees (σ/µ) — the skew
    /// signal separating power-law from uniform instances.
    pub degree_cv: f64,
    /// `nnz / (n · nets)` matrix fill (0 for empty instances).
    pub density: f64,
}

impl InstanceFeatures {
    /// Features of a BGPC instance. One pass over the degree arrays —
    /// O(n + nets), with the max-net scan reusing the CSR row lengths.
    pub fn from_bipartite<I: CsrIndex>(g: &BipartiteGraph<I>) -> InstanceFeatures {
        let n = g.n_vertices();
        let nets = g.n_nets();
        let nnz = g.n_pins();
        let mut max_degree = 0usize;
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        for u in 0..n {
            let d = g.nets(u).len();
            max_degree = max_degree.max(d);
            let df = d as f64;
            sum += df;
            sum_sq += df * df;
        }
        Self::finish(
            ProblemKind::Bgpc,
            n,
            nets,
            nnz,
            max_degree,
            g.max_net_size(),
            sum,
            sum_sq,
        )
    }

    /// Features of a D2GC instance. `max_net` is the closed neighborhood
    /// `max_degree + 1` (when nonempty) so the forbidden-set auto rule
    /// keys off the same quantity the D2GC runner dispatch compares.
    pub fn from_graph_d2gc<I: CsrIndex>(g: &Graph<I>) -> InstanceFeatures {
        let n = g.n_vertices();
        let nnz = g.n_edges();
        let mut max_degree = 0usize;
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        for u in 0..n {
            let d = g.degree(u);
            max_degree = max_degree.max(d);
            let df = d as f64;
            sum += df;
            sum_sq += df * df;
        }
        let max_net = if n == 0 { 0 } else { max_degree + 1 };
        Self::finish(ProblemKind::D2gc, n, n, nnz, max_degree, max_net, sum, sum_sq)
    }

    /// Features straight from a CSR pin matrix (rows = nets, columns =
    /// vertices — the orientation `BipartiteGraph::from_matrix` takes), so
    /// callers that relabel at the matrix level can select before building
    /// a graph.
    pub fn from_matrix_bgpc<I: CsrIndex>(m: &Csr<I>) -> InstanceFeatures {
        InstanceFeatures::from_bipartite(&BipartiteGraph::from_matrix(m))
    }

    #[allow(clippy::too_many_arguments)]
    fn finish(
        problem: ProblemKind,
        n: usize,
        nets: usize,
        nnz: usize,
        max_degree: usize,
        max_net: usize,
        sum: f64,
        sum_sq: f64,
    ) -> InstanceFeatures {
        let (avg_degree, degree_cv, density) = if n == 0 || nnz == 0 {
            (0.0, 0.0, 0.0)
        } else {
            let nf = n as f64;
            let mean = sum / nf;
            let var = (sum_sq / nf - mean * mean).max(0.0);
            let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
            let density = nnz as f64 / (nf * (nets.max(1) as f64));
            (mean, cv, density)
        };
        InstanceFeatures {
            problem,
            n,
            nets,
            nnz,
            max_degree,
            max_net,
            avg_degree,
            degree_cv,
            density,
        }
    }

    /// Whether the instance is degenerate (nothing to color or nothing to
    /// constrain) — such instances skip table matching and take the
    /// problem default, since any config is equally (in)different.
    pub fn is_degenerate(&self) -> bool {
        self.n == 0 || self.nnz == 0
    }

    /// The neighborhood size the forbidden-set auto rule keys off — max
    /// net size for BGPC, max degree for D2GC (exactly what the runners'
    /// internal dispatch compares against the cutoff).
    pub fn dispatch_neighborhood(&self) -> usize {
        match self.problem {
            ProblemKind::Bgpc => self.max_net,
            ProblemKind::D2gc => self.max_degree,
        }
    }

    /// The log-scaled embedding nearest-neighbor distance is measured in.
    /// Log scale makes "10× more nonzeros" the same step everywhere;
    /// the cv term is clamped so one pathological star instance cannot
    /// dominate the metric.
    pub fn feature_vector(&self) -> [f64; 6] {
        [
            ((self.n + 1) as f64).ln(),
            ((self.nnz + 1) as f64).ln(),
            ((self.max_degree + 1) as f64).ln(),
            ((self.max_net + 1) as f64).ln(),
            self.degree_cv.clamp(0.0, 8.0),
            (1.0 + self.density * 1024.0).ln(),
        ]
    }
}

/// A fully resolved configuration: every `auto` in the table row has been
/// grounded against the instance features.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Schedule with the chosen chunk scheduler folded into its `sched`
    /// field.
    pub schedule: Schedule,
    /// Forbidden-set representation the driver should force.
    pub forbidden: ForbiddenKind,
    /// Row-pointer width for the instance's CSR build.
    pub index_width: IndexWidth,
    /// Locality relabeling to apply before building the graph.
    pub relabel: LocalityOrder,
}

impl EngineConfig {
    /// One-line description in the table's config syntax — the string
    /// benchmark records, the serve cache, and `--autotune` banners log.
    pub fn describe(&self) -> String {
        format!(
            "schedule={} sched={} width={} relabel={} forbidden={}",
            self.schedule.name(),
            self.schedule.sched.label(),
            self.index_width.label(),
            self.relabel.label(),
            self.forbidden.label(),
        )
    }
}

impl PartialEq for EngineConfig {
    // `Schedule` deliberately has no `PartialEq` (its `name()` is the
    // identity the repo compares by); the description string covers every
    // axis of the config, so equality of descriptions is config equality.
    fn eq(&self, other: &Self) -> bool {
        self.describe() == other.describe()
    }
}

/// The engine's answer: a resolved config plus which table row produced
/// it (`tag` of the nearest point, `"default"`, or
/// `"default(degenerate)"`), for logs and bench records.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineChoice {
    /// The selected, fully resolved configuration.
    pub config: EngineConfig,
    /// Provenance of the decision (nearest exemplar tag or default).
    pub matched: String,
}

/// Explicit user choices layered over an engine selection. The contract
/// is absolute: a flag the user passed always beats the table.
#[derive(Clone, Debug, Default)]
pub struct Overrides {
    /// `--schedule` — replaces the schedule but keeps the engine's
    /// scheduler choice unless that was also explicit.
    pub schedule: Option<Schedule>,
    /// `--sched`.
    pub sched: Option<Sched>,
    /// `--relabel`.
    pub relabel: Option<LocalityOrder>,
    /// `--index-width`.
    pub index_width: Option<IndexWidth>,
    /// Forced forbidden-set representation (bench `--set` axis).
    pub forbidden: Option<ForbiddenKind>,
}

impl Overrides {
    /// Whether any override is set.
    pub fn any(&self) -> bool {
        self.schedule.is_some()
            || self.sched.is_some()
            || self.relabel.is_some()
            || self.index_width.is_some()
            || self.forbidden.is_some()
    }

    /// Applies the overrides to an engine-selected config, in place.
    pub fn apply(&self, cfg: &mut EngineConfig) {
        if let Some(s) = &self.schedule {
            let sched = cfg.schedule.sched;
            cfg.schedule = s.clone().with_sched(sched);
        }
        if let Some(s) = self.sched {
            cfg.schedule.sched = s;
        }
        if let Some(r) = self.relabel {
            cfg.relabel = r;
        }
        if let Some(w) = self.index_width {
            cfg.index_width = w;
        }
        if let Some(f) = self.forbidden {
            cfg.forbidden = f;
        }
    }
}

/// The feature-driven config selector.
///
/// Construction parses the table once; selection is then allocation-light
/// and deterministic. See the [module docs](self) for the full pipeline.
#[derive(Clone, Debug)]
pub struct Engine {
    table: EngineTable,
}

impl Engine {
    /// Engine over the fitted table shipped in-repo. The checked-in table
    /// is parse-tested, so this cannot fail at runtime.
    pub fn with_default_table() -> Engine {
        Engine {
            table: EngineTable::parse(DEFAULT_TABLE)
                .expect("shipped default_table.txt must parse"),
        }
    }

    /// Engine over a caller-supplied table (the `fit_engine` round-trip
    /// and tests use this).
    pub fn from_table_text(text: &str) -> Result<Engine, String> {
        Ok(Engine {
            table: EngineTable::parse(text)?,
        })
    }

    /// The parsed decision table.
    pub fn table(&self) -> &EngineTable {
        &self.table
    }

    /// Selects a config for the featurized instance.
    ///
    /// Degenerate instances take the problem default; otherwise the
    /// nearest table point of the same problem wins (earliest entry on
    /// ties). Two guard rails apply regardless of what the table says:
    /// a `u32` width is promoted to `u64` when the nonzero count exceeds
    /// [`tuning::U32_MAX_NNZ`] (correctness, not preference), and `auto`
    /// axes resolve through the same [`tuning`] cutoffs the legacy
    /// heuristics use.
    pub fn select(&self, f: &InstanceFeatures) -> EngineChoice {
        let (spec, matched) = if f.is_degenerate() {
            (self.table.default_for(f.problem), "default(degenerate)".to_string())
        } else {
            match self.table.nearest(f) {
                Some(p) => (&p.spec, format!("point:{}", p.tag)),
                None => (self.table.default_for(f.problem), "default".to_string()),
            }
        };
        let mut index_width = spec
            .width
            .unwrap_or_else(|| IndexWidth::auto_for(f.nnz));
        if f.nnz > tuning::U32_MAX_NNZ {
            index_width = IndexWidth::U64;
        }
        let forbidden = spec
            .forbidden
            .unwrap_or_else(|| ForbiddenKind::auto_for(f.dispatch_neighborhood()));
        let config = EngineConfig {
            schedule: spec.schedule.clone().with_sched(spec.sched),
            forbidden,
            index_width,
            relabel: spec.relabel,
        };
        EngineChoice { config, matched }
    }

    /// Featurize-and-select for a BGPC instance.
    pub fn select_bgpc<I: CsrIndex>(&self, g: &BipartiteGraph<I>) -> EngineChoice {
        self.select(&InstanceFeatures::from_bipartite(g))
    }

    /// Featurize-and-select for a D2GC instance.
    pub fn select_d2gc<I: CsrIndex>(&self, g: &Graph<I>) -> EngineChoice {
        self.select(&InstanceFeatures::from_graph_d2gc(g))
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::with_default_table()
    }
}

/// Between-iteration refinement rules for the speculative drivers.
///
/// Attached via [`RunnerOpts::online`]; after each completed iteration the
/// driver hands the tuner its [`IterationMetrics`] and a mutable working
/// copy of the schedule. Rules (all performance hints — validity is
/// untouched by construction, since any interleaving of phase kinds,
/// schedulers, and chunk sizes yields a valid speculative run):
///
/// 1. **Net → vertex truncation.** Net phases re-sweep *all* nets; once
///    the conflict residue is below `1/residual_denom` of the queue the
///    iteration started with, per-vertex phases touch far less memory, so
///    remaining net iterations are truncated.
/// 2. **Dynamic → Stealing.** With tracing on and a large-enough queue, a
///    per-thread colored-count imbalance above `imbalance_hi` flips the
///    chunk scheduler to work stealing.
/// 3. **Stealing → Dynamic.** If stealing keeps probing but wins almost
///    nothing (`< steal_win_lo` of ≥ `min_steal_attempts` attempts), the
///    steal overhead buys nothing — fall back to the shared cursor.
/// 4. **Chunk shrink.** A conflict rate above `conflict_rate_hi` means
///    chunks of adjacent (often neighboring) vertices are racing; quarter
///    the chunk size (floor `min_chunk`) to spread neighbors across
///    threads.
///
/// Counter-driven rules (2, 3) need per-thread stats, i.e. a
/// [`trace::Recorder`] on the pool; queue-driven rules (1, 4) always run.
#[derive(Clone, Debug)]
pub struct OnlineTuner {
    /// Rule 1 threshold: truncate net phases when
    /// `queue_out * residual_denom < queue_in`.
    pub residual_denom: usize,
    /// Rule 2 threshold on `max/mean` per-thread colored counts.
    pub imbalance_hi: f64,
    /// Rule 2 guard: only consider switching when the next queue still
    /// holds at least this many vertices per thread.
    pub min_queue_per_thread: usize,
    /// Rule 3 threshold on `StealsWon / StealsAttempted`.
    pub steal_win_lo: f64,
    /// Rule 3 guard: minimum attempts before the ratio is meaningful.
    pub min_steal_attempts: u64,
    /// Rule 4 threshold on `queue_out / queue_in`.
    pub conflict_rate_hi: f64,
    /// Rule 4 floor for the shrunken chunk size.
    pub min_chunk: usize,
}

impl Default for OnlineTuner {
    fn default() -> Self {
        OnlineTuner {
            residual_denom: 64,
            imbalance_hi: 1.5,
            min_queue_per_thread: 256,
            steal_win_lo: 0.02,
            min_steal_attempts: 16,
            conflict_rate_hi: 0.5,
            min_chunk: 8,
        }
    }
}

impl OnlineTuner {
    /// Applies the refinement rules after iteration `m.iter`, mutating
    /// `live` (the driver's working schedule) and returning the actions
    /// taken, tagged with the iteration they take effect (`m.iter + 1`).
    pub fn refine(
        &self,
        live: &mut Schedule,
        m: &IterationMetrics,
        threads: usize,
    ) -> Vec<TunerAction> {
        let mut actions = Vec::new();
        if m.queue_out == 0 {
            return actions; // run is over; nothing to tune
        }
        let next = m.iter + 1;

        // Rule 1: truncate remaining net phases on a small residual queue.
        let next_is_net = live.color_kind(next) == PhaseKind::Net
            || live.conflict_kind(next) == PhaseKind::Net;
        if next_is_net && m.queue_out.saturating_mul(self.residual_denom) < m.queue_in {
            live.net_color_iters = live.net_color_iters.min(next);
            live.net_conflict_iters = live.net_conflict_iters.min(next);
            actions.push(TunerAction {
                iter: next,
                kind: TunerActionKind::NetToVertex,
            });
        }

        // Rules 2 and 3 read per-thread counters: only meaningful with a
        // recorder attached and more than one worker.
        if !m.per_thread.is_empty() && threads > 1 {
            match live.sched {
                Sched::Stealing => {
                    let attempts: u64 = m
                        .per_thread
                        .iter()
                        .map(|t| {
                            t.color.get(trace::Counter::StealsAttempted)
                                + t.conflict.get(trace::Counter::StealsAttempted)
                        })
                        .sum();
                    let won: u64 = m
                        .per_thread
                        .iter()
                        .map(|t| {
                            t.color.get(trace::Counter::StealsWon)
                                + t.conflict.get(trace::Counter::StealsWon)
                        })
                        .sum();
                    if attempts >= self.min_steal_attempts
                        && (won as f64) < self.steal_win_lo * attempts as f64
                    {
                        live.sched = Sched::Dynamic;
                        actions.push(TunerAction {
                            iter: next,
                            kind: TunerActionKind::SwitchSched {
                                from: Sched::Stealing,
                                to: Sched::Dynamic,
                            },
                        });
                    }
                }
                Sched::Dynamic => {
                    if m.queue_out >= threads.saturating_mul(self.min_queue_per_thread) {
                        let colored: Vec<u64> = m
                            .per_thread
                            .iter()
                            .map(|t| t.color.get(trace::Counter::VerticesColored))
                            .collect();
                        let total: u64 = colored.iter().sum();
                        let max = colored.iter().copied().max().unwrap_or(0);
                        if total > 0 {
                            let mean = total as f64 / colored.len() as f64;
                            if max as f64 > self.imbalance_hi * mean {
                                live.sched = Sched::Stealing;
                                actions.push(TunerAction {
                                    iter: next,
                                    kind: TunerActionKind::SwitchSched {
                                        from: Sched::Dynamic,
                                        to: Sched::Stealing,
                                    },
                                });
                            }
                        }
                    }
                }
            }
        }

        // Rule 4: shrink the chunk when conflicts are rampant.
        let rate = m.queue_out as f64 / m.queue_in.max(1) as f64;
        if rate > self.conflict_rate_hi && live.chunk > self.min_chunk {
            let from = live.chunk;
            live.chunk = (from / 4).max(self.min_chunk);
            actions.push(TunerAction {
                iter: next,
                kind: TunerActionKind::ShrinkChunk {
                    from,
                    to: live.chunk,
                },
            });
        }
        actions
    }
}

/// Runs the BGPC driver with an engine-resolved config, forcing the
/// chosen forbidden-set representation. `config.index_width` and
/// `config.relabel` act at matrix-build time and are therefore the
/// *caller's* job (the CLI, bench harness, and serve daemon each apply
/// them before constructing `g`); this helper grounds the axes the driver
/// itself owns.
pub fn color_bgpc_with_config<I: CsrIndex>(
    g: &BipartiteGraph<I>,
    order: &[u32],
    config: &EngineConfig,
    pool: &par::Pool,
    opts: RunnerOpts,
) -> ColoringResult {
    match config.forbidden {
        ForbiddenKind::Stamp => crate::runner::color_bgpc_with_set::<crate::StampSet, I>(
            g,
            order,
            &config.schedule,
            pool,
            opts,
        ),
        ForbiddenKind::BitStamp => {
            crate::runner::color_bgpc_with_set::<crate::BitStampSet, I>(
                g,
                order,
                &config.schedule,
                pool,
                opts,
            )
        }
    }
}

/// [`color_bgpc_with_config`] for the D2GC driver.
pub fn color_d2gc_with_config<I: CsrIndex>(
    g: &Graph<I>,
    order: &[u32],
    config: &EngineConfig,
    pool: &par::Pool,
    opts: RunnerOpts,
) -> ColoringResult {
    match config.forbidden {
        ForbiddenKind::Stamp => crate::d2gc::color_d2gc_with_set::<crate::StampSet, I>(
            g,
            order,
            &config.schedule,
            pool,
            opts,
        ),
        ForbiddenKind::BitStamp => {
            crate::d2gc::color_d2gc_with_set::<crate::BitStampSet, I>(
                g,
                order,
                &config.schedule,
                pool,
                opts,
            )
        }
    }
}

// Compile-time check that the forced-representation dispatch above stays
// exhaustive over the trait impls the runners know about.
const _: () = {
    fn _assert_sets<F: ForbiddenSet>() {}
    fn _instantiations() {
        _assert_sets::<crate::StampSet>();
        _assert_sets::<crate::BitStampSet>();
    }
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_table_parses_and_selects() {
        let engine = Engine::with_default_table();
        let m = sparse::gen::bipartite_uniform(200, 300, 4000, 3);
        let g = BipartiteGraph::from_matrix(&m);
        let choice = engine.select_bgpc(&g);
        // Whatever the fit says, the choice must be a legal config: its
        // schedule name round-trips and the description is non-empty.
        assert!(Schedule::from_name(&choice.config.schedule.name()).is_some());
        assert!(!choice.config.describe().is_empty());
        assert!(!choice.matched.is_empty());
    }

    #[test]
    fn width_guard_beats_the_table() {
        // A table that hard-codes u32 must still be promoted on an
        // instance whose nnz cannot be addressed by u32 row pointers.
        let text = "\
default bgpc schedule=N1-N2 sched=dynamic width=u32 relabel=none forbidden=auto
default d2gc schedule=V-V-64D sched=dynamic width=u32 relabel=none forbidden=auto
";
        let engine = Engine::from_table_text(text).unwrap();
        let f = InstanceFeatures {
            problem: ProblemKind::Bgpc,
            n: 1 << 20,
            nets: 1 << 20,
            nnz: tuning::U32_MAX_NNZ + 1,
            max_degree: 64,
            max_net: 64,
            avg_degree: 4096.0,
            degree_cv: 0.1,
            density: 0.004,
        };
        assert_eq!(engine.select(&f).config.index_width, IndexWidth::U64);
        // At the boundary itself, the table's word wins.
        let at = InstanceFeatures {
            nnz: tuning::U32_MAX_NNZ,
            ..f
        };
        assert_eq!(engine.select(&at).config.index_width, IndexWidth::U32);
    }

    #[test]
    fn forbidden_auto_resolves_through_tuning_cutoff() {
        let text = "\
default bgpc schedule=N1-N2 sched=dynamic width=auto relabel=none forbidden=auto
default d2gc schedule=V-V-64D sched=dynamic width=auto relabel=none forbidden=auto
";
        let engine = Engine::from_table_text(text).unwrap();
        let mut f = InstanceFeatures {
            problem: ProblemKind::Bgpc,
            n: 100,
            nets: 100,
            nnz: 1000,
            max_degree: 10,
            max_net: tuning::DENSE_FORBIDDEN_CUTOFF,
            avg_degree: 10.0,
            degree_cv: 0.2,
            density: 0.1,
        };
        assert_eq!(engine.select(&f).config.forbidden, ForbiddenKind::BitStamp);
        f.max_net = tuning::DENSE_FORBIDDEN_CUTOFF + 1;
        assert_eq!(engine.select(&f).config.forbidden, ForbiddenKind::Stamp);
        // D2GC keys off max_degree, not max_net.
        let mut fd = InstanceFeatures {
            problem: ProblemKind::D2gc,
            ..f
        };
        fd.max_degree = tuning::DENSE_FORBIDDEN_CUTOFF + 1;
        assert_eq!(engine.select(&fd).config.forbidden, ForbiddenKind::Stamp);
        fd.max_degree = tuning::DENSE_FORBIDDEN_CUTOFF;
        assert_eq!(engine.select(&fd).config.forbidden, ForbiddenKind::BitStamp);
    }

    #[test]
    fn overrides_always_win() {
        let engine = Engine::with_default_table();
        let m = sparse::gen::bipartite_uniform(150, 150, 2000, 11);
        let g = BipartiteGraph::from_matrix(&m);
        let mut cfg = engine.select_bgpc(&g).config;
        let ov = Overrides {
            schedule: Some(Schedule::v_v()),
            sched: Some(Sched::Stealing),
            relabel: Some(LocalityOrder::Bfs),
            index_width: Some(IndexWidth::U64),
            forbidden: Some(ForbiddenKind::Stamp),
        };
        assert!(ov.any());
        ov.apply(&mut cfg);
        assert_eq!(cfg.schedule.name(), Schedule::v_v().name());
        assert_eq!(cfg.schedule.sched, Sched::Stealing);
        assert_eq!(cfg.relabel, LocalityOrder::Bfs);
        assert_eq!(cfg.index_width, IndexWidth::U64);
        assert_eq!(cfg.forbidden, ForbiddenKind::Stamp);
        // A schedule-only override keeps the engine's sched.
        let mut cfg2 = engine.select_bgpc(&g).config;
        let engine_sched = cfg2.schedule.sched;
        Overrides {
            schedule: Some(Schedule::v_n(1)),
            ..Default::default()
        }
        .apply(&mut cfg2);
        assert_eq!(cfg2.schedule.name(), Schedule::v_n(1).name());
        assert_eq!(cfg2.schedule.sched, engine_sched);
    }

    #[test]
    fn tuner_truncates_net_phases_on_small_residual() {
        let tuner = OnlineTuner::default();
        let mut live = Schedule::n1_n2(); // net phases first
        let m = IterationMetrics {
            iter: 0,
            queue_in: 10_000,
            color_kind: PhaseKind::Net,
            conflict_kind: PhaseKind::Net,
            color_time: std::time::Duration::ZERO,
            conflict_time: std::time::Duration::ZERO,
            queue_out: 10, // 10 * 64 < 10_000
            per_thread: Vec::new(),
        };
        let actions = tuner.refine(&mut live, &m, 4);
        assert!(actions
            .iter()
            .any(|a| a.kind == TunerActionKind::NetToVertex && a.iter == 1));
        assert_eq!(live.color_kind(1), PhaseKind::Vertex);
        assert_eq!(live.conflict_kind(1), PhaseKind::Vertex);
    }

    #[test]
    fn tuner_shrinks_chunk_on_high_conflict_rate() {
        let tuner = OnlineTuner::default();
        let mut live = Schedule::v_v_64d(); // chunk 64 > min_chunk
        let chunk0 = live.chunk;
        assert!(chunk0 > tuner.min_chunk);
        let m = IterationMetrics {
            iter: 2,
            queue_in: 1000,
            color_kind: PhaseKind::Vertex,
            conflict_kind: PhaseKind::Vertex,
            color_time: std::time::Duration::ZERO,
            conflict_time: std::time::Duration::ZERO,
            queue_out: 800, // 80% conflict rate
            per_thread: Vec::new(),
        };
        let actions = tuner.refine(&mut live, &m, 2);
        assert!(matches!(
            actions[0].kind,
            TunerActionKind::ShrinkChunk { from, to }
                if from == chunk0 && to == live.chunk
        ));
        assert!(live.chunk < chunk0 && live.chunk >= tuner.min_chunk);
        // Repeated pressure floors at min_chunk, then stops acting.
        for _ in 0..10 {
            tuner.refine(&mut live, &m, 2);
        }
        assert_eq!(live.chunk, tuner.min_chunk);
        let again = tuner.refine(&mut live, &m, 2);
        assert!(again.is_empty());
    }

    #[test]
    fn tuner_is_inert_on_finished_or_calm_runs() {
        let tuner = OnlineTuner::default();
        let mut live = Schedule::v_v();
        let name0 = live.name();
        let chunk0 = live.chunk;
        let m = IterationMetrics {
            iter: 0,
            queue_in: 1000,
            color_kind: PhaseKind::Vertex,
            conflict_kind: PhaseKind::Vertex,
            color_time: std::time::Duration::ZERO,
            conflict_time: std::time::Duration::ZERO,
            queue_out: 0, // finished
            per_thread: Vec::new(),
        };
        assert!(tuner.refine(&mut live, &m, 4).is_empty());
        let calm = IterationMetrics {
            queue_out: 100, // 10% rate, vertex phases, no counters
            ..m
        };
        assert!(tuner.refine(&mut live, &calm, 4).is_empty());
        assert_eq!(live.name(), name0);
        assert_eq!(live.chunk, chunk0);
    }

    #[test]
    fn degenerate_instances_take_the_default() {
        let engine = Engine::with_default_table();
        let g: BipartiteGraph = BipartiteGraph::from_matrix(&Csr::empty(0, 0));
        let choice = engine.select_bgpc(&g);
        assert_eq!(choice.matched, "default(degenerate)");
        // And the description of the default is stable across calls.
        assert_eq!(choice, engine.select_bgpc(&g));
    }
}
