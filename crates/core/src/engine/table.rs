//! The fitted decision table: a plain-text list of exemplar points and
//! per-problem defaults, matched by nearest neighbor in log-feature
//! space.
//!
//! ## Format
//!
//! One entry per line; `#` starts a comment. Two entry kinds:
//!
//! ```text
//! default <problem> schedule=<S> sched=<dynamic|steal> width=<auto|u32|u64>
//!         relabel=<none|degree|bfs> forbidden=<auto|stamp|bitstamp>
//! point <problem> tag=<label> n=<int> nets=<int> nnz=<int> maxdeg=<int> maxnet=<int>
//!       avgdeg=<float> cv=<float> density=<float> -> schedule=<S> sched=... (same keys)
//! ```
//!
//! A `point` is one fitted exemplar: the feature vector of a swept
//! instance plus the config that minimized its runtime in the sweep
//! (`scripts/fit_engine.sh` regenerates them from `BENCH_coloring.json`).
//! Selection picks the nearest point of the right problem; with no
//! points, the problem's `default` row applies. Ties keep the earliest
//! entry, so selection is a pure function of (instance, table).

use par::Sched;
use sparse::{IndexWidth, LocalityOrder};

use crate::engine::{ForbiddenKind, InstanceFeatures, ProblemKind};
use crate::Schedule;

/// A config as written in the table: `auto` axes stay unresolved here and
/// are resolved against instance features at selection time.
#[derive(Clone, Debug)]
pub struct ConfigSpec {
    /// Schedule (label + balance; the `sched` field is overridden by the
    /// axis below).
    pub schedule: Schedule,
    /// Chunk-scheduling policy.
    pub sched: Sched,
    /// Row-pointer width; `None` = pick by nonzero count.
    pub width: Option<IndexWidth>,
    /// Locality relabeling.
    pub relabel: LocalityOrder,
    /// Forbidden-set representation; `None` = pick by neighborhood size.
    pub forbidden: Option<ForbiddenKind>,
}

impl ConfigSpec {
    /// Renders the spec in table syntax (the exact form the table parser
    /// reads back) — shared with `fit_engine` so there is one format.
    pub fn render(&self) -> String {
        format!(
            "schedule={} sched={} width={} relabel={} forbidden={}",
            self.schedule.name(),
            self.sched.label(),
            self.width.map_or("auto", |w| w.label()),
            self.relabel.label(),
            self.forbidden.map_or("auto", |f| f.label()),
        )
    }
}

/// One fitted exemplar row.
#[derive(Clone, Debug)]
pub struct TablePoint {
    /// Which problem the exemplar was measured on.
    pub problem: ProblemKind,
    /// Human-readable provenance (dataset name), echoed in
    /// [`crate::engine::EngineChoice::matched`].
    pub tag: String,
    /// Feature vector of the measured instance.
    pub features: InstanceFeatures,
    /// The config that won the sweep for this instance.
    pub spec: ConfigSpec,
}

impl TablePoint {
    /// Renders the point in table syntax.
    pub fn render(&self) -> String {
        let f = &self.features;
        format!(
            "point {} tag={} n={} nets={} nnz={} maxdeg={} maxnet={} \
             avgdeg={:.4} cv={:.4} density={:.6e} -> {}",
            self.problem.label(),
            self.tag,
            f.n,
            f.nets,
            f.nnz,
            f.max_degree,
            f.max_net,
            f.avg_degree,
            f.degree_cv,
            f.density,
            self.spec.render(),
        )
    }
}

/// A parsed decision table.
#[derive(Clone, Debug)]
pub struct EngineTable {
    /// Fitted exemplars, in file order (earliest wins distance ties).
    pub points: Vec<TablePoint>,
    /// Fallback config per problem, used when no point of that problem
    /// exists (degenerate instances always use the default).
    pub default_bgpc: ConfigSpec,
    pub default_d2gc: ConfigSpec,
}

/// Renders a `default` row in table syntax.
pub fn render_default(problem: ProblemKind, spec: &ConfigSpec) -> String {
    format!("default {} {}", problem.label(), spec.render())
}

fn kv<'a>(tok: &'a str, key: &str) -> Option<&'a str> {
    tok.strip_prefix(key).and_then(|r| r.strip_prefix('='))
}

fn parse_spec(toks: &[&str], line_no: usize) -> Result<ConfigSpec, String> {
    let mut schedule: Option<Schedule> = None;
    let mut sched: Option<Sched> = None;
    let mut width: Option<Option<IndexWidth>> = None;
    let mut relabel: Option<LocalityOrder> = None;
    let mut forbidden: Option<Option<ForbiddenKind>> = None;
    for tok in toks {
        if let Some(v) = kv(tok, "schedule") {
            schedule =
                Some(Schedule::from_name(v).ok_or_else(|| {
                    format!("line {line_no}: unknown schedule `{v}`")
                })?);
        } else if let Some(v) = kv(tok, "sched") {
            sched = Some(
                Sched::from_name(v)
                    .ok_or_else(|| format!("line {line_no}: unknown sched `{v}`"))?,
            );
        } else if let Some(v) = kv(tok, "width") {
            width = Some(if v.eq_ignore_ascii_case("auto") {
                None
            } else {
                Some(IndexWidth::from_name(v).ok_or_else(|| {
                    format!("line {line_no}: unknown width `{v}`")
                })?)
            });
        } else if let Some(v) = kv(tok, "relabel") {
            relabel = Some(LocalityOrder::from_name(v).ok_or_else(|| {
                format!("line {line_no}: unknown relabel `{v}`")
            })?);
        } else if let Some(v) = kv(tok, "forbidden") {
            forbidden = Some(if v.eq_ignore_ascii_case("auto") {
                None
            } else {
                Some(ForbiddenKind::from_name(v).ok_or_else(|| {
                    format!("line {line_no}: unknown forbidden `{v}`")
                })?)
            });
        } else {
            return Err(format!("line {line_no}: unknown config key `{tok}`"));
        }
    }
    Ok(ConfigSpec {
        schedule: schedule
            .ok_or_else(|| format!("line {line_no}: config misses schedule="))?,
        sched: sched.ok_or_else(|| format!("line {line_no}: config misses sched="))?,
        width: width.ok_or_else(|| format!("line {line_no}: config misses width="))?,
        relabel: relabel
            .ok_or_else(|| format!("line {line_no}: config misses relabel="))?,
        forbidden: forbidden
            .ok_or_else(|| format!("line {line_no}: config misses forbidden="))?,
    })
}

fn parse_usize(toks: &[&str], key: &str, line_no: usize) -> Result<usize, String> {
    let v = toks
        .iter()
        .find_map(|t| kv(t, key))
        .ok_or_else(|| format!("line {line_no}: point misses {key}="))?;
    v.parse()
        .map_err(|e| format!("line {line_no}: bad {key}=`{v}`: {e}"))
}

fn parse_f64(toks: &[&str], key: &str, line_no: usize) -> Result<f64, String> {
    let v = toks
        .iter()
        .find_map(|t| kv(t, key))
        .ok_or_else(|| format!("line {line_no}: point misses {key}="))?;
    let x: f64 = v
        .parse()
        .map_err(|e| format!("line {line_no}: bad {key}=`{v}`: {e}"))?;
    if !x.is_finite() {
        return Err(format!("line {line_no}: non-finite {key}=`{v}`"));
    }
    Ok(x)
}

impl EngineTable {
    /// Parses a table from its text form. Every row is validated eagerly:
    /// a typo anywhere fails the whole parse with the line number, so a
    /// broken checked-in table cannot half-load.
    pub fn parse(text: &str) -> Result<EngineTable, String> {
        let mut points = Vec::new();
        let mut default_bgpc: Option<ConfigSpec> = None;
        let mut default_d2gc: Option<ConfigSpec> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let toks: Vec<&str> = line.split_whitespace().collect();
            match toks[0] {
                "default" => {
                    let problem = toks
                        .get(1)
                        .and_then(|p| ProblemKind::from_name(p))
                        .ok_or_else(|| {
                            format!("line {line_no}: default needs a problem (bgpc|d2gc)")
                        })?;
                    let spec = parse_spec(&toks[2..], line_no)?;
                    match problem {
                        ProblemKind::Bgpc => default_bgpc = Some(spec),
                        ProblemKind::D2gc => default_d2gc = Some(spec),
                    }
                }
                "point" => {
                    let problem = toks
                        .get(1)
                        .and_then(|p| ProblemKind::from_name(p))
                        .ok_or_else(|| {
                            format!("line {line_no}: point needs a problem (bgpc|d2gc)")
                        })?;
                    let arrow = toks.iter().position(|&t| t == "->").ok_or_else(|| {
                        format!("line {line_no}: point misses the `->` separator")
                    })?;
                    let feat_toks = &toks[2..arrow];
                    let tag = feat_toks
                        .iter()
                        .find_map(|t| kv(t, "tag"))
                        .unwrap_or("unnamed")
                        .to_string();
                    let features = InstanceFeatures {
                        problem,
                        n: parse_usize(feat_toks, "n", line_no)?,
                        nets: parse_usize(feat_toks, "nets", line_no)?,
                        nnz: parse_usize(feat_toks, "nnz", line_no)?,
                        max_degree: parse_usize(feat_toks, "maxdeg", line_no)?,
                        max_net: parse_usize(feat_toks, "maxnet", line_no)?,
                        avg_degree: parse_f64(feat_toks, "avgdeg", line_no)?,
                        degree_cv: parse_f64(feat_toks, "cv", line_no)?,
                        density: parse_f64(feat_toks, "density", line_no)?,
                    };
                    let spec = parse_spec(&toks[arrow + 1..], line_no)?;
                    points.push(TablePoint {
                        problem,
                        tag,
                        features,
                        spec,
                    });
                }
                other => {
                    return Err(format!(
                        "line {line_no}: unknown entry kind `{other}` (point|default)"
                    ))
                }
            }
        }
        Ok(EngineTable {
            points,
            default_bgpc: default_bgpc
                .ok_or("table misses the `default bgpc` row".to_string())?,
            default_d2gc: default_d2gc
                .ok_or("table misses the `default d2gc` row".to_string())?,
        })
    }

    /// Nearest point of `problem` to `f` in log-feature space; `None`
    /// when the table has no point for that problem. Strict `<` keeps the
    /// earliest entry on exact ties, making selection deterministic.
    pub fn nearest(&self, f: &InstanceFeatures) -> Option<&TablePoint> {
        let target = f.feature_vector();
        let mut best: Option<(&TablePoint, f64)> = None;
        for p in &self.points {
            if p.problem != f.problem {
                continue;
            }
            let d = dist2(&target, &p.features.feature_vector());
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((p, d));
            }
        }
        best.map(|(p, _)| p)
    }

    /// The problem's fallback config row.
    pub fn default_for(&self, problem: ProblemKind) -> &ConfigSpec {
        match problem {
            ProblemKind::Bgpc => &self.default_bgpc,
            ProblemKind::D2gc => &self.default_d2gc,
        }
    }
}

fn dist2(a: &[f64; 6], b: &[f64; 6]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "\
# comment line
default bgpc schedule=N1-N2 sched=dynamic width=auto relabel=none forbidden=auto
default d2gc schedule=V-V-64D sched=dynamic width=auto relabel=none forbidden=auto
point bgpc tag=tiny n=10 nets=12 nnz=40 maxdeg=5 maxnet=6 avgdeg=4.0 cv=0.3 density=0.33 \
 -> schedule=V-V-64D sched=steal width=u32 relabel=degree forbidden=bitstamp
";

    #[test]
    fn parse_roundtrips_through_render() {
        let t = EngineTable::parse(MINIMAL).unwrap();
        assert_eq!(t.points.len(), 1);
        let rendered = format!(
            "{}\n{}\n{}\n",
            render_default(ProblemKind::Bgpc, &t.default_bgpc),
            render_default(ProblemKind::D2gc, &t.default_d2gc),
            t.points[0].render()
        );
        let t2 = EngineTable::parse(&rendered).unwrap();
        assert_eq!(t2.points.len(), 1);
        assert_eq!(t2.points[0].tag, "tiny");
        assert_eq!(t2.points[0].spec.render(), t.points[0].spec.render());
        assert_eq!(t2.default_bgpc.render(), t.default_bgpc.render());
    }

    #[test]
    fn parse_rejects_typos_with_line_numbers() {
        for (bad, needle) in [
            ("default bgpc schedule=ZZZ sched=dynamic width=auto relabel=none forbidden=auto", "unknown schedule"),
            ("bogus bgpc", "unknown entry kind"),
            ("point bgpc n=1 -> schedule=V-V sched=dynamic width=auto relabel=none forbidden=auto", "misses nets="),
            // Tables written before the kernel axis was removed fail loudly.
            ("default bgpc schedule=N1-N2 sched=dynamic width=auto relabel=none kernel=auto forbidden=auto", "unknown config key `kernel=auto`"),
            ("point bgpc tag=x n=1 nets=1 nnz=1 maxdeg=1 maxnet=1 avgdeg=1 cv=0 density=1 schedule=V-V", "misses the `->`"),
        ] {
            let err = EngineTable::parse(bad).unwrap_err();
            assert!(err.contains(needle), "`{bad}` -> {err}");
            assert!(err.contains("line 1") || err.contains("misses the `default"), "{err}");
        }
        // A table without defaults is rejected even if points parse.
        let err = EngineTable::parse("").unwrap_err();
        assert!(err.contains("default bgpc"), "{err}");
    }

    #[test]
    fn nearest_is_deterministic_and_problem_scoped() {
        let t = EngineTable::parse(MINIMAL).unwrap();
        let f = InstanceFeatures {
            problem: ProblemKind::Bgpc,
            n: 11,
            nets: 12,
            nnz: 44,
            max_degree: 5,
            max_net: 6,
            avg_degree: 4.0,
            degree_cv: 0.3,
            density: 0.33,
        };
        let p = t.nearest(&f).unwrap();
        assert_eq!(p.tag, "tiny");
        // No D2GC points: nearest is None, default applies.
        let fd = InstanceFeatures {
            problem: ProblemKind::D2gc,
            ..f
        };
        assert!(t.nearest(&fd).is_none());
    }
}
