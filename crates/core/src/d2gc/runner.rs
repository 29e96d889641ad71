//! Speculative driver for D2GC, mirroring [`crate::runner`].

use std::time::{Duration, Instant};

use graph::Graph;
use par::{Pool, ThreadScratch};
use sparse::CsrIndex;

use crate::ctx::ThreadCtx;
use crate::d2gc::{net, vertex};
use crate::error::{validate_order, ColoringError};
use crate::forbidden::ForbiddenSet;
use crate::metrics::{
    count_distinct_colors, ColoringResult, DegradeReason, FailedPhase, IterationMetrics,
};
use crate::runner::{per_thread_slices, RunnerOpts};
use crate::schedule::PhaseKind;
use crate::workqueue::SharedQueue;
use crate::{Colors, Schedule, UNCOLORED};

/// Runs the full speculative D2GC loop with the given [`Schedule`].
///
/// The schedule's net/vertex switching, chunking, queue strategy and
/// balancing knobs apply exactly as in BGPC; the `net_variant` field is
/// ignored (D2GC has a single net-based coloring algorithm, Algorithm 9).
///
/// Faults degrade instead of aborting, exactly as in
/// [`crate::color_bgpc`]: see [`ColoringResult::degraded`].
pub fn color_d2gc<I: CsrIndex>(
    g: &Graph<I>,
    order: &[u32],
    schedule: &Schedule,
    pool: &Pool,
) -> ColoringResult {
    color_d2gc_with_opts(g, order, schedule, pool, RunnerOpts::default())
}

/// [`color_d2gc`] with an order validated against the vertex set.
pub fn try_color_d2gc<I: CsrIndex>(
    g: &Graph<I>,
    order: &[u32],
    schedule: &Schedule,
    pool: &Pool,
) -> Result<ColoringResult, ColoringError> {
    validate_order(order, g.n_vertices())?;
    Ok(color_d2gc(g, order, schedule, pool))
}

/// [`color_d2gc`] with explicit [`RunnerOpts`]. Picks the forbidden-set
/// representation per instance exactly like
/// [`crate::color_bgpc_with_opts`], with the same
/// [`crate::tuning::DENSE_FORBIDDEN_CUTOFF`] threshold applied to the
/// maximum degree (D2GC's neighborhood bound) rather than the maximum
/// net size; use [`color_d2gc_with_set`] to force one.
pub fn color_d2gc_with_opts<I: CsrIndex>(
    g: &Graph<I>,
    order: &[u32],
    schedule: &Schedule,
    pool: &Pool,
    opts: RunnerOpts,
) -> ColoringResult {
    if g.max_degree() > crate::tuning::DENSE_FORBIDDEN_CUTOFF {
        color_d2gc_with_set::<crate::StampSet, I>(g, order, schedule, pool, opts)
    } else {
        color_d2gc_with_set::<crate::BitStampSet, I>(g, order, schedule, pool, opts)
    }
}

/// [`color_d2gc`] generic over the forbidden-set representation `F`
/// (benchmark harness entry point, mirroring
/// [`crate::color_bgpc_with_set`]).
pub fn color_d2gc_with_set<F: ForbiddenSet, I: CsrIndex>(
    g: &Graph<I>,
    order: &[u32],
    schedule: &Schedule,
    pool: &Pool,
    opts: RunnerOpts,
) -> ColoringResult {
    let colors = Colors::new(g.n_vertices());
    let w0 = order.to_vec();
    run_speculative_d2gc::<F, I>(
        g,
        order,
        colors,
        w0,
        g.max_degree() + 64,
        schedule,
        pool,
        opts,
    )
}

/// The D2GC speculative loop over an explicit starting state, mirroring
/// [`crate::runner::run_speculative_bgpc`]: `colors` may be pre-seeded
/// and `w0` restricted to a dirty subset ([`crate::incremental`]), while
/// `order` must always cover every vertex (repair + net-phase rebuild).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_speculative_d2gc<F: ForbiddenSet, I: CsrIndex>(
    g: &Graph<I>,
    order: &[u32],
    colors: Colors,
    w0: Vec<u32>,
    capacity: usize,
    schedule: &Schedule,
    pool: &Pool,
    opts: RunnerOpts,
) -> ColoringResult {
    let n = g.n_vertices();
    debug_assert_eq!(order.len(), n);
    let mut scratch: ThreadScratch<ThreadCtx<F, I>> =
        ThreadScratch::new(pool.threads(), |_| ThreadCtx::new(capacity));
    // Per-run state reset, mirroring [`crate::runner`] (see ThreadCtx docs).
    for ctx in scratch.iter_mut() {
        ctx.reset_for_run();
    }
    let eager_queue = (!schedule.lazy_queue).then(|| SharedQueue::new(n));

    // The online tuner refines a working copy between iterations;
    // `schedule` itself stays the caller's requested configuration.
    let mut live = schedule.clone();
    let mut tuner_actions = Vec::new();

    let mut w: Vec<u32> = w0;
    let mut iterations = Vec::new();
    let mut degraded: Option<DegradeReason> = None;
    let rec = pool.tracer();
    let start = Instant::now();

    let mut iter = 0usize;
    while !w.is_empty() {
        if opts.expired() {
            // Deadline/cancellation: repair best-so-far, mirroring
            // [`crate::runner`]'s graceful-degradation path.
            degraded = Some(DegradeReason::DeadlineExceeded { iter });
            let queue_in = w.len();
            traced_repair(g, order, &colors, rec, iter);
            w.clear();
            iterations.push(IterationMetrics {
                iter,
                queue_in,
                color_kind: PhaseKind::Vertex,
                conflict_kind: PhaseKind::Vertex,
                color_time: start.elapsed(),
                conflict_time: Duration::ZERO,
                queue_out: 0,
                per_thread: Vec::new(),
            });
            break;
        }
        if iter >= opts.max_iterations {
            degraded = Some(DegradeReason::IterationCap {
                cap: opts.max_iterations,
            });
            let queue_in = w.len();
            traced_repair(g, order, &colors, rec, iter);
            w.clear();
            iterations.push(IterationMetrics {
                iter,
                queue_in,
                color_kind: PhaseKind::Vertex,
                conflict_kind: PhaseKind::Vertex,
                color_time: start.elapsed(),
                conflict_time: Duration::ZERO,
                queue_out: 0,
                per_thread: Vec::new(),
            });
            break;
        }

        let queue_in = w.len();
        let color_kind = live.color_kind(iter);
        let conflict_kind = live.conflict_kind(iter);

        // Phase-bracketing snapshots, exactly as in [`crate::runner`]:
        // deltas of the monotonic sheets become `ThreadIterStats`.
        let snap_start = rec.map(|r| r.snapshot_counters());
        let color_start_ns = rec.map(|r| r.now_ns());
        let t_color = Instant::now();
        let color_outcome = par::contain(|| match color_kind {
            PhaseKind::Vertex => vertex::color_workqueue_vertex(
                g,
                &w,
                &colors,
                pool,
                live.chunk,
                live.sched,
                live.balance,
                &scratch,
            ),
            PhaseKind::Net => net::color_workqueue_net(
                g,
                &colors,
                pool,
                live.sched,
                live.balance,
                &scratch,
            ),
        });
        let color_time = t_color.elapsed();
        if let (Some(r), Some(ts)) = (rec, color_start_ns) {
            r.record_span(
                0,
                trace::SpanKind::Color,
                iter as u32,
                ts,
                r.now_ns().saturating_sub(ts),
            );
        }
        let snap_color = rec.map(|r| r.snapshot_counters());

        if let Err(fault) = color_outcome {
            degraded = Some(DegradeReason::WorkerPanic {
                phase: FailedPhase::Color,
                iter,
                message: fault.first_message(),
            });
            traced_repair(g, order, &colors, rec, iter);
            w.clear();
            iterations.push(IterationMetrics {
                iter,
                queue_in,
                color_kind,
                conflict_kind,
                color_time,
                conflict_time: Duration::ZERO,
                queue_out: 0,
                per_thread: Vec::new(),
            });
            break;
        }

        let conflict_start_ns = rec.map(|r| r.now_ns());
        let t_conflict = Instant::now();
        let conflict_outcome = par::contain(|| match conflict_kind {
            PhaseKind::Vertex => vertex::remove_conflicts_vertex(
                g,
                &w,
                &colors,
                pool,
                live.chunk,
                live.sched,
                eager_queue.as_ref(),
                &mut scratch,
            ),
            PhaseKind::Net => {
                net::remove_conflicts_net(g, &colors, pool, live.sched, &scratch);
                net::collect_uncolored(order, &colors, pool, &mut scratch)
            }
        });
        let conflict_time = t_conflict.elapsed();
        if let (Some(r), Some(ts)) = (rec, conflict_start_ns) {
            r.record_span(
                0,
                trace::SpanKind::Conflict,
                iter as u32,
                ts,
                r.now_ns().saturating_sub(ts),
            );
        }

        let wnext = match conflict_outcome {
            Ok(wnext) => wnext,
            Err(fault) => {
                degraded = Some(DegradeReason::WorkerPanic {
                    phase: FailedPhase::Conflict,
                    iter,
                    message: fault.first_message(),
                });
                traced_repair(g, order, &colors, rec, iter);
                w.clear();
                iterations.push(IterationMetrics {
                    iter,
                    queue_in,
                    color_kind,
                    conflict_kind,
                    color_time,
                    conflict_time,
                    queue_out: 0,
                    per_thread: Vec::new(),
                });
                break;
            }
        };

        // Dropped eager-queue entries are losers that will never be
        // recolored — flag the overflow and repair, as in [`crate::runner`].
        if let Some(q) = eager_queue.as_ref() {
            if q.has_overflowed() {
                degraded = Some(DegradeReason::QueueOverflow {
                    iter,
                    dropped: q.dropped(),
                });
                traced_repair(g, order, &colors, rec, iter);
                iterations.push(IterationMetrics {
                    iter,
                    queue_in,
                    color_kind,
                    conflict_kind,
                    color_time,
                    conflict_time,
                    queue_out: 0,
                    per_thread: Vec::new(),
                });
                break;
            }
        }

        let per_thread = per_thread_slices(&snap_start, &snap_color, rec);
        if trace::COMPILED && conflict_kind == PhaseKind::Vertex && !per_thread.is_empty() {
            // Same trace/queue invariant as the BGPC driver: the
            // vertex-based conflict phase pushes each loser exactly once.
            let counted: u64 = per_thread
                .iter()
                .map(|t| t.conflict.get(trace::Counter::ConflictsDetected))
                .sum();
            debug_assert_eq!(
                counted,
                wnext.len() as u64,
                "per-thread conflict counts disagree with queue size"
            );
        }

        iterations.push(IterationMetrics {
            iter,
            queue_in,
            color_kind,
            conflict_kind,
            color_time,
            conflict_time,
            queue_out: wnext.len(),
            per_thread,
        });
        if let Some(tuner) = &opts.online {
            let m = iterations.last().expect("metrics just pushed");
            tuner_actions.extend(tuner.refine(&mut live, m, pool.threads()));
        }
        w = wnext;
        iter += 1;
    }

    let colors = colors.snapshot();
    let num_colors = count_distinct_colors(&colors);
    ColoringResult {
        colors,
        num_colors,
        iterations,
        total_time: start.elapsed(),
        degraded,
        tuner_actions,
    }
}

/// [`repair_sequential`] wrapped in a [`trace::SpanKind::Repair`] span,
/// mirroring the BGPC driver's `traced_repair`.
fn traced_repair<I: CsrIndex>(
    g: &Graph<I>,
    order: &[u32],
    colors: &Colors,
    rec: Option<&trace::Recorder>,
    iter: usize,
) {
    let ts = rec.map(|r| r.now_ns());
    repair_sequential(g, order, colors);
    if let (Some(r), Some(ts)) = (rec, ts) {
        r.record_span(
            0,
            trace::SpanKind::Repair,
            iter as u32,
            ts,
            r.now_ns().saturating_sub(ts),
        );
    }
}

/// Repairs an arbitrary partial D2GC coloring into a valid complete one.
///
/// Validity of a distance-2 coloring is equivalent to every *closed
/// neighborhood* `{v} ∪ N(v)` being rainbow: adjacent pairs appear in each
/// other's closed neighborhoods, and distance-2 pairs appear in their
/// common neighbor's. The repair scans each closed neighborhood, keeps the
/// first holder of every color and uncolors later duplicates, then
/// first-fit colors the uncolored set in `order`.
fn repair_sequential<I: CsrIndex>(g: &Graph<I>, order: &[u32], colors: &Colors) {
    let n = g.n_vertices();
    let mut max_c: crate::Color = -1;
    for u in 0..n {
        max_c = max_c.max(colors.get(u));
    }
    let width = (max_c + 1) as usize + 1;
    let mut stamp = vec![usize::MAX; width];
    let mut holder = vec![0u32; width];
    for v in 0..n {
        let members = std::iter::once(v as u32).chain(g.nbor(v).iter().copied());
        for u in members {
            let c = colors.get(u as usize);
            if c == UNCOLORED {
                continue;
            }
            let ci = c as usize;
            if stamp[ci] == v && holder[ci] != u {
                colors.set(u as usize, UNCOLORED);
            } else {
                stamp[ci] = v;
                holder[ci] = u;
            }
        }
    }
    let uncolored: Vec<u32> = order
        .iter()
        .copied()
        .filter(|&u| colors.get(u as usize) == UNCOLORED)
        .collect();
    sequential_fallback(g, &uncolored, colors);
}

fn sequential_fallback<I: CsrIndex>(g: &Graph<I>, w: &[u32], colors: &Colors) {
    let mut fb = crate::BitStampSet::with_capacity(g.max_degree() + 64);
    for &wv in w {
        let wu = wv as usize;
        fb.advance();
        for &u in g.nbor(wu) {
            let cu = colors.get(u as usize);
            if cu != crate::UNCOLORED {
                fb.insert(cu);
            }
            for &x in g.nbor(u as usize) {
                if x != wv {
                    let cx = colors.get(x as usize);
                    if cx != crate::UNCOLORED {
                        fb.insert(cx);
                    }
                }
            }
        }
        colors.set(wu, fb.first_fit_from(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_d2gc;
    use crate::Balance;
    use graph::Ordering;

    fn mesh() -> Graph {
        Graph::from_symmetric_matrix(&sparse::gen::grid2d(12, 12, 1))
    }

    #[test]
    fn d2gc_schedule_set_valid_single_thread() {
        let g = mesh();
        let order = Ordering::Natural.vertex_order_d2(&g);
        let pool = Pool::new(1);
        for schedule in Schedule::d2gc_set() {
            let r = color_d2gc(&g, &order, &schedule, &pool);
            verify_d2gc(&g, &r.colors)
                .unwrap_or_else(|e| panic!("{}: {e}", schedule.name()));
            assert!(r.num_colors > g.max_degree());
        }
    }

    #[test]
    fn d2gc_schedule_set_valid_parallel() {
        let g = mesh();
        let order = Ordering::Natural.vertex_order_d2(&g);
        let pool = Pool::new(4);
        for schedule in Schedule::d2gc_set() {
            let r = color_d2gc(&g, &order, &schedule, &pool);
            verify_d2gc(&g, &r.colors)
                .unwrap_or_else(|e| panic!("{}: {e}", schedule.name()));
        }
    }

    #[test]
    fn single_thread_matches_sequential() {
        let g = mesh();
        let order = Ordering::Natural.vertex_order_d2(&g);
        let pool = Pool::new(1);
        let r = color_d2gc(&g, &order, &Schedule::v_v(), &pool);
        let (seq_colors, seq_k) = crate::seq::color_d2gc_seq(&g, &order);
        assert_eq!(r.colors, seq_colors);
        assert_eq!(r.num_colors, seq_k);
    }

    #[test]
    fn balanced_d2gc_valid() {
        let g = mesh();
        let order = Ordering::Natural.vertex_order_d2(&g);
        let pool = Pool::new(3);
        for balance in [Balance::B1, Balance::B2] {
            let schedule = Schedule::n1_n2().with_balance(balance);
            let r = color_d2gc(&g, &order, &schedule, &pool);
            verify_d2gc(&g, &r.colors).unwrap();
        }
    }

    #[test]
    fn powerlaw_graph_all_schedules() {
        let m = sparse::gen::chung_lu(300, 2400, 2.3, 60, true, 5);
        let g = Graph::from_symmetric_matrix(&m);
        let order = Ordering::Natural.vertex_order_d2(&g);
        let pool = Pool::new(4);
        for schedule in Schedule::d2gc_set() {
            let r = color_d2gc(&g, &order, &schedule, &pool);
            verify_d2gc(&g, &r.colors)
                .unwrap_or_else(|e| panic!("{}: {e}", schedule.name()));
        }
    }
}
