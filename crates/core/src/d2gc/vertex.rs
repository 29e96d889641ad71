//! Vertex-based D2GC phases.
//!
//! The paper describes these as the BGPC algorithms "with a single
//! difference: distance-1 neighbors must also be considered in the
//! neighborhood" — each queued vertex scans `nbor(w)` and `nbor(nbor(w))`.

use graph::Graph;
use par::{Pool, Sched, ThreadScratch};
use sparse::CsrIndex;

use crate::ctx::ThreadCtx;
use crate::forbidden::ForbiddenSet;
use crate::tuning::PREFETCH_AHEAD;
use crate::workqueue::{merge_local_queues, SharedQueue};
use crate::{Balance, Colors, UNCOLORED};

/// Optimistic coloring of the work queue, vertex-based: forbid the colors
/// of everything within distance 2 of `w`, then pick with `balance`.
#[allow(clippy::too_many_arguments)] // mirrors the paper kernel's parameter list
pub fn color_workqueue_vertex<F: ForbiddenSet, I: CsrIndex>(
    g: &Graph<I>,
    w: &[u32],
    colors: &Colors,
    pool: &Pool,
    chunk: usize,
    sched: Sched,
    balance: Balance,
    scratch: &ThreadScratch<ThreadCtx<F, I>>,
) {
    let rec = pool.tracer();
    pool.for_sched(sched, w.len(), chunk, |tid, range| {
        par::faults::fire("d2gc.color", tid);
        scratch.with(tid, |ctx| {
            let items = &w[range];
            let mut probes = 0u64;
            let mut prefetches = 0u64;
            for (k, &wv) in items.iter().enumerate() {
                if let Some(&next) = items.get(k + PREFETCH_AHEAD) {
                    g.prefetch_nbor(next as usize);
                    if trace::COMPILED {
                        prefetches += 1;
                    }
                }
                let wu = wv as usize;
                ctx.fb.advance();
                for &u in g.nbor(wu) {
                    let cu = colors.get(u as usize);
                    if cu != UNCOLORED {
                        ctx.fb.insert(cu);
                        if trace::COMPILED {
                            probes += 1;
                        }
                    }
                    for &x in g.nbor(u as usize) {
                        if x != wv {
                            let cx = colors.get(x as usize);
                            if cx != UNCOLORED {
                                ctx.fb.insert(cx);
                                if trace::COMPILED {
                                    probes += 1;
                                }
                            }
                        }
                    }
                }
                let col = balance.pick(wv, &ctx.fb, &mut ctx.balancer);
                colors.set(wu, col);
            }
            if trace::COMPILED {
                if let Some(r) = rec {
                    let mut local = trace::CounterSheet::new();
                    local.add(trace::Counter::VerticesColored, items.len() as u64);
                    local.add(trace::Counter::ForbiddenProbes, probes);
                    local.add(trace::Counter::PrefetchIssues, prefetches);
                    r.merge(tid, &local);
                }
            }
        });
    });
}

/// Vertex-based conflict detection: `w` loses (is re-queued) if any vertex
/// within distance 2 carries the same color and has a smaller id.
#[allow(clippy::too_many_arguments)] // mirrors the paper kernel's parameter list
pub fn remove_conflicts_vertex<F: ForbiddenSet, I: CsrIndex>(
    g: &Graph<I>,
    w: &[u32],
    colors: &Colors,
    pool: &Pool,
    chunk: usize,
    sched: Sched,
    eager: Option<&SharedQueue>,
    scratch: &mut ThreadScratch<ThreadCtx<F, I>>,
) -> Vec<u32> {
    let scratch_ref: &ThreadScratch<ThreadCtx<F, I>> = scratch;
    let rec = pool.tracer();
    pool.for_sched(sched, w.len(), chunk, |tid, range| {
        par::faults::fire("d2gc.conflict", tid);
        scratch_ref.with(tid, |ctx| {
            let items = &w[range];
            let mut conflicts = 0u64;
            let mut prefetches = 0u64;
            for (k, &wv) in items.iter().enumerate() {
                if let Some(&next) = items.get(k + PREFETCH_AHEAD) {
                    g.prefetch_nbor(next as usize);
                    if trace::COMPILED {
                        prefetches += 1;
                    }
                }
                let wu = wv as usize;
                let cw = colors.get(wu);
                debug_assert_ne!(cw, UNCOLORED);
                let mut conflicted = false;
                'detect: for &u in g.nbor(wu) {
                    if u < wv && colors.get(u as usize) == cw {
                        conflicted = true;
                        break 'detect;
                    }
                    let pins = g.nbor(u as usize);
                    if pins.iter().any(|&x| x < wv && colors.get(x as usize) == cw) {
                        conflicted = true;
                        break 'detect;
                    }
                }
                if conflicted {
                    match eager {
                        Some(q) => q.push_staged(&mut ctx.stage, wv),
                        None => ctx.local_queue.push(wv),
                    }
                    if trace::COMPILED {
                        conflicts += 1;
                    }
                }
            }
            if trace::COMPILED {
                if let Some(r) = rec {
                    let mut local = trace::CounterSheet::new();
                    local.add(trace::Counter::ConflictsDetected, conflicts);
                    local.add(trace::Counter::PrefetchIssues, prefetches);
                    r.merge(tid, &local);
                }
            }
        });
    });
    match eager {
        Some(q) => {
            // Flush each thread's residual stage (outside the region — the
            // join ordered all staged writes before this point).
            for ctx in scratch.iter_mut() {
                q.flush(&mut ctx.stage);
            }
            q.drain_to_vec()
        }
        None => merge_local_queues(scratch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_d2gc;
    use sparse::Csr;

    fn cycle6() -> Graph {
        Graph::from_symmetric_matrix(&Csr::from_rows(
            6,
            &[
                vec![1, 5],
                vec![0, 2],
                vec![1, 3],
                vec![2, 4],
                vec![3, 5],
                vec![0, 4],
            ],
        ))
    }

    fn run_until_valid(g: &Graph, pool: &Pool, sched: Sched) -> Vec<i32> {
        let colors = Colors::new(g.n_vertices());
        let mut sc: ThreadScratch<ThreadCtx> =
            ThreadScratch::new(pool.threads(), |_| ThreadCtx::new(16));
        let mut w: Vec<u32> = (0..g.n_vertices() as u32).collect();
        let mut rounds = 0;
        while !w.is_empty() {
            color_workqueue_vertex(g, &w, &colors, pool, 2, sched, Balance::Unbalanced, &sc);
            w = remove_conflicts_vertex(g, &w, &colors, pool, 2, sched, None, &mut sc);
            rounds += 1;
            assert!(rounds < 100);
        }
        colors.snapshot()
    }

    #[test]
    fn cycle_single_thread() {
        let g = cycle6();
        let colors = run_until_valid(&g, &Pool::new(1), Sched::Dynamic);
        verify_d2gc(&g, &colors).unwrap();
        // C6 at distance 2 needs exactly 3 colors.
        let k = crate::metrics::count_distinct_colors(&colors);
        assert_eq!(k, 3);
    }

    #[test]
    fn cycle_parallel() {
        let g = cycle6();
        for sched in Sched::all() {
            let colors = run_until_valid(&g, &Pool::new(4), sched);
            verify_d2gc(&g, &colors).unwrap();
        }
    }

    #[test]
    fn random_graph_parallel_eager_queue() {
        let m = sparse::gen::erdos_renyi(60, 150, 3);
        let g = Graph::from_symmetric_matrix(&m);
        let pool = Pool::new(3);
        let colors = Colors::new(g.n_vertices());
        let shared = SharedQueue::new(g.n_vertices());
        let mut sc: ThreadScratch<ThreadCtx> =
            ThreadScratch::new(3, |_| ThreadCtx::new(64));
        let mut w: Vec<u32> = (0..g.n_vertices() as u32).collect();
        let mut rounds = 0;
        while !w.is_empty() {
            color_workqueue_vertex(
                &g, &w, &colors, &pool, 4, Sched::Stealing, Balance::Unbalanced, &sc,
            );
            w = remove_conflicts_vertex(
                &g, &w, &colors, &pool, 4, Sched::Stealing, Some(&shared), &mut sc,
            );
            rounds += 1;
            assert!(rounds < 100);
        }
        verify_d2gc(&g, &colors.snapshot()).unwrap();
    }
}
