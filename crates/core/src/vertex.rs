//! Vertex-based BGPC phases (Algorithms 4 and 5) — the ColPack baseline.
//!
//! Both phases walk the distance-2 neighborhood *from the queued vertex*:
//! `nets(w) → vtxs(v)`. In the first iteration this touches every net
//! `|vtxs(v)|` times, so the traversal is `Θ(Σ_v |vtxs(v)|²)` — the cost
//! the net-based phases of [`crate::net`] attack.

use graph::BipartiteGraph;
use par::{Pool, Sched, ThreadScratch};
use sparse::CsrIndex;

use crate::ctx::ThreadCtx;
use crate::forbidden::ForbiddenSet;
use crate::workqueue::{merge_local_queues, SharedQueue};
use crate::{Balance, Colors, UNCOLORED};

// Hoisted to the tunable-constant module; the
// re-export keeps the historical `vertex::PREFETCH_AHEAD` path working for
// the sequential and D2GC kernels.
pub(crate) use crate::tuning::PREFETCH_AHEAD;

/// Algorithm 4 — optimistic coloring of the work queue `w`, vertex-based.
///
/// Every vertex in `w` is assigned a color chosen by `balance` (first-fit
/// for [`Balance::Unbalanced`]) against the colors currently visible in its
/// distance-2 neighborhood. Races with concurrent writers are expected and
/// repaired by the following conflict-removal phase.
#[allow(clippy::too_many_arguments)] // mirrors the paper kernel's parameter list
pub fn color_workqueue_vertex<F: ForbiddenSet, I: CsrIndex>(
    g: &BipartiteGraph<I>,
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
        par::faults::fire("bgpc.color", tid);
        scratch.with(tid, |ctx| {
            let items = &w[range];
            // Counter sinks live in registers and are flushed once per
            // chunk; with the trace crate's `sink-off` feature the
            // `trace::COMPILED` constant folds them away entirely.
            let mut probes = 0u64;
            let mut prefetches = 0u64;
            for (k, &wv) in items.iter().enumerate() {
                if let Some(&next) = items.get(k + PREFETCH_AHEAD) {
                    g.prefetch_nets(next as usize);
                    if trace::COMPILED {
                        prefetches += 1;
                    }
                }
                let wu = wv as usize;
                ctx.fb.advance();
                let nets = g.nets(wu);
                for (j, &v) in nets.iter().enumerate() {
                    if let Some(&vnext) = nets.get(j + 1) {
                        g.prefetch_vtxs(vnext as usize);
                        if trace::COMPILED {
                            prefetches += 1;
                        }
                    }
                    for &u in g.vtxs(v as usize) {
                        if u != wv {
                            let cu = colors.get(u as usize);
                            if cu != UNCOLORED {
                                ctx.fb.insert(cu);
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

/// Algorithm 5 — vertex-based conflict detection over the work queue.
///
/// For each queued vertex `w`, scans its distance-2 neighborhood; if some
/// neighbor `u` holds the same color and `w > u`, `w` loses and is queued
/// for recoloring (its stale color is left in place, exactly like the
/// original — the next coloring phase overwrites it).
///
/// `eager` selects ColPack's shared-queue construction (staged: one atomic
/// `fetch_add` per 64 conflicts instead of one per conflict); otherwise the
/// 64D lazy strategy collects conflicts in thread-private queues merged
/// after the join. Returns `W_next`.
#[allow(clippy::too_many_arguments)] // mirrors the paper kernel's parameter list
pub fn remove_conflicts_vertex<F: ForbiddenSet, I: CsrIndex>(
    g: &BipartiteGraph<I>,
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
        par::faults::fire("bgpc.conflict", tid);
        scratch_ref.with(tid, |ctx| {
            let items = &w[range];
            let mut conflicts = 0u64;
            let mut prefetches = 0u64;
            for (k, &wv) in items.iter().enumerate() {
                if let Some(&next) = items.get(k + PREFETCH_AHEAD) {
                    g.prefetch_nets(next as usize);
                    if trace::COMPILED {
                        prefetches += 1;
                    }
                }
                let wu = wv as usize;
                let cw = colors.get(wu);
                debug_assert_ne!(cw, UNCOLORED, "conflict scan on uncolored vertex");
                'detect: for &v in g.nets(wu) {
                    let pins = g.vtxs(v as usize);
                    if pins.iter().any(|&u| u < wv && colors.get(u as usize) == cw) {
                        match eager {
                            Some(q) => q.push_staged(&mut ctx.stage, wv),
                            None => ctx.local_queue.push(wv),
                        }
                        if trace::COMPILED {
                            conflicts += 1;
                        }
                        break 'detect;
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
    use crate::verify::verify_bgpc;
    use sparse::Csr;

    fn clique_graph() -> BipartiteGraph {
        // One net containing all 6 vertices: pairwise conflicting.
        BipartiteGraph::from_matrix(&Csr::from_rows(6, &[vec![0, 1, 2, 3, 4, 5]]))
    }

    fn run_until_valid(g: &BipartiteGraph, pool: &Pool, eager: bool, sched: Sched) -> Vec<i32> {
        let n = g.n_vertices();
        let colors = Colors::new(n);
        let mut scratch: ThreadScratch<ThreadCtx> =
            ThreadScratch::new(pool.threads(), |_| ThreadCtx::new(16));
        let shared = SharedQueue::new(n);
        let mut w: Vec<u32> = (0..n as u32).collect();
        let mut guard = 0;
        while !w.is_empty() {
            color_workqueue_vertex(g, &w, &colors, pool, 1, sched, Balance::Unbalanced, &scratch);
            w = remove_conflicts_vertex(
                g,
                &w,
                &colors,
                pool,
                1,
                sched,
                eager.then_some(&shared),
                &mut scratch,
            );
            guard += 1;
            assert!(guard < 100, "no convergence");
        }
        colors.snapshot()
    }

    #[test]
    fn sequential_team_colors_clique_without_conflicts() {
        let g = clique_graph();
        let pool = Pool::new(1);
        // Single thread first-fit on one net: colors are 0..6 in order,
        // whichever chunk scheduler claims the (single-block) range.
        for sched in Sched::all() {
            let colors = run_until_valid(&g, &pool, false, sched);
            verify_bgpc(&g, &colors).unwrap();
            assert_eq!(colors, vec![0, 1, 2, 3, 4, 5], "{sched}");
        }
    }

    #[test]
    fn parallel_team_converges_on_clique_lazy() {
        let g = clique_graph();
        let pool = Pool::new(4);
        for sched in Sched::all() {
            let colors = run_until_valid(&g, &pool, false, sched);
            verify_bgpc(&g, &colors).unwrap();
        }
    }

    #[test]
    fn parallel_team_converges_on_clique_eager() {
        let g = clique_graph();
        let pool = Pool::new(4);
        for sched in Sched::all() {
            let colors = run_until_valid(&g, &pool, true, sched);
            verify_bgpc(&g, &colors).unwrap();
        }
    }

    #[test]
    fn disjoint_nets_need_one_iteration() {
        // nets {0,1}, {2,3}: vertices 0,2 and 1,3 can share colors.
        let g = BipartiteGraph::from_matrix(&Csr::from_rows(4, &[vec![0, 1], vec![2, 3]]));
        let pool = Pool::new(2);
        let colors = Colors::new(4);
        let mut scratch: ThreadScratch<ThreadCtx> =
            ThreadScratch::new(2, |_| ThreadCtx::new(8));
        let w: Vec<u32> = vec![0, 1, 2, 3];
        color_workqueue_vertex(
            &g, &w, &colors, &pool, 1, Sched::Dynamic, Balance::Unbalanced, &scratch,
        );
        let wnext = remove_conflicts_vertex(
            &g, &w, &colors, &pool, 1, Sched::Dynamic, None, &mut scratch,
        );
        // single-net-per-vertex, small graph: any schedule should already
        // be conflict-free or nearly so; loop to completion for safety.
        let mut w = wnext;
        let mut rounds = 0;
        while !w.is_empty() {
            color_workqueue_vertex(
                &g, &w, &colors, &pool, 1, Sched::Dynamic, Balance::Unbalanced, &scratch,
            );
            w = remove_conflicts_vertex(
                &g, &w, &colors, &pool, 1, Sched::Dynamic, None, &mut scratch,
            );
            rounds += 1;
            assert!(rounds < 10);
        }
        verify_bgpc(&g, &colors.snapshot()).unwrap();
    }

    #[test]
    fn loser_is_larger_id() {
        // Force a conflict artificially: both vertices of one net get the
        // same color, then run detection on the full queue.
        let g = BipartiteGraph::from_matrix(&Csr::from_rows(2, &[vec![0, 1]]));
        let pool = Pool::new(1);
        let colors = Colors::new(2);
        colors.set(0, 0);
        colors.set(1, 0);
        let mut scratch: ThreadScratch<ThreadCtx> =
            ThreadScratch::new(1, |_| ThreadCtx::new(4));
        let wnext = remove_conflicts_vertex(
            &g, &[0, 1], &colors, &pool, 1, Sched::Dynamic, None, &mut scratch,
        );
        assert_eq!(wnext, vec![1]);
        // Winner keeps its color; loser's stale color remains until the
        // next coloring phase (paper semantics).
        assert_eq!(colors.get(0), 0);
        assert_eq!(colors.get(1), 0);
    }

    #[test]
    fn balanced_policies_still_yield_valid_colorings() {
        let m = sparse::gen::bipartite_uniform(20, 30, 200, 3);
        let g = BipartiteGraph::from_matrix(&m);
        for balance in [Balance::B1, Balance::B2] {
            let pool = Pool::new(3);
            let colors = Colors::new(g.n_vertices());
            let mut scratch: ThreadScratch<ThreadCtx> =
                ThreadScratch::new(3, |_| ThreadCtx::new(32));
            let mut w: Vec<u32> = (0..g.n_vertices() as u32).collect();
            let mut rounds = 0;
            while !w.is_empty() {
                color_workqueue_vertex(
                    &g, &w, &colors, &pool, 4, Sched::Stealing, balance, &scratch,
                );
                w = remove_conflicts_vertex(
                    &g, &w, &colors, &pool, 4, Sched::Stealing, None, &mut scratch,
                );
                rounds += 1;
                assert!(rounds < 100);
            }
            verify_bgpc(&g, &colors.snapshot()).unwrap();
        }
    }
}
