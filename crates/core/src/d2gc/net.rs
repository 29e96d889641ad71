//! Net-based D2GC phases (Algorithms 9 and 10).
//!
//! Each vertex `v` acts as the net over its closed neighborhood
//! `{v} ∪ nbor(v)`: the kernels first process `v`'s own color (the
//! distance-1 requirement that BGPC lacks), then scan the adjacency list.

use graph::Graph;
use par::{Pool, Sched, ThreadScratch};
use sparse::CsrIndex;

use crate::ctx::ThreadCtx;
use crate::{Balance, Color, Colors, UNCOLORED};

const NET_CHUNK: usize = 16;

/// Algorithm 9 — net-based D2GC coloring.
///
/// The reverse first-fit cursor starts at `|nbor(v)|` (not
/// `|nbor(v)| − 1`): the thread may color the middle vertex too, needing
/// up to `|nbor(v)| + 1` colors including color 0.
pub fn color_workqueue_net<I: CsrIndex>(
    g: &Graph<I>,
    colors: &Colors,
    pool: &Pool,
    sched: Sched,
    balance: Balance,
    scratch: &ThreadScratch<ThreadCtx<I>>,
) {
    let rec = pool.tracer();
    pool.for_sched(sched, g.n_vertices(), NET_CHUNK, |tid, range| {
        par::faults::fire("d2gc.color", tid);
        scratch.with(tid, |ctx| {
            let mut colored = 0u64;
            let mut probes = 0u64;
            for v in range {
                ctx.fb.advance();
                ctx.wlocal.clear();
                let cv = colors.get(v);
                if cv != UNCOLORED {
                    ctx.fb.insert(cv);
                    if trace::COMPILED {
                        probes += 1;
                    }
                } else {
                    ctx.wlocal.push(v as u32);
                }
                for &u in g.nbor(v) {
                    let cu = colors.get(u as usize);
                    if cu != UNCOLORED && !ctx.fb.contains(cu) {
                        ctx.fb.insert(cu);
                        if trace::COMPILED {
                            probes += 1;
                        }
                    } else {
                        ctx.wlocal.push(u);
                    }
                }
                if ctx.wlocal.is_empty() {
                    continue;
                }
                if trace::COMPILED {
                    colored += ctx.wlocal.len() as u64;
                }
                // Take the local queue so the second pass iterates a slice
                // (no per-element index bound check) while `ctx.fb` stays
                // mutably borrowable.
                let wlocal = std::mem::take(&mut ctx.wlocal);
                match balance {
                    Balance::Unbalanced => {
                        let mut col: Color = g.degree(v) as Color;
                        for &u in &wlocal {
                            col = ctx.fb.reverse_first_fit_from(col);
                            debug_assert!(col >= 0, "D2GC reverse fit underflow");
                            colors.set(u as usize, col);
                            col -= 1;
                        }
                    }
                    Balance::B1 | Balance::B2 => {
                        for &u in &wlocal {
                            let col = balance.pick(v as u32, &ctx.fb, &mut ctx.balancer);
                            colors.set(u as usize, col);
                            ctx.fb.insert(col);
                        }
                    }
                }
                ctx.wlocal = wlocal;
            }
            if trace::COMPILED {
                if let Some(r) = rec {
                    let mut local = trace::CounterSheet::new();
                    local.add(trace::Counter::VerticesColored, colored);
                    local.add(trace::Counter::ForbiddenProbes, probes);
                    r.merge(tid, &local);
                }
            }
        });
    });
}

/// Algorithm 10 — net-based D2GC conflict removal.
///
/// The middle vertex's color is seeded into `F` first, so a neighbor
/// duplicating it is uncolored while `v` itself always survives its own
/// scan (it may still lose in a neighbor's scan).
pub fn remove_conflicts_net<I: CsrIndex>(
    g: &Graph<I>,
    colors: &Colors,
    pool: &Pool,
    sched: Sched,
    scratch: &ThreadScratch<ThreadCtx<I>>,
) {
    let rec = pool.tracer();
    pool.for_sched(sched, g.n_vertices(), NET_CHUNK, |tid, range| {
        par::faults::fire("d2gc.conflict", tid);
        scratch.with(tid, |ctx| {
            let mut conflicts = 0u64;
            let mut probes = 0u64;
            for v in range {
                ctx.fb.advance();
                let cv = colors.get(v);
                if cv != UNCOLORED {
                    ctx.fb.insert(cv);
                    if trace::COMPILED {
                        probes += 1;
                    }
                }
                for &u in g.nbor(v) {
                    let cu = colors.get(u as usize);
                    if cu != UNCOLORED {
                        if ctx.fb.contains(cu) {
                            colors.clear(u as usize);
                            if trace::COMPILED {
                                conflicts += 1;
                            }
                        } else {
                            ctx.fb.insert(cu);
                            if trace::COMPILED {
                                probes += 1;
                            }
                        }
                    }
                }
            }
            if trace::COMPILED {
                if let Some(r) = rec {
                    let mut local = trace::CounterSheet::new();
                    local.add(trace::Counter::ConflictsDetected, conflicts);
                    local.add(trace::Counter::ForbiddenProbes, probes);
                    r.merge(tid, &local);
                }
            }
        });
    });
}

/// Rebuilds the explicit work queue after net-based conflict removal
/// (uncolored vertices in `order`'s processing order).
pub fn collect_uncolored<I: CsrIndex>(
    order: &[u32],
    colors: &Colors,
    pool: &Pool,
    scratch: &mut ThreadScratch<ThreadCtx<I>>,
) -> Vec<u32> {
    let scratch_ref: &ThreadScratch<ThreadCtx<I>> = scratch;
    pool.for_static(order.len(), |tid, range| {
        par::faults::fire("d2gc.conflict", tid);
        scratch_ref.with(tid, |ctx| {
            debug_assert!(ctx.local_queue.is_empty());
            for &u in &order[range] {
                if colors.get(u as usize) == UNCOLORED {
                    ctx.local_queue.push(u);
                }
            }
        });
    });
    crate::workqueue::merge_local_queues(scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_d2gc;
    use sparse::Csr;

    fn scratch(t: usize) -> ThreadScratch<ThreadCtx> {
        ThreadScratch::new(t, |_| ThreadCtx::new(32))
    }

    fn run_until_valid(g: &Graph, pool: &Pool) -> Vec<i32> {
        let colors = Colors::new(g.n_vertices());
        let mut sc = scratch(pool.threads());
        let order: Vec<u32> = (0..g.n_vertices() as u32).collect();
        let mut rounds = 0;
        loop {
            color_workqueue_net(g, &colors, pool, Sched::Dynamic, Balance::Unbalanced, &sc);
            remove_conflicts_net(g, &colors, pool, Sched::Dynamic, &sc);
            let w = collect_uncolored(&order, &colors, pool, &mut sc);
            if w.is_empty() {
                break;
            }
            rounds += 1;
            assert!(rounds < 100, "no convergence");
        }
        colors.snapshot()
    }

    #[test]
    fn star_graph_single_thread() {
        let g = Graph::from_symmetric_matrix(&Csr::from_rows(
            5,
            &[vec![1, 2, 3, 4], vec![0], vec![0], vec![0], vec![0]],
        ));
        let colors = run_until_valid(&g, &Pool::new(1));
        verify_d2gc(&g, &colors).unwrap();
        assert_eq!(crate::metrics::count_distinct_colors(&colors), 5);
    }

    #[test]
    fn mesh_parallel() {
        let m = sparse::gen::grid2d(8, 8, 1);
        let g = Graph::from_symmetric_matrix(&m);
        let colors = run_until_valid(&g, &Pool::new(4));
        verify_d2gc(&g, &colors).unwrap();
    }

    #[test]
    fn reverse_cursor_starts_at_degree() {
        // isolated clique {0,1,2} via triangle: nbor sizes 2, start col 2,
        // three vertices colored 2,1,0 by one net pass.
        let g = Graph::from_symmetric_matrix(&Csr::from_rows(
            3,
            &[vec![1, 2], vec![0, 2], vec![0, 1]],
        ));
        let colors = Colors::new(3);
        let pool = Pool::new(1);
        let sc = scratch(1);
        color_workqueue_net(&g, &colors, &pool, Sched::Dynamic, Balance::Unbalanced, &sc);
        let mut got = colors.snapshot();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn conflict_removal_seeds_middle_color() {
        // 0 - 1 edge, both colored 4: scanning v=0 seeds c[0]=4 then
        // uncolors u=1.
        let g = Graph::from_symmetric_matrix(&Csr::from_rows(2, &[vec![1], vec![0]]));
        let colors = Colors::new(2);
        colors.set(0, 4);
        colors.set(1, 4);
        let pool = Pool::new(1);
        let sc = scratch(1);
        remove_conflicts_net(&g, &colors, &pool, Sched::Dynamic, &sc);
        let snap = colors.snapshot();
        // exactly one survivor
        assert_eq!(snap.iter().filter(|&&c| c == 4).count(), 1);
        assert_eq!(snap.iter().filter(|&&c| c == UNCOLORED).count(), 1);
    }

    #[test]
    fn balanced_net_d2gc_converges_via_vertex_phase() {
        // Same pattern as the paper's N1-N2 + balance usage: one balanced
        // net round, then vertex rounds to convergence (balanced net
        // coloring is not meant to be looped on its own).
        let m = sparse::gen::erdos_renyi(40, 90, 13);
        let g = Graph::from_symmetric_matrix(&m);
        for balance in [Balance::B1, Balance::B2] {
            let pool = Pool::new(2);
            let colors = Colors::new(g.n_vertices());
            let mut sc = scratch(2);
            let order: Vec<u32> = (0..g.n_vertices() as u32).collect();
            color_workqueue_net(&g, &colors, &pool, Sched::Stealing, balance, &sc);
            remove_conflicts_net(&g, &colors, &pool, Sched::Stealing, &sc);
            let mut w = collect_uncolored(&order, &colors, &pool, &mut sc);
            let mut rounds = 0;
            while !w.is_empty() {
                crate::d2gc::vertex::color_workqueue_vertex(
                    &g, &w, &colors, &pool, 4, Sched::Stealing, balance, &sc,
                );
                w = crate::d2gc::vertex::remove_conflicts_vertex(
                    &g, &w, &colors, &pool, 4, Sched::Stealing, None, &mut sc,
                );
                rounds += 1;
                assert!(rounds < 100);
            }
            verify_d2gc(&g, &colors.snapshot()).unwrap();
        }
    }
}
