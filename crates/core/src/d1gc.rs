//! Distance-1 graph coloring — the background problem (paper §II).
//!
//! D1GC is where the speculative color/detect/repair framework
//! (Algorithms 1–3) was born; the paper generalizes it to BGPC and D2GC.
//! Provided here both for completeness and because it is the cheapest
//! sanity check of the framework: a sequential pass needs `Δ + 1` colors
//! at most, and the parallel variant must converge to a coloring that a
//! distance-1 verifier accepts.

use graph::Graph;
use par::{Pool, ThreadScratch};

use crate::ctx::ThreadCtx;
use crate::metrics::count_distinct_colors;
use crate::workqueue::merge_local_queues;
use crate::{Balance, Color, Colors, StampSet, UNCOLORED};

/// Sequential greedy first-fit D1GC. Uses at most `Δ + 1` colors.
pub fn color_d1gc_seq(g: &Graph, order: &[u32]) -> (Vec<Color>, usize) {
    let mut colors = vec![UNCOLORED; g.n_vertices()];
    let mut fb = StampSet::with_capacity(g.max_degree() + 1);
    for &w in order {
        let wu = w as usize;
        fb.advance();
        for &u in g.nbor(wu) {
            let cu = colors[u as usize];
            if cu != UNCOLORED {
                fb.insert(cu);
            }
        }
        colors[wu] = fb.first_fit_from(0);
    }
    let k = count_distinct_colors(&colors);
    (colors, k)
}

/// Parallel speculative D1GC (Algorithms 1–3 verbatim): optimistic
/// coloring, then id-ordered conflict detection, iterated to fixpoint.
pub fn color_d1gc(
    g: &Graph,
    order: &[u32],
    pool: &Pool,
    chunk: usize,
    balance: Balance,
) -> (Vec<Color>, usize) {
    let n = g.n_vertices();
    let colors = Colors::new(n);
    let mut scratch =
        ThreadScratch::new(pool.threads(), |_| ThreadCtx::new(g.max_degree() + 16));
    let mut w: Vec<u32> = order.to_vec();
    let mut guard = 0usize;
    while !w.is_empty() {
        // Color the queue.
        let scratch_ref: &ThreadScratch<ThreadCtx> = &scratch;
        pool.for_dynamic(w.len(), chunk, |tid, range| {
            scratch_ref.with(tid, |ctx| {
                for &wv in &w[range] {
                    let wu = wv as usize;
                    ctx.fb.advance();
                    for &u in g.nbor(wu) {
                        let cu = colors.get(u as usize);
                        if cu != UNCOLORED {
                            ctx.fb.insert(cu);
                        }
                    }
                    let col = balance.pick(wv, &ctx.fb, &mut ctx.balancer);
                    colors.set(wu, col);
                }
            });
        });
        // Detect conflicts: larger id loses.
        pool.for_dynamic(w.len(), chunk, |tid, range| {
            scratch_ref.with(tid, |ctx| {
                for &wv in &w[range] {
                    let wu = wv as usize;
                    let cw = colors.get(wu);
                    for &u in g.nbor(wu) {
                        if u < wv && colors.get(u as usize) == cw {
                            ctx.local_queue.push(wv);
                            break;
                        }
                    }
                }
            });
        });
        w = merge_local_queues(&mut scratch);
        guard += 1;
        assert!(guard <= 256, "D1GC failed to converge");
    }
    let colors = colors.snapshot();
    let k = count_distinct_colors(&colors);
    (colors, k)
}

/// Checks distance-1 validity: adjacent vertices differ, all colored.
pub fn verify_d1gc(g: &Graph, colors: &[Color]) -> Result<(), String> {
    if colors.len() != g.n_vertices() {
        return Err("color array length mismatch".into());
    }
    for (u, &c) in colors.iter().enumerate() {
        if c < 0 {
            return Err(format!("vertex {u} uncolored"));
        }
        for &v in g.nbor(u) {
            if colors[v as usize] == c {
                return Err(format!("edge ({u}, {v}) monochromatic with color {c}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::Ordering;
    use sparse::Csr;

    fn petersen_like() -> Graph {
        Graph::from_symmetric_matrix(&sparse::gen::erdos_renyi(40, 100, 77))
    }

    #[test]
    fn sequential_within_delta_plus_one() {
        let g = petersen_like();
        let order = Ordering::Natural.vertex_order_d2(&g);
        let (colors, k) = color_d1gc_seq(&g, &order);
        verify_d1gc(&g, &colors).unwrap();
        assert!(k <= g.max_degree() + 1, "greedy bound violated: {k}");
    }

    #[test]
    fn parallel_matches_validity_and_bound_single_thread() {
        let g = petersen_like();
        let order = Ordering::Natural.vertex_order_d2(&g);
        let pool = Pool::new(1);
        let (colors, k) = color_d1gc(&g, &order, &pool, 16, Balance::Unbalanced);
        let (seq_colors, seq_k) = color_d1gc_seq(&g, &order);
        assert_eq!(colors, seq_colors, "1 thread == sequential");
        assert_eq!(k, seq_k);
    }

    #[test]
    fn parallel_converges_multithreaded() {
        let g = petersen_like();
        let order = Ordering::Natural.vertex_order_d2(&g);
        let pool = Pool::new(4);
        let (colors, k) = color_d1gc(&g, &order, &pool, 4, Balance::Unbalanced);
        verify_d1gc(&g, &colors).unwrap();
        assert!(k >= 2);
    }

    #[test]
    fn balanced_d1gc_valid() {
        let g = petersen_like();
        let order = Ordering::Natural.vertex_order_d2(&g);
        let pool = Pool::new(3);
        for balance in [Balance::B1, Balance::B2] {
            let (colors, _) = color_d1gc(&g, &order, &pool, 8, balance);
            verify_d1gc(&g, &colors).unwrap();
        }
    }

    #[test]
    fn bipartite_double_star_needs_two_colors() {
        // Two hubs joined by an edge, leaves attached: 2-colorable.
        let g = Graph::from_symmetric_matrix(&Csr::from_rows(
            6,
            &[
                vec![1, 2, 3],
                vec![0, 4, 5],
                vec![0],
                vec![0],
                vec![1],
                vec![1],
            ],
        ));
        let (colors, k) = color_d1gc_seq(&g, &(0..6).collect::<Vec<u32>>());
        verify_d1gc(&g, &colors).unwrap();
        assert_eq!(k, 2);
    }

    #[test]
    fn verifier_rejects_monochromatic_edge() {
        let g = Graph::from_symmetric_matrix(&Csr::from_rows(2, &[vec![1], vec![0]]));
        assert!(verify_d1gc(&g, &[0, 0]).is_err());
        assert!(verify_d1gc(&g, &[0, 1]).is_ok());
        assert!(verify_d1gc(&g, &[0, -1]).is_err());
    }

    #[test]
    fn d1_uses_fewer_colors_than_d2() {
        let g = Graph::from_symmetric_matrix(&sparse::gen::grid2d(10, 10, 1));
        let order = Ordering::Natural.vertex_order_d2(&g);
        let (_, k1) = color_d1gc_seq(&g, &order);
        let (_, k2) = crate::seq::color_d2gc_seq(&g, &order);
        assert!(k1 < k2, "distance-1 ({k1}) must need fewer than distance-2 ({k2})");
    }
}
