//! Sequential greedy baselines (Table II's "Sequential BGPC" columns).
//!
//! One thread, one pass, first-fit: no speculation, no conflicts, no
//! conflict-removal phase. These are the denominators of every speedup the
//! paper reports.

use graph::{BipartiteGraph, Graph};
use sparse::CsrIndex;

use crate::metrics::count_distinct_colors;
use crate::{Color, StampSet, UNCOLORED};

/// Sequential first-fit BGPC over `order`. Returns the coloring and the
/// number of distinct colors.
pub fn color_bgpc_seq<I: CsrIndex>(g: &BipartiteGraph<I>, order: &[u32]) -> (Vec<Color>, usize) {
    let mut colors = vec![UNCOLORED; g.n_vertices()];
    let mut fb = StampSet::with_capacity(g.max_net_size().max(16));
    for (k, &w) in order.iter().enumerate() {
        if let Some(&next) = order.get(k + crate::vertex::PREFETCH_AHEAD) {
            g.prefetch_nets(next as usize);
        }
        let wu = w as usize;
        fb.advance();
        for &v in g.nets(wu) {
            for &u in g.vtxs(v as usize) {
                if u != w {
                    let cu = colors[u as usize];
                    if cu != UNCOLORED {
                        fb.insert(cu);
                    }
                }
            }
        }
        colors[wu] = fb.first_fit_from(0);
    }
    let k = count_distinct_colors(&colors);
    (colors, k)
}

/// Sequential first-fit D2GC over `order`.
pub fn color_d2gc_seq<I: CsrIndex>(g: &Graph<I>, order: &[u32]) -> (Vec<Color>, usize) {
    let mut colors = vec![UNCOLORED; g.n_vertices()];
    let mut fb = StampSet::with_capacity(g.max_degree() + 16);
    for (k, &w) in order.iter().enumerate() {
        if let Some(&next) = order.get(k + crate::vertex::PREFETCH_AHEAD) {
            g.prefetch_nbor(next as usize);
        }
        let wu = w as usize;
        fb.advance();
        for &u in g.nbor(wu) {
            let cu = colors[u as usize];
            if cu != UNCOLORED {
                fb.insert(cu);
            }
            for &x in g.nbor(u as usize) {
                if x != w {
                    let cx = colors[x as usize];
                    if cx != UNCOLORED {
                        fb.insert(cx);
                    }
                }
            }
        }
        colors[wu] = fb.first_fit_from(0);
    }
    let k = count_distinct_colors(&colors);
    (colors, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_bgpc, verify_d2gc};
    use graph::Ordering;
    use sparse::Csr;

    #[test]
    fn bgpc_single_net_uses_exactly_lower_bound() {
        let g = BipartiteGraph::from_matrix(&Csr::from_rows(4, &[vec![0, 1, 2, 3]]));
        let order: Vec<u32> = (0..4).collect();
        let (colors, k) = color_bgpc_seq(&g, &order);
        verify_bgpc(&g, &colors).unwrap();
        assert_eq!(k, 4);
        assert_eq!(colors, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bgpc_disjoint_nets_reuse_colors() {
        let g = BipartiteGraph::from_matrix(&Csr::from_rows(4, &[vec![0, 1], vec![2, 3]]));
        let (colors, k) = color_bgpc_seq(&g, &[0, 1, 2, 3]);
        verify_bgpc(&g, &colors).unwrap();
        assert_eq!(k, 2);
    }

    #[test]
    fn bgpc_respects_order() {
        let g = BipartiteGraph::from_matrix(&Csr::from_rows(2, &[vec![0, 1]]));
        let (c_fwd, _) = color_bgpc_seq(&g, &[0, 1]);
        let (c_rev, _) = color_bgpc_seq(&g, &[1, 0]);
        assert_eq!(c_fwd, vec![0, 1]);
        assert_eq!(c_rev, vec![1, 0]);
    }

    #[test]
    fn bgpc_on_random_instance_is_valid_and_near_bound() {
        let m = sparse::gen::bipartite_uniform(30, 40, 300, 5);
        let g = BipartiteGraph::from_matrix(&m);
        let order = Ordering::Natural.vertex_order_bgpc(&g);
        let (colors, k) = color_bgpc_seq(&g, &order);
        verify_bgpc(&g, &colors).unwrap();
        assert!(k >= g.max_net_size());
    }

    #[test]
    fn d2gc_path_uses_three_colors() {
        let g = Graph::from_symmetric_matrix(&Csr::from_rows(
            5,
            &[vec![1], vec![0, 2], vec![1, 3], vec![2, 4], vec![3]],
        ));
        let (colors, k) = color_d2gc_seq(&g, &[0, 1, 2, 3, 4]);
        verify_d2gc(&g, &colors).unwrap();
        assert_eq!(k, 3, "a path needs exactly 3 colors at distance 2");
    }

    #[test]
    fn d2gc_star_needs_n_colors() {
        // star: center 0 with 4 leaves; all leaves pairwise at distance 2.
        let g = Graph::from_symmetric_matrix(&Csr::from_rows(
            5,
            &[vec![1, 2, 3, 4], vec![0], vec![0], vec![0], vec![0]],
        ));
        let (colors, k) = color_d2gc_seq(&g, &[0, 1, 2, 3, 4]);
        verify_d2gc(&g, &colors).unwrap();
        assert_eq!(k, 5);
    }

    #[test]
    fn d2gc_on_random_instance_valid_with_bound() {
        let m = sparse::gen::erdos_renyi(50, 120, 9);
        let g = Graph::from_symmetric_matrix(&m);
        let order = Ordering::Natural.vertex_order_d2(&g);
        let (colors, k) = color_d2gc_seq(&g, &order);
        verify_d2gc(&g, &colors).unwrap();
        assert!(k > g.max_degree());
    }
}
