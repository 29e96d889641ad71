//! Distance-2 graph coloring (paper §IV).
//!
//! D2GC reuses the BGPC machinery with one twist: the input is a unipartite
//! graph, so each vertex plays both roles — it is a colored vertex *and*
//! the "net" formed by its closed neighborhood. The net-based kernels
//! therefore start by processing the middle vertex's own color before its
//! adjacency list (Algorithms 9 and 10), and the reverse first-fit cursor
//! starts at `|nbor(v)|` instead of `|vtxs(v)| − 1` since the thread colors
//! up to `|nbor(v)| + 1` vertices per net.

pub mod net;
pub mod runner;
pub mod vertex;

pub use runner::{color_d2gc, color_d2gc_with_opts, try_color_d2gc};
