//! Host stamps recorded with every run.

use std::path::Path;

pub struct Host {
    pub nproc: usize,
    /// Coloring threads the workload asks for.
    pub requested_threads: usize,
    /// Pool workers actually spawned (per pool; shard workers summed).
    pub spawned_workers: usize,
    pub isa: &'static str,
    pub git_sha: String,
}

impl Host {
    pub fn new(requested_threads: usize, spawned_workers: usize) -> Host {
        Host {
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            requested_threads,
            spawned_workers,
            isa: bgpc::simd::isa_features(),
            git_sha: git_sha(Path::new(".")),
        }
    }

    /// More coloring threads than cores: the run is not comparable.
    pub fn oversubscribed(&self) -> bool {
        self.requested_threads.max(self.spawned_workers) > self.nproc
    }
}

/// HEAD's commit id read straight from `.git` (no subprocess); `unknown`
/// outside a git checkout.
fn git_sha(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(r)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set (`VmHWM`) of this process in MB; each run is one
/// process running one workload, so the peak belongs to that workload.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
