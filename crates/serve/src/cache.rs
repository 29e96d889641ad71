//! Crash-safe, content-addressed result cache.
//!
//! Each completed (non-degraded) coloring is persisted under
//! `<cache_dir>/<fingerprint-hex>.bgpcres` so a restarted daemon answers
//! repeat jobs without recomputing. The store survives being killed at
//! any instruction:
//!
//! * **Write-temp-then-rename**: entries are written to
//!   `.tmp-<pid>-<seq>`, `sync_all`ed, then renamed into place. A crash
//!   mid-write leaves only a tmp file (swept on the next open), never a
//!   half-written entry under a valid name.
//! * **Checksum trailer**: every entry ends in a 64-bit FNV-1a of
//!   everything before it (same [`sparse::bin_io::Fnv1a`] as the graph
//!   format). Torn renames, bit flips and truncations are detected on
//!   read; a corrupt entry is deleted and the job recomputed — the cache
//!   can serve a stale miss, never a wrong coloring.
//! * **Fingerprint echo**: the entry body repeats the 128-bit key so a
//!   mis-renamed or cross-linked file cannot satisfy the wrong job.
//!
//! The `serve.cache.write_abort` fail point ([`par::faults`]) aborts a
//! store between the tmp write and the rename — exactly the window a
//! `kill -9` hits — so the crash-consistency property is exercised
//! in-process by `servecov` as well as by the verify-script kill test.
//!
//! ## Entry layout (`BGPCRES2`)
//!
//! ```text
//! magic        8 bytes  b"BGPCRES2"
//! version      4 bytes  u32 LE = 2
//! fingerprint 16 bytes  u128 LE — must match the file stem
//! num_colors   4 bytes  u32 LE
//! config_len   4 bytes  u32 LE — UTF-8 bytes of the config description
//! config       config_len bytes — the config the coloring was computed
//!              with (engine `describe()` syntax), so cached fingerprints
//!              record the chosen configuration
//! n            8 bytes  u64 LE — vertex count
//! colors       n*4      i32 LE each
//! checksum     8 bytes  u64 LE — FNV-1a 64 of all preceding bytes
//! ```
//!
//! Entries in the retired `BGPCRES1` layout fail the magic check and are
//! treated exactly like corruption: removed on read, recomputed, and
//! re-stored in the current format — the cache self-heals across the
//! format bump.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use sparse::bin_io::Fnv1a;

use crate::fingerprint::fingerprint_hex;

const ENTRY_MAGIC: [u8; 8] = *b"BGPCRES2";
const ENTRY_VERSION: u32 = 2;
const ENTRY_EXT: &str = "bgpcres";

/// A cached coloring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedColoring {
    /// Number of distinct colors.
    pub num_colors: u32,
    /// Config the coloring was computed with (engine `describe()` syntax,
    /// or a `schedule=<name>` stub for explicit-schedule jobs).
    pub config: String,
    /// Color per vertex.
    pub colors: Vec<i32>,
}

/// Content-addressed on-disk store of colorings.
pub struct ResultCache {
    dir: PathBuf,
    seq: AtomicU64,
}

impl ResultCache {
    /// Opens (creating if needed) the store at `dir` and sweeps any
    /// `.tmp-*` leftovers from earlier crashed writers.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<ResultCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        if let Ok(entries) = fs::read_dir(&dir) {
            for e in entries.flatten() {
                let name = e.file_name();
                if name.to_string_lossy().starts_with(".tmp-") {
                    let _ = fs::remove_file(e.path());
                }
            }
        }
        Ok(ResultCache { dir, seq: AtomicU64::new(0) })
    }

    /// Store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, fp: u128) -> PathBuf {
        self.dir.join(format!("{}.{ENTRY_EXT}", fingerprint_hex(fp)))
    }

    /// Looks up `fp`. Returns `None` on miss *or* on a corrupt entry —
    /// corrupt entries are removed so the recomputed result can land
    /// cleanly.
    pub fn get(&self, fp: u128) -> Option<CachedColoring> {
        let path = self.entry_path(fp);
        let bytes = fs::read(&path).ok()?;
        match decode_entry(&bytes, fp) {
            Some(c) => Some(c),
            None => {
                // Detected corruption (crash, bit flip, wrong echo):
                // drop the entry and report a miss.
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Persists `coloring` under `fp` with tmp+fsync+rename discipline.
    ///
    /// The `serve.cache.write_abort` fail point fires between the
    /// durable tmp write and the rename: the store is abandoned exactly
    /// as a crash would abandon it, leaving only a tmp file.
    pub fn put(&self, fp: u128, coloring: &CachedColoring) -> std::io::Result<()> {
        let bytes = encode_entry(fp, coloring);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.seq.fetch_add(1, Ordering::Relaxed)
        ));
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        drop(f);
        if par::faults::consume("serve.cache.write_abort", 0).is_some() {
            return Err(std::io::Error::other(
                "fail point serve.cache.write_abort: store aborted before rename",
            ));
        }
        fs::rename(&tmp, self.entry_path(fp))
    }

    /// Number of committed entries (tmp files excluded).
    pub fn len(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|it| {
                it.flatten()
                    .filter(|e| {
                        e.path().extension().map(|x| x == ENTRY_EXT).unwrap_or(false)
                    })
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the store has no committed entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn encode_entry(fp: u128, c: &CachedColoring) -> Vec<u8> {
    let cfg = c.config.as_bytes();
    let mut out = Vec::with_capacity(52 + cfg.len() + c.colors.len() * 4);
    out.extend_from_slice(&ENTRY_MAGIC);
    out.extend_from_slice(&ENTRY_VERSION.to_le_bytes());
    out.extend_from_slice(&fp.to_le_bytes());
    out.extend_from_slice(&c.num_colors.to_le_bytes());
    out.extend_from_slice(&(cfg.len() as u32).to_le_bytes());
    out.extend_from_slice(cfg);
    out.extend_from_slice(&(c.colors.len() as u64).to_le_bytes());
    for &col in &c.colors {
        out.extend_from_slice(&col.to_le_bytes());
    }
    let mut h = Fnv1a::default();
    h.update(&out);
    out.extend_from_slice(&h.finish().to_le_bytes());
    out
}

fn decode_entry(bytes: &[u8], want_fp: u128) -> Option<CachedColoring> {
    // Fixed header (36) + config + n (8) + trailer (8). A BGPCRES1 entry
    // fails the magic comparison here and is removed by the caller.
    if bytes.len() < 52 || bytes[..8] != ENTRY_MAGIC {
        return None;
    }
    let body = &bytes[..bytes.len() - 8];
    let mut h = Fnv1a::default();
    h.update(body);
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8-byte slice"));
    if h.finish() != stored {
        return None;
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
    if version != ENTRY_VERSION {
        return None;
    }
    let fp = u128::from_le_bytes(bytes[12..28].try_into().expect("16-byte slice"));
    if fp != want_fp {
        return None;
    }
    let num_colors = u32::from_le_bytes(bytes[28..32].try_into().expect("4-byte slice"));
    let cfg_len = u32::from_le_bytes(bytes[32..36].try_into().expect("4-byte slice")) as usize;
    let colors_at = 36usize.checked_add(cfg_len)?.checked_add(8)?;
    if body.len() < colors_at {
        return None;
    }
    let config = String::from_utf8(body[36..36 + cfg_len].to_vec()).ok()?;
    let n = u64::from_le_bytes(
        body[36 + cfg_len..colors_at].try_into().expect("8-byte slice"),
    ) as usize;
    if body.len() != colors_at.checked_add(n.checked_mul(4)?)? {
        return None;
    }
    let colors = body[colors_at..]
        .chunks_exact(4)
        .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Some(CachedColoring { num_colors, config, colors })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fail-point registry is process-global, so every test that
    /// calls [`ResultCache::put`] serializes here — otherwise a parallel
    /// test's store could consume the `write_abort` arming.
    static FAULT_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("serve-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample() -> CachedColoring {
        CachedColoring {
            num_colors: 3,
            config: "schedule=N1-N2 sched=dynamic width=u32 relabel=none".into(),
            colors: vec![0, 1, 2, 0, 1],
        }
    }

    #[test]
    fn put_get_roundtrip() {
        let _g = FAULT_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let cache = ResultCache::open(tmpdir("roundtrip")).unwrap();
        assert!(cache.get(42).is_none());
        cache.put(42, &sample()).unwrap();
        assert_eq!(cache.get(42).unwrap(), sample());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn reopen_preserves_entries() {
        let _g = FAULT_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let dir = tmpdir("reopen");
        ResultCache::open(&dir).unwrap().put(7, &sample()).unwrap();
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.get(7).unwrap(), sample());
    }

    #[test]
    fn every_corruption_is_a_miss_not_a_wrong_answer() {
        let _g = FAULT_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let dir = tmpdir("corrupt");
        let cache = ResultCache::open(&dir).unwrap();
        cache.put(9, &sample()).unwrap();
        let path = cache.entry_path(9);
        let clean = fs::read(&path).unwrap();
        for pos in 0..clean.len() {
            let mut bad = clean.clone();
            bad[pos] ^= 0x10;
            fs::write(&path, &bad).unwrap();
            assert!(cache.get(9).is_none(), "bit flip at byte {pos} served");
            assert!(!path.exists(), "corrupt entry at byte {pos} not removed");
            fs::write(&path, &clean).unwrap();
        }
        for cut in 0..clean.len() {
            fs::write(&path, &clean[..cut]).unwrap();
            assert!(cache.get(9).is_none(), "truncation at {cut} served");
            fs::write(&path, &clean).unwrap();
        }
        assert_eq!(cache.get(9).unwrap(), sample());
    }

    #[test]
    fn legacy_v1_entries_self_heal_as_misses() {
        let _g = FAULT_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let cache = ResultCache::open(tmpdir("v1heal")).unwrap();
        // A well-formed entry in the retired BGPCRES1 layout (no config
        // field), valid checksum included.
        let mut old = Vec::new();
        old.extend_from_slice(b"BGPCRES1");
        old.extend_from_slice(&1u32.to_le_bytes());
        old.extend_from_slice(&3u128.to_le_bytes());
        old.extend_from_slice(&2u32.to_le_bytes());
        old.extend_from_slice(&2u64.to_le_bytes());
        old.extend_from_slice(&0i32.to_le_bytes());
        old.extend_from_slice(&1i32.to_le_bytes());
        let mut h = Fnv1a::default();
        h.update(&old);
        old.extend_from_slice(&h.finish().to_le_bytes());
        fs::write(cache.entry_path(3), &old).unwrap();
        assert!(cache.get(3).is_none(), "v1 entry must decode as a miss");
        assert!(!cache.entry_path(3).exists(), "v1 entry is swept on read");
        // The recomputed result lands cleanly in the new format.
        cache.put(3, &sample()).unwrap();
        assert_eq!(cache.get(3).unwrap(), sample());
    }

    #[test]
    fn entry_under_wrong_name_is_rejected() {
        let _g = FAULT_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let cache = ResultCache::open(tmpdir("wrongname")).unwrap();
        cache.put(1, &sample()).unwrap();
        // Simulate a mis-rename: entry for fp 1 sitting under fp 2's name.
        fs::rename(cache.entry_path(1), cache.entry_path(2)).unwrap();
        assert!(cache.get(2).is_none(), "fingerprint echo must reject");
    }

    #[test]
    fn aborted_store_leaves_no_entry_and_sweep_cleans_tmp() {
        let _g = FAULT_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let dir = tmpdir("abort");
        let cache = ResultCache::open(&dir).unwrap();
        par::faults::arm_with(
            "serve.cache.write_abort",
            par::faults::FaultAction::Panic,
            1,
            None,
        );
        assert!(cache.put(5, &sample()).is_err());
        par::faults::disarm("serve.cache.write_abort");
        assert!(cache.get(5).is_none(), "aborted store must not be visible");
        assert_eq!(cache.len(), 0);
        let tmp_left = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .any(|e| e.file_name().to_string_lossy().starts_with(".tmp-"));
        assert!(tmp_left, "abort fires between tmp write and rename");
        // Restart: the sweep removes the leftover and the store works.
        let cache = ResultCache::open(&dir).unwrap();
        let tmp_left = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .any(|e| e.file_name().to_string_lossy().starts_with(".tmp-"));
        assert!(!tmp_left, "open sweeps stale tmp files");
        cache.put(5, &sample()).unwrap();
        assert_eq!(cache.get(5).unwrap(), sample());
    }
}
