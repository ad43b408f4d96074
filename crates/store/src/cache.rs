//! A persistent, content-addressed **result cache**.
//!
//! The service plane's in-memory dedup index collapses *live* duplicate
//! submissions; this module makes the same content address durable. Once a
//! run completes, its submission digest maps to the finished result forever
//! (until an operator runs `ayb cache gc`): a byte-identical resubmission —
//! after a restart, after the dedup entry dropped, even after the run
//! directory itself was pruned — is answered from here without executing
//! anything.
//!
//! ## Layout
//!
//! ```text
//! <root>/cache/
//!     entries/<digest>.json    # one entry: run id, insert time, hits
//!     results/<digest>.json    # content-addressed copy of the run's result
//! ```
//!
//! An entry *points at* the completed run (`runs/<id>/result.json`), and
//! insertion also copies the result into `results/<digest>.json` — the
//! content-addressed blob is what lets a cache hit outlive store GC of the
//! run directory. [`ResultCache::load_result`] prefers the blob and falls
//! back to the run's own `result.json` when the blob is missing (e.g. an
//! operator deleted it to force re-execution).
//!
//! ## Atomicity
//!
//! There is no lock and no file shared between digests: every operation
//! touches only one digest's entry and blob, each replaced by the store's
//! atomic rename, so a reader observes a whole file or none. The blob is
//! written *before* its entry, so an entry never appears ahead of its
//! result. Two writers of the *same* digest (a hit racing a re-insert, or
//! an insert racing `gc`) are last-writer-wins: at worst a hit goes
//! uncounted, or an entry outlives its blob and is answered from the run's
//! `result.json` or reads as a miss. Callers that need exact hit counts
//! serialise [`ResultCache::record_hit`] themselves, as `ayb-svc` does under
//! its admission mutex. A zero-length or unparsable entry file is a miss:
//! the next insert overwrites it and [`ResultCache::gc`] deletes it.

use crate::{io_error, now_unix, read_json, write_json, Store, StoreError};
use serde::{Deserialize, Serialize, Value};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Directory of per-digest entry files under `<root>/cache/`.
const ENTRIES_DIR: &str = "entries";
/// Directory of content-addressed result blobs under `<root>/cache/`.
const RESULTS_DIR: &str = "results";

/// One cache entry: a completed submission digest and where its result is.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheEntry {
    /// The submission digest, as the fixed-width hex the manifests use.
    pub digest: String,
    /// The completed run whose result this entry points at.
    pub run_id: String,
    /// Insertion time, seconds since the Unix epoch.
    pub inserted_unix: u64,
    /// Times this entry answered a resubmission.
    pub hits: u64,
}

/// What [`ResultCache::gc`] removed and kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheGcReport {
    /// Entry files deleted: aged out, pointing at nothing readable, or torn.
    pub entries_removed: usize,
    /// Entries still live after the sweep.
    pub entries_kept: usize,
    /// Result blobs deleted because no entry points at them any more.
    pub blobs_removed: usize,
}

/// A handle on a store's persistent digest → result cache.
///
/// Cloneable and cheap; all state lives on disk under `<root>/cache/`.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    runs_dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if necessary) the cache of `store`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the cache directories cannot be
    /// created.
    pub fn open(store: &Store) -> Result<ResultCache, StoreError> {
        let dir = store.root().join("cache");
        for sub in [ENTRIES_DIR, RESULTS_DIR] {
            let path = dir.join(sub);
            fs::create_dir_all(&path).map_err(|e| io_error(&path, e))?;
        }
        Ok(ResultCache {
            dir,
            runs_dir: store.root().join("runs"),
        })
    }

    fn entry_path(&self, digest: &str) -> PathBuf {
        self.dir.join(ENTRIES_DIR).join(format!("{digest}.json"))
    }

    fn blob_path(&self, digest: &str) -> PathBuf {
        self.dir.join(RESULTS_DIR).join(format!("{digest}.json"))
    }

    fn run_result_path(&self, run_id: &str) -> PathBuf {
        self.runs_dir.join(run_id).join(crate::RESULT_FILE)
    }

    /// Whether `digest` looks like a manifest digest (16 hex chars) — the
    /// guard that keeps entry and blob paths inside `cache/`.
    fn valid_digest(digest: &str) -> bool {
        digest.len() == 16 && digest.chars().all(|c| c.is_ascii_hexdigit())
    }

    /// Records `digest` → the completed run `run_id`, copying `result` into
    /// the content-addressed blob. Re-inserting an existing digest updates
    /// the pointer but keeps the hit count.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Json`] for an invalid digest and IO failures
    /// from writing the blob or the entry.
    pub fn insert<T: Serialize + ?Sized>(
        &self,
        digest: &str,
        run_id: &str,
        result: &T,
    ) -> Result<(), StoreError> {
        if !Self::valid_digest(digest) {
            return Err(StoreError::Json {
                path: self.dir.join(ENTRIES_DIR),
                message: format!("invalid cache digest `{digest}`"),
            });
        }
        // Blob first, entry second: an entry never precedes its result.
        write_json(&self.blob_path(digest), result)?;
        let entry = CacheEntry {
            digest: digest.to_string(),
            run_id: run_id.to_string(),
            inserted_unix: now_unix(),
            hits: self.lookup(digest)?.map_or(0, |e| e.hits),
        };
        write_json(&self.entry_path(digest), &entry)
    }

    /// Looks up `digest`, returning its entry when present. An invalid
    /// digest and a missing, unreadable or torn entry file are all `None`,
    /// never an error: a forgotten entry only costs a re-execution.
    pub fn lookup(&self, digest: &str) -> Result<Option<CacheEntry>, StoreError> {
        if !Self::valid_digest(digest) {
            return Ok(None);
        }
        let entry = read_json::<CacheEntry>(&self.entry_path(digest)).ok();
        Ok(entry.filter(|entry| entry.digest == digest))
    }

    /// Whether the result of `entry` is on disk, as its blob or as the
    /// run's own `result.json`: an existence check that parses nothing.
    pub fn has_result(&self, entry: &CacheEntry) -> bool {
        Self::valid_digest(&entry.digest)
            && (self.blob_path(&entry.digest).is_file()
                || self.run_result_path(&entry.run_id).is_file())
    }

    /// The digests named by `entries/*.json`, torn files included.
    fn entry_digests(&self) -> Result<Vec<String>, StoreError> {
        let dir = self.dir.join(ENTRIES_DIR);
        let listing = fs::read_dir(&dir).map_err(|e| io_error(&dir, e))?;
        Ok(listing
            .flatten()
            .filter_map(|file| {
                let name = file.file_name().into_string().ok()?;
                let digest = name.strip_suffix(".json")?;
                Self::valid_digest(digest).then(|| digest.to_string())
            })
            .collect())
    }

    /// How many entry files the cache holds: a directory listing, no parse.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the entries directory cannot be
    /// listed.
    pub fn entry_count(&self) -> Result<usize, StoreError> {
        Ok(self.entry_digests()?.len())
    }

    /// All readable entries, oldest insertion first.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the entries directory cannot be
    /// listed.
    pub fn entries(&self) -> Result<Vec<CacheEntry>, StoreError> {
        let mut entries = Vec::new();
        for digest in self.entry_digests()? {
            entries.extend(self.lookup(&digest)?);
        }
        entries.sort_by(|a, b| (a.inserted_unix, &a.digest).cmp(&(b.inserted_unix, &b.digest)));
        Ok(entries)
    }

    /// The entry (if any) whose result came from `run_id`. Reads every
    /// entry: meant for runs whose directory is gone, not for admission.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the entries directory cannot be
    /// listed.
    pub fn find_by_run(&self, run_id: &str) -> Result<Option<CacheEntry>, StoreError> {
        Ok(self.entries()?.into_iter().find(|e| e.run_id == run_id))
    }

    /// Bumps the hit counter of `digest` (a no-op for unknown digests).
    ///
    /// # Errors
    ///
    /// Returns IO errors from rewriting the entry.
    pub fn record_hit(&self, digest: &str) -> Result<(), StoreError> {
        let Some(mut entry) = self.lookup(digest)? else {
            return Ok(());
        };
        entry.hits += 1;
        write_json(&self.entry_path(digest), &entry)
    }

    /// Loads the cached result of `digest`: the content-addressed blob when
    /// present, else the pointed-at run's own `result.json`. `None` when the
    /// digest has no entry or neither file is readable (a stale entry —
    /// `gc` removes those); never an error.
    pub fn load_result(&self, digest: &str) -> Result<Option<Value>, StoreError> {
        let Some(entry) = self.lookup(digest)? else {
            return Ok(None);
        };
        if let Ok(value) = read_json::<Value>(&self.blob_path(digest)) {
            return Ok(Some(value));
        }
        Ok(read_json::<Value>(&self.run_result_path(&entry.run_id)).ok())
    }

    /// Deletes the entry of `digest` and its blob. Returns whether an entry
    /// file existed.
    ///
    /// # Errors
    ///
    /// Returns IO errors from deleting the entry file; blob deletion is
    /// best-effort.
    pub fn remove(&self, digest: &str) -> Result<bool, StoreError> {
        let removed = Self::valid_digest(digest) && remove_file(&self.entry_path(digest))?;
        if removed {
            let _ = fs::remove_file(self.blob_path(digest));
        }
        Ok(removed)
    }

    /// Sweeps the cache: deletes entries older than `max_age` (when given),
    /// entries whose result is readable from *neither* the blob nor the run
    /// directory, and torn entry files; then deletes blobs no entry points
    /// at.
    ///
    /// # Errors
    ///
    /// Returns IO errors from listing or deleting entry files; blob
    /// deletions are best-effort.
    pub fn gc(&self, max_age: Option<Duration>) -> Result<CacheGcReport, StoreError> {
        let now = now_unix();
        let mut report = CacheGcReport::default();
        for digest in self.entry_digests()? {
            let keep = self.lookup(&digest)?.is_some_and(|entry| {
                let aged_out = max_age
                    .is_some_and(|age| now.saturating_sub(entry.inserted_unix) > age.as_secs());
                !aged_out && self.has_result(&entry)
            });
            if keep {
                report.entries_kept += 1;
            } else if remove_file(&self.entry_path(&digest))? {
                report.entries_removed += 1;
            }
        }
        // Orphan blobs: results/<digest>.json with no entry file.
        let results = self.dir.join(RESULTS_DIR);
        if let Ok(listing) = fs::read_dir(&results) {
            for file in listing.flatten() {
                let name = file.file_name();
                let Some(digest) = name.to_str().and_then(|n| n.strip_suffix(".json")) else {
                    continue;
                };
                if !self.entry_path(digest).exists() && fs::remove_file(file.path()).is_ok() {
                    report.blobs_removed += 1;
                }
            }
        }
        Ok(report)
    }
}

/// Deletes `path`; `Ok(false)` when it was already gone.
fn remove_file(path: &Path) -> Result<bool, StoreError> {
    match fs::remove_file(path) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(io_error(path, e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(label: &str) -> (PathBuf, Store) {
        let root = std::env::temp_dir().join(format!(
            "ayb-cache-{label}-{}-{}",
            std::process::id(),
            now_unix()
        ));
        let store = Store::open(&root).expect("store opens");
        (root, store)
    }

    fn cleanup(root: &Path) {
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn insert_lookup_and_hits_round_trip() {
        let (root, store) = temp_store("roundtrip");
        let cache = ResultCache::open(&store).unwrap();
        let digest = "00deadbeef001234";
        assert!(cache.lookup(digest).unwrap().is_none());

        cache
            .insert(digest, "run-0001", &Value::Str("payload".to_string()))
            .unwrap();
        let entry = cache.lookup(digest).unwrap().expect("entry present");
        assert_eq!(entry.run_id, "run-0001");
        assert_eq!(entry.hits, 0);

        cache.record_hit(digest).unwrap();
        cache.record_hit(digest).unwrap();
        assert_eq!(cache.lookup(digest).unwrap().unwrap().hits, 2);
        assert_eq!(
            cache.load_result(digest).unwrap(),
            Some(Value::Str("payload".to_string()))
        );
        assert_eq!(
            cache.find_by_run("run-0001").unwrap().unwrap().digest,
            digest
        );
        cleanup(&root);
    }

    #[test]
    fn results_survive_reopen_and_run_dir_removal() {
        let (root, store) = temp_store("survive");
        let digest = "aaaabbbbccccdddd";
        {
            let cache = ResultCache::open(&store).unwrap();
            cache.insert(digest, "run-gone", &42u64.to_value()).unwrap();
        }
        // A fresh handle (fresh process, conceptually) still sees the entry,
        // and the result loads even though `runs/run-gone` never existed.
        let cache = ResultCache::open(&store).unwrap();
        assert!(cache.lookup(digest).unwrap().is_some());
        let expected: Value = serde_json::from_str("42").unwrap();
        assert_eq!(cache.load_result(digest).unwrap(), Some(expected));
        cleanup(&root);
    }

    #[test]
    fn invalid_digests_are_rejected() {
        let (root, store) = temp_store("invalid");
        let cache = ResultCache::open(&store).unwrap();
        // What `cache/entries/../../etc/passwd.json` (and the blob path of
        // the same digest) would resolve to: a well-formed entry that any
        // path-building call would read, bump, overwrite or delete.
        let victim = root.join("etc").join("passwd.json");
        fs::create_dir_all(victim.parent().unwrap()).unwrap();
        let planted = "{\"digest\": \"../../etc/passwd\", \"run_id\": \"run-0001\", \
                       \"inserted_unix\": 0, \"hits\": 0}";
        fs::write(&victim, planted).unwrap();

        for bad in ["", "short", "../../etc/passwd", "zzzzzzzzzzzzzzzz"] {
            assert!(cache.insert(bad, "run-0001", &1u64.to_value()).is_err());
            assert_eq!(cache.lookup(bad).unwrap(), None, "{bad:?}");
            assert_eq!(cache.load_result(bad).unwrap(), None, "{bad:?}");
            cache.record_hit(bad).unwrap();
            assert!(!cache.remove(bad).unwrap(), "{bad:?}");
        }
        assert_eq!(fs::read_to_string(&victim).unwrap(), planted);
        for sub in [ENTRIES_DIR, RESULTS_DIR] {
            let files = fs::read_dir(root.join("cache").join(sub)).unwrap().count();
            assert_eq!(files, 0, "nothing written under cache/{sub}");
        }
        cleanup(&root);
    }

    #[test]
    fn gc_drops_aged_and_unreadable_entries_and_orphan_blobs() {
        let (root, store) = temp_store("gc");
        let cache = ResultCache::open(&store).unwrap();
        cache
            .insert("1111111111111111", "run-0001", &1u64.to_value())
            .unwrap();
        cache
            .insert("2222222222222222", "run-0002", &2u64.to_value())
            .unwrap();
        // Entry 2's blob vanishes and its run never existed → unreadable.
        fs::remove_file(cache.blob_path("2222222222222222")).unwrap();
        // An orphan blob no entry points at.
        fs::write(root.join("cache/results/3333333333333333.json"), "3").unwrap();

        let report = cache.gc(None).unwrap();
        assert_eq!(report.entries_kept, 1);
        assert_eq!(report.entries_removed, 1);
        assert_eq!(report.blobs_removed, 1); // the orphan
        assert!(cache.lookup("1111111111111111").unwrap().is_some());
        assert!(cache.lookup("2222222222222222").unwrap().is_none());

        // Age-based sweep: back-date the surviving entry's file by an hour.
        let mut entry = cache.lookup("1111111111111111").unwrap().unwrap();
        entry.inserted_unix = entry.inserted_unix.saturating_sub(3600);
        write_json(&cache.entry_path("1111111111111111"), &entry).unwrap();
        let report = cache.gc(Some(Duration::from_secs(60))).unwrap();
        assert_eq!(report.entries_removed, 1);
        assert_eq!(report.entries_kept, 0);
        cleanup(&root);
    }
}
