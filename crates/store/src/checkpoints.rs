//! Generation checkpoints: one small snapshot per generation beside one
//! append-only log of the evaluation archive.
//!
//! ```text
//! <root>/runs/<run_id>/checkpoints/
//!     gen_0001.json    # population, RNG state, counters, history,
//!     gen_0002.json    #   plus `archive_len` and `log_bytes`
//!     ...
//!     archive.jsonl    # one line per save: {"start": S, "archive": [...]}
//! ```
//!
//! The optimisers' archive only grows, so a save appends one line holding
//! the evaluations added since the previous save (the line names the
//! archive index it starts at) and then renames a snapshot into place that
//! records how long the archive and the log were at that point. A save
//! therefore writes bytes proportional to one generation's work and never
//! reads or rewrites an earlier one.
//!
//! Loading a snapshot replays the first `log_bytes` bytes of the log: the
//! lines must continue each other (each `start` equals the archive length so
//! far) and end at exactly `archive_len` evaluations. Bytes past `log_bytes`
//! belong to a save that never renamed its snapshot, and are ignored.
//!
//! **Torn files.** The log is appended in place, not renamed, and neither
//! file is fsynced, so a machine crash can leave a zero-length or half
//! written snapshot, or a log shorter than its newest snapshot claims.
//! [`RunHandle::latest_checkpoint`] treats such a snapshot as absent and
//! falls back to the one before it. The first save after a resume truncates
//! the log to the byte length its base snapshot recorded before it appends,
//! so a replayed archive never holds an evaluation twice.
//!
//! **Older stores.** A `gen_NNNN.json` that still carries the whole
//! `archive` loads as it is; the first save on top of one rewrites the log
//! from its start.

use crate::{io_error, json_error, write_atomic, RunHandle, StoreError, CHECKPOINT_DIR};
use ayb_moo::{Checkpoint, Evaluation};
use serde::{Deserialize, Serialize, Value};
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const CHECKPOINT_PREFIX: &str = "gen_";
/// The append-only archive log beside the snapshots.
const ARCHIVE_LOG_FILE: &str = "archive.jsonl";

/// Where a run's archive log stands after a save: the snapshot generation,
/// and the archive and log lengths it recorded.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LogCursor {
    generation: usize,
    archive_len: usize,
    log_bytes: u64,
}

impl LogCursor {
    /// No snapshot to build on: the next save writes the log from its start.
    const START: LogCursor = LogCursor {
        generation: 0,
        archive_len: 0,
        log_bytes: 0,
    };
}

/// What one [`RunHandle::save_checkpoint`] wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SavedCheckpoint {
    /// The snapshot, `checkpoints/gen_NNNN.json`.
    pub path: PathBuf,
    /// Bytes written: the appended log line plus the snapshot.
    pub bytes: u64,
}

/// One line of the archive log.
#[derive(Debug, Deserialize)]
struct ArchiveRecord {
    /// Archive index of the first evaluation on this line.
    start: usize,
    /// The evaluations a save added.
    archive: Vec<Evaluation>,
}

/// Renders one log line (newline included) for `new`, which starts at
/// archive index `start`.
fn record_line(start: usize, new: &[Evaluation]) -> Result<String, serde_json::Error> {
    let record = Value::Object(vec![
        ("start".to_string(), start.to_value()),
        ("archive".to_string(), new.to_value()),
    ]);
    let mut line = serde_json::to_string(&record)?;
    line.push('\n');
    Ok(line)
}

/// The snapshot of `checkpoint`: every field but the archive, plus where
/// the archive log stood.
fn snapshot_value(checkpoint: &Checkpoint, cursor: LogCursor) -> Value {
    let Checkpoint {
        optimizer,
        next_generation,
        rng_state,
        population,
        archive: _,
        history,
        evaluations,
        failed_evaluations,
        stall_generations,
        senses,
    } = checkpoint;
    Value::Object(vec![
        ("optimizer".to_string(), optimizer.to_value()),
        ("next_generation".to_string(), next_generation.to_value()),
        ("rng_state".to_string(), rng_state.to_value()),
        ("population".to_string(), population.to_value()),
        ("history".to_string(), history.to_value()),
        ("evaluations".to_string(), evaluations.to_value()),
        (
            "failed_evaluations".to_string(),
            failed_evaluations.to_value(),
        ),
        (
            "stall_generations".to_string(),
            stall_generations.to_value(),
        ),
        ("senses".to_string(), senses.to_value()),
        ("archive_len".to_string(), cursor.archive_len.to_value()),
        ("log_bytes".to_string(), cursor.log_bytes.to_value()),
    ])
}

/// A parsed `gen_NNNN.json`.
enum Snapshot {
    /// The older layout: the whole checkpoint, archive included.
    Full(Checkpoint),
    /// A snapshot whose archive lives in the log.
    Logged {
        /// The snapshot's fields (archive still to be replayed).
        value: Value,
        archive_len: usize,
        log_bytes: u64,
    },
}

fn read_snapshot(path: &Path) -> Result<Snapshot, StoreError> {
    let text = fs::read_to_string(path).map_err(|e| io_error(path, e))?;
    let value: Value = serde_json::from_str(&text).map_err(|e| json_error(path, e))?;
    if value.get("archive").is_some() {
        return Checkpoint::from_value(&value)
            .map(Snapshot::Full)
            .map_err(|e| json_error(path, e));
    }
    let archive_len = serde::__field(&value, "archive_len")
        .and_then(usize::from_value)
        .map_err(|e| json_error(path, e))?;
    let log_bytes = serde::__field(&value, "log_bytes")
        .and_then(u64::from_value)
        .map_err(|e| json_error(path, e))?;
    Ok(Snapshot::Logged {
        value,
        archive_len,
        log_bytes,
    })
}

/// Replays the first `log_bytes` bytes of the log at `path` into an archive
/// of exactly `archive_len` evaluations. A missing or short log, a torn or
/// unparsable line, or lines that do not continue each other make the
/// snapshot unusable ([`StoreError::Json`]).
fn replay_log(
    path: &Path,
    log_bytes: u64,
    archive_len: usize,
) -> Result<Vec<Evaluation>, StoreError> {
    let unusable = |message: String| Err(json_error(path, message));
    let mut bytes = Vec::new();
    if log_bytes > 0 {
        match fs::File::open(path) {
            Ok(file) => {
                file.take(log_bytes)
                    .read_to_end(&mut bytes)
                    .map_err(|e| io_error(path, e))?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_error(path, e)),
        }
    }
    if (bytes.len() as u64) < log_bytes {
        return unusable(format!(
            "archive log holds {} bytes, the snapshot needs {log_bytes}",
            bytes.len()
        ));
    }
    let Ok(text) = std::str::from_utf8(&bytes) else {
        return unusable("archive log is not UTF-8".to_string());
    };
    if !text.is_empty() && !text.ends_with('\n') {
        return unusable("the snapshot ends inside an archive log line".to_string());
    }
    let mut archive = Vec::new();
    for line in text.lines() {
        let record: ArchiveRecord = serde_json::from_str(line).map_err(|e| json_error(path, e))?;
        if record.start != archive.len() {
            return unusable(format!(
                "archive log line starts at {}, the archive so far holds {}",
                record.start,
                archive.len()
            ));
        }
        archive.extend(record.archive);
    }
    if archive.len() != archive_len {
        return unusable(format!(
            "archive log replays {} evaluations, the snapshot records {archive_len}",
            archive.len()
        ));
    }
    Ok(archive)
}

/// Writes `line` at byte `at` of the log at `path`, cutting off whatever
/// followed `at` first.
fn append_at(path: &Path, at: u64, line: &str) -> Result<(), StoreError> {
    let mut file = fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(path)
        .map_err(|e| io_error(path, e))?;
    let len = file.metadata().map_err(|e| io_error(path, e))?.len();
    if len < at {
        return Err(json_error(
            path,
            format!("archive log holds {len} bytes, the last snapshot recorded {at}"),
        ));
    }
    if len > at {
        file.set_len(at).map_err(|e| io_error(path, e))?;
    }
    file.seek(SeekFrom::Start(at))
        .and_then(|_| file.write_all(line.as_bytes()))
        .map_err(|e| io_error(path, e))
}

impl RunHandle {
    fn checkpoint_path(&self, generation: usize) -> PathBuf {
        self.dir
            .join(CHECKPOINT_DIR)
            .join(format!("{CHECKPOINT_PREFIX}{generation:04}.json"))
    }

    fn archive_log_path(&self) -> PathBuf {
        self.dir.join(CHECKPOINT_DIR).join(ARCHIVE_LOG_FILE)
    }

    /// Persists one checkpoint as two parts:
    ///
    /// ```text
    /// checkpoints/archive.jsonl   the evaluations added since the previous
    ///                             save, appended as one line
    ///                             {"start": S, "archive": [...]}
    /// checkpoints/gen_NNNN.json   everything else (population, RNG state,
    ///                             counters, history) plus the archive and
    ///                             log lengths, renamed into place after
    ///                             the append
    /// ```
    ///
    /// so a save writes bytes proportional to one generation's work.
    /// [`RunHandle::load_checkpoint`] replays the log up to the snapshot's
    /// length; bytes past it belong to a save that never renamed its
    /// snapshot.
    ///
    /// A handle remembers where its last save left the log. The first save
    /// through a handle, or one that does not follow the last (an earlier
    /// generation, a shorter archive), builds on the newest snapshot below
    /// `checkpoint.next_generation` instead: it removes the snapshots after
    /// that one and truncates the log to the length it recorded before
    /// appending. The archive of a save must extend the archive of the
    /// snapshot it builds on, as the optimisers' archives do.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`]/[`StoreError::Json`] on write failures.
    pub fn save_checkpoint(&self, checkpoint: &Checkpoint) -> Result<SavedCheckpoint, StoreError> {
        let mut cursor = self.archive_log.lock().expect("archive log cursor lock");
        let generation = checkpoint.next_generation;
        let base = match *cursor {
            Some(last)
                if last.generation < generation && last.archive_len <= checkpoint.archive.len() =>
            {
                last
            }
            _ => self.rebase(generation, checkpoint.archive.len())?,
        };
        let log = self.archive_log_path();
        let new = &checkpoint.archive[base.archive_len..];
        let mut bytes = 0u64;
        if !new.is_empty() {
            let line = record_line(base.archive_len, new).map_err(|e| json_error(&log, e))?;
            append_at(&log, base.log_bytes, &line)?;
            bytes += line.len() as u64;
        }
        let next = LogCursor {
            generation,
            archive_len: checkpoint.archive.len(),
            log_bytes: base.log_bytes + bytes,
        };
        let path = self.checkpoint_path(generation);
        let text = serde_json::to_string(&snapshot_value(checkpoint, next))
            .map_err(|e| json_error(&path, e))?;
        write_atomic(&path, &text)?;
        *cursor = Some(next);
        bytes += text.len() as u64;
        Ok(SavedCheckpoint { path, bytes })
    }

    /// The base of a save of `generation` (with an archive of `archive_len`)
    /// that does not follow this handle's last one: the newest snapshot
    /// below `generation` whose log still reaches its length and whose
    /// archive is no longer, or the start of the log. Snapshots after the
    /// base describe log bytes the save is about to overwrite, so they are
    /// removed.
    fn rebase(&self, generation: usize, archive_len: usize) -> Result<LogCursor, StoreError> {
        let log_len = fs::metadata(self.archive_log_path()).map_or(0, |m| m.len());
        let generations = self.checkpoint_generations()?;
        let mut base = LogCursor::START;
        for &older in generations.iter().rev().filter(|&&g| g < generation) {
            match read_snapshot(&self.checkpoint_path(older)) {
                Ok(Snapshot::Logged {
                    archive_len: logged,
                    log_bytes,
                    ..
                }) if log_bytes <= log_len && logged <= archive_len => {
                    base = LogCursor {
                        generation: older,
                        archive_len: logged,
                        log_bytes,
                    };
                    break;
                }
                Ok(Snapshot::Full(_)) => {
                    base.generation = older;
                    break;
                }
                Ok(Snapshot::Logged { .. }) | Err(StoreError::Json { .. }) => {}
                Err(error) => return Err(error),
            }
        }
        for &newer in generations.iter().filter(|&&g| g > base.generation) {
            let path = self.checkpoint_path(newer);
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_error(&path, e)),
            }
        }
        Ok(base)
    }

    /// The generation indices of all stored checkpoint snapshots, sorted
    /// ascending. Stale `.tmp` files from a killed writer are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the checkpoint directory cannot be
    /// read.
    pub fn checkpoint_generations(&self) -> Result<Vec<usize>, StoreError> {
        let dir = self.dir.join(CHECKPOINT_DIR);
        if !dir.is_dir() {
            return Ok(Vec::new());
        }
        let entries = fs::read_dir(&dir).map_err(|e| io_error(&dir, e))?;
        let mut generations = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| io_error(&dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name
                .strip_prefix(CHECKPOINT_PREFIX)
                .and_then(|s| s.strip_suffix(".json"))
            else {
                continue;
            };
            if let Ok(generation) = stem.parse::<usize>() {
                generations.push(generation);
            }
        }
        generations.sort_unstable();
        Ok(generations)
    }

    /// Loads the checkpoint of a specific generation, replaying its archive
    /// from the log.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when a file cannot be read, and
    /// [`StoreError::Json`] when the snapshot is torn or malformed or the
    /// log cannot reproduce the archive it records.
    pub fn load_checkpoint(&self, generation: usize) -> Result<Checkpoint, StoreError> {
        let path = self.checkpoint_path(generation);
        let (value, archive_len, log_bytes) = match read_snapshot(&path)? {
            Snapshot::Full(checkpoint) => return Ok(checkpoint),
            Snapshot::Logged {
                value,
                archive_len,
                log_bytes,
            } => (value, archive_len, log_bytes),
        };
        let archive = replay_log(&self.archive_log_path(), log_bytes, archive_len)?;
        let Value::Object(mut fields) = value else {
            return Err(json_error(&path, "snapshot is not an object"));
        };
        fields.push(("archive".to_string(), Value::Array(Vec::new())));
        let mut checkpoint =
            Checkpoint::from_value(&Value::Object(fields)).map_err(|e| json_error(&path, e))?;
        checkpoint.archive = archive;
        Ok(checkpoint)
    }

    /// Loads the newest usable checkpoint, if any. A snapshot that is torn,
    /// zero-length or malformed, or whose log no longer reaches its length
    /// (a machine crash can leave any of these), counts as absent: the
    /// snapshot before it is tried instead.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the checkpoint directory or a file
    /// cannot be read.
    pub fn latest_checkpoint(&self) -> Result<Option<Checkpoint>, StoreError> {
        for &generation in self.checkpoint_generations()?.iter().rev() {
            match self.load_checkpoint(generation) {
                Ok(checkpoint) => return Ok(Some(checkpoint)),
                Err(StoreError::Json { .. }) => {}
                Err(error) => return Err(error),
            }
        }
        Ok(None)
    }

    /// Deletes all but the newest `keep_last` snapshots (resuming only ever
    /// needs the latest one), returning the pruned generation indices. The
    /// archive log stays: the kept snapshots replay from it. `ayb gc` uses
    /// this to bound the disk footprint of completed runs.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the checkpoint directory cannot be
    /// scanned or a file cannot be removed.
    pub fn prune_checkpoints(&self, keep_last: usize) -> Result<Vec<usize>, StoreError> {
        let generations = self.checkpoint_generations()?;
        let cut = generations.len().saturating_sub(keep_last);
        let pruned = &generations[..cut];
        for &generation in pruned {
            let path = self.checkpoint_path(generation);
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_error(&path, e)),
            }
        }
        Ok(pruned.to_vec())
    }

    /// Bytes on disk of the run's `checkpoints/` directory: snapshots,
    /// archive log and variation checkpoints.
    pub fn checkpoint_bytes(&self) -> u64 {
        fs::read_dir(self.dir.join(CHECKPOINT_DIR)).map_or(0, |entries| {
            entries
                .flatten()
                .filter_map(|entry| entry.metadata().ok())
                .filter(fs::Metadata::is_file)
                .map(|metadata| metadata.len())
                .sum()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Store;
    use ayb_moo::{CheckpointIndividual, GaConfig, GenerationStats, OptimizerConfig, Sense};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_run() -> (PathBuf, Store, RunHandle) {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let root = std::env::temp_dir().join(format!(
            "ayb-checkpoints-test-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let store = Store::open(&root).expect("store opens");
        let optimizer = OptimizerConfig::Wbga(GaConfig::small_test());
        let run = store
            .create_run_with_id("run", 7, &optimizer, &"config")
            .expect("run created");
        (root, store, run)
    }

    fn evaluation(index: usize) -> Evaluation {
        let x = index as f64;
        Evaluation::new(vec![x / 7.0, 0.1 + x / 3.0], vec![60.0 - x, 1e6 * x])
    }

    /// A checkpoint after `generation` whose archive holds `archive_len`
    /// evaluations (the same ones for every generation, as an optimiser's
    /// archive only grows).
    fn checkpoint(generation: usize, archive_len: usize) -> Checkpoint {
        Checkpoint {
            optimizer: "wbga".to_string(),
            next_generation: generation,
            rng_state: [generation as u64, 2, 3, u64::MAX],
            population: vec![CheckpointIndividual {
                parameters: vec![0.25, 0.5],
                weight_genes: vec![0.1, 0.9],
                objectives: Some(vec![1.5, -2.25]),
            }],
            archive: (0..archive_len).map(evaluation).collect(),
            history: (0..generation)
                .map(|g| GenerationStats {
                    generation: g,
                    best_fitness: 0.75,
                    mean_fitness: 0.5,
                    feasible: 1,
                })
                .collect(),
            evaluations: archive_len + 1,
            failed_evaluations: 1,
            stall_generations: 0,
            senses: vec![Sense::Maximize, Sense::Minimize],
        }
    }

    fn log_lines(run: &RunHandle) -> Vec<(usize, usize)> {
        fs::read_to_string(run.archive_log_path())
            .unwrap_or_default()
            .lines()
            .map(|line| {
                let record: ArchiveRecord = serde_json::from_str(line).expect("log line parses");
                (record.start, record.archive.len())
            })
            .collect()
    }

    #[test]
    fn a_save_appends_only_the_new_evaluations() {
        let (root, _store, run) = temp_run();
        let first = run.save_checkpoint(&checkpoint(1, 30)).unwrap();
        let snapshot_before = fs::read(&first.path).unwrap();
        let log_before = fs::read(run.archive_log_path()).unwrap();
        assert_eq!(
            first.bytes,
            (snapshot_before.len() + log_before.len()) as u64
        );

        let second = run.save_checkpoint(&checkpoint(2, 42)).unwrap();
        let log_after = fs::read(run.archive_log_path()).unwrap();
        assert_eq!(fs::read(&first.path).unwrap(), snapshot_before);
        assert_eq!(&log_after[..log_before.len()], &log_before[..]);
        let appended = log_after.len() - log_before.len();
        assert_eq!(
            second.bytes,
            (appended + fs::read(&second.path).unwrap().len()) as u64
        );
        // Exactly one line, holding exactly generation 2's 12 evaluations.
        assert_eq!(log_lines(&run), vec![(0, 30), (30, 12)]);
        let line = std::str::from_utf8(&log_after[log_before.len()..]).unwrap();
        let record: ArchiveRecord = serde_json::from_str(line.trim_end()).unwrap();
        assert_eq!(record.archive, checkpoint(2, 42).archive[30..]);
        // No evaluation is written into a snapshot.
        let snapshot = fs::read_to_string(&second.path).unwrap();
        assert!(!snapshot.contains("\"archive\""), "{snapshot}");

        assert_eq!(run.load_checkpoint(1).unwrap(), checkpoint(1, 30));
        assert_eq!(run.load_checkpoint(2).unwrap(), checkpoint(2, 42));
        assert_eq!(run.latest_checkpoint().unwrap(), Some(checkpoint(2, 42)));
        assert_eq!(
            run.checkpoint_bytes(),
            (log_after.len() + snapshot_before.len() + snapshot.len()) as u64
        );
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn unusable_snapshots_fall_back_to_the_one_before() {
        let (root, _store, run) = temp_run();
        for (generation, archive_len) in [(1, 10), (2, 20), (3, 30)] {
            run.save_checkpoint(&checkpoint(generation, archive_len))
                .unwrap();
        }
        // A log that lost its tail in a crash cannot reach generation 3.
        let log = run.archive_log_path();
        let len = fs::metadata(&log).unwrap().len();
        fs::OpenOptions::new()
            .write(true)
            .open(&log)
            .unwrap()
            .set_len(len - 4)
            .unwrap();
        assert!(matches!(
            run.load_checkpoint(3),
            Err(StoreError::Json { .. })
        ));
        assert_eq!(run.latest_checkpoint().unwrap(), Some(checkpoint(2, 20)));
        // A zero-length snapshot counts as absent too...
        fs::write(run.checkpoint_path(2), "").unwrap();
        assert_eq!(run.latest_checkpoint().unwrap(), Some(checkpoint(1, 10)));
        // ...and with no usable snapshot the run starts afresh.
        fs::write(run.checkpoint_path(1), "{\"optimizer\": \"wb").unwrap();
        assert_eq!(run.latest_checkpoint().unwrap(), None);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn a_resumed_save_truncates_the_log_to_its_base() {
        let (root, store, run) = temp_run();
        for (generation, archive_len) in [(1, 10), (2, 20), (3, 30)] {
            run.save_checkpoint(&checkpoint(generation, archive_len))
                .unwrap();
        }
        let complete = fs::read(run.archive_log_path()).unwrap();
        // Killed between the log append and the snapshot rename: generation
        // 3's line is in the log, its snapshot is not.
        fs::remove_file(run.checkpoint_path(3)).unwrap();

        let resumed = store.run("run").unwrap();
        let base = resumed.latest_checkpoint().unwrap().expect("generation 2");
        assert_eq!(base, checkpoint(2, 20));
        resumed.save_checkpoint(&checkpoint(3, 30)).unwrap();
        assert_eq!(fs::read(run.archive_log_path()).unwrap(), complete);
        assert_eq!(log_lines(&run), vec![(0, 10), (10, 10), (20, 10)]);
        assert_eq!(
            resumed.latest_checkpoint().unwrap(),
            Some(checkpoint(3, 30))
        );

        // Resuming from an older snapshot drops the newer ones: their log
        // bytes are rewritten.
        let again = store.run("run").unwrap();
        again.save_checkpoint(&checkpoint(2, 25)).unwrap();
        assert_eq!(again.checkpoint_generations().unwrap(), vec![1, 2]);
        assert_eq!(log_lines(&run), vec![(0, 10), (10, 15)]);
        assert_eq!(again.latest_checkpoint().unwrap(), Some(checkpoint(2, 25)));

        // An archive shorter than every snapshot's rewrites the log.
        again.save_checkpoint(&checkpoint(3, 5)).unwrap();
        assert_eq!(again.checkpoint_generations().unwrap(), vec![3]);
        assert_eq!(log_lines(&run), vec![(0, 5)]);
        assert_eq!(again.latest_checkpoint().unwrap(), Some(checkpoint(3, 5)));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn full_snapshots_of_older_stores_load_and_are_built_upon() {
        let (root, store, run) = temp_run();
        let old = checkpoint(1, 12);
        fs::write(
            run.checkpoint_path(1),
            serde_json::to_string_pretty(&old).unwrap(),
        )
        .unwrap();
        assert_eq!(run.latest_checkpoint().unwrap(), Some(old.clone()));

        let resumed = store.run("run").unwrap();
        resumed.save_checkpoint(&checkpoint(2, 20)).unwrap();
        // The log starts over: the full snapshot never wrote one.
        assert_eq!(log_lines(&run), vec![(0, 20)]);
        assert_eq!(run.load_checkpoint(1).unwrap(), old);
        assert_eq!(run.latest_checkpoint().unwrap(), Some(checkpoint(2, 20)));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn results_are_compact_and_manifests_indented() {
        let (root, _store, run) = temp_run();
        run.save_result(&vec![checkpoint(1, 3)]).unwrap();
        let result = fs::read_to_string(run.dir().join(crate::RESULT_FILE)).unwrap();
        assert!(!result.contains('\n'), "{result}");
        let manifest = fs::read_to_string(run.dir().join(crate::MANIFEST_FILE)).unwrap();
        assert!(
            manifest.contains("\n  \"status\": \"Running\""),
            "{manifest}"
        );
        let _ = fs::remove_dir_all(root);
    }
}
