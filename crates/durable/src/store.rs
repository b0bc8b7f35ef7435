//! [`DurableStore`]: the data directory as one object — a WAL plus its
//! snapshot lineage — with the open/append/snapshot/compact protocol the
//! admission server drives.
//!
//! Layout of a data directory:
//!
//! ```text
//! <data-dir>/
//!   wal.log                        append-only decision log
//!   snapshot-<seq 16 digits>.snap  structural state snapshots
//! ```
//!
//! Recovery contract: [`DurableStore::open`] returns the newest *loadable*
//! snapshot whose `SnapshotMarker` is in the log, plus the record suffix
//! after that marker. A marker whose snapshot file is missing or damaged
//! is skipped — the store falls back to the previous marker, and with no
//! usable snapshot at all the suffix is the entire log, which rebuilds the
//! state from empty. The WAL is only ever shortened by [`DurableStore::compact`]
//! (`DurableStore::compact`), which first makes a fresh snapshot durable,
//! so every fallback path always has the records it needs.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::record::{LogRecord, PersistedState};
use crate::snapshot::{load_snapshot, prune_snapshots, write_snapshot};
use crate::wal::{FsyncPolicy, WalOpenReport, WalStats, WalWriter};

/// File name of the log inside a data directory.
pub const WAL_FILE: &str = "wal.log";

/// Default snapshot trigger: records appended since the last snapshot.
pub const DEFAULT_SNAPSHOT_RECORDS: u64 = 512;

/// Default snapshot trigger: WAL bytes appended since the last snapshot.
pub const DEFAULT_SNAPSHOT_BYTES: u64 = 4 << 20;

/// Configuration of a [`DurableStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// The data directory (created if absent).
    pub dir: PathBuf,
    /// When appends are flushed to stable storage.
    pub fsync: FsyncPolicy,
    /// Take a snapshot after this many records since the last one
    /// (0 disables the record trigger).
    pub snapshot_every_records: u64,
    /// Take a snapshot after this many appended WAL bytes since the last
    /// one (0 disables the byte trigger).
    pub snapshot_every_bytes: u64,
}

impl StoreConfig {
    /// Defaults: `fsync every` (never lose an acknowledged decision),
    /// snapshot every [`DEFAULT_SNAPSHOT_RECORDS`] records or
    /// [`DEFAULT_SNAPSHOT_BYTES`] bytes.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Every,
            snapshot_every_records: DEFAULT_SNAPSHOT_RECORDS,
            snapshot_every_bytes: DEFAULT_SNAPSHOT_BYTES,
        }
    }
}

/// What [`DurableStore::open`] recovered from disk.
#[derive(Debug)]
pub struct RecoveredLog {
    /// The newest loadable snapshot, if any.
    pub snapshot: Option<PersistedState>,
    /// Its sequence number.
    pub snapshot_seq: Option<u64>,
    /// Records after the chosen snapshot's marker (the whole log when no
    /// snapshot was usable). May still contain `SnapshotMarker` records
    /// for *newer* snapshots that failed to load; replay ignores markers.
    pub suffix: Vec<LogRecord>,
    /// What opening the WAL file itself found (torn-tail repair etc.).
    pub wal_report: WalOpenReport,
    /// Markers whose snapshot file was missing or unusable and had to be
    /// skipped in favour of an older one.
    pub snapshots_skipped: u64,
}

/// The outcome of a [`DurableStore::compact`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Sequence number of the snapshot the compaction wrote.
    pub snapshot_seq: u64,
    /// Size of that snapshot file in bytes.
    pub snapshot_bytes: u64,
    /// WAL length before compaction.
    pub wal_bytes_before: u64,
    /// WAL length after (magic + one marker frame).
    pub wal_bytes_after: u64,
    /// Old snapshot files (and stale tmp files) deleted.
    pub files_removed: u64,
}

/// An open data directory.
#[derive(Debug)]
pub struct DurableStore {
    config: StoreConfig,
    wal: WalWriter,
    last_snapshot_seq: u64,
    records_since_snapshot: u64,
    bytes_since_snapshot: u64,
    snapshots_written: u64,
}

impl DurableStore {
    /// Opens (creating if needed) the data directory, repairs the WAL
    /// tail, and selects the snapshot + suffix recovery point.
    ///
    /// # Errors
    ///
    /// I/O errors; an unreadable WAL (bad magic, undecodable record).
    /// A damaged *snapshot* is not an error — it is skipped.
    pub fn open(config: StoreConfig) -> io::Result<(DurableStore, RecoveredLog)> {
        fs::create_dir_all(&config.dir)?;
        let (wal, records, wal_report) = WalWriter::open(&config.dir.join(WAL_FILE), config.fsync)?;

        // Walk markers newest-first until one's snapshot actually loads.
        let mut snapshot = None;
        let mut snapshot_seq = None;
        let mut suffix_start = 0usize;
        let mut snapshots_skipped = 0u64;
        let mut max_seq_seen = 0u64;
        for (idx, record) in records.iter().enumerate().rev() {
            let LogRecord::SnapshotMarker { seq } = *record else {
                continue;
            };
            max_seq_seen = max_seq_seen.max(seq);
            match load_snapshot(&config.dir, seq) {
                Ok(state) => {
                    snapshot = Some(state);
                    snapshot_seq = Some(seq);
                    suffix_start = idx + 1;
                    break;
                }
                Err(_) => snapshots_skipped += 1,
            }
        }
        let suffix = records[suffix_start..].to_vec();
        let records_since_snapshot = suffix
            .iter()
            .filter(|r| !matches!(r, LogRecord::SnapshotMarker { .. }))
            .count() as u64;

        let store = DurableStore {
            config,
            wal,
            // Never reuse a sequence number, even of a damaged snapshot.
            last_snapshot_seq: max_seq_seen.max(snapshot_seq.unwrap_or(0)),
            records_since_snapshot,
            // Byte counter restarts per process; the record counter carries
            // across restarts, so short-lived servers still snapshot.
            bytes_since_snapshot: 0,
            snapshots_written: 0,
        };
        Ok((
            store,
            RecoveredLog {
                snapshot,
                snapshot_seq,
                suffix,
                wal_report,
                snapshots_skipped,
            },
        ))
    }

    /// Appends one record under the configured fsync policy.
    ///
    /// # Errors
    ///
    /// I/O errors from the write or sync.
    pub fn append(&mut self, record: &LogRecord) -> io::Result<()> {
        let before = self.wal.stats().bytes_appended;
        self.wal.append(record)?;
        self.records_since_snapshot += 1;
        self.bytes_since_snapshot += self.wal.stats().bytes_appended - before;
        Ok(())
    }

    /// Whether a configured snapshot threshold has been crossed.
    #[must_use]
    pub fn should_snapshot(&self) -> bool {
        let by_records = self.config.snapshot_every_records > 0
            && self.records_since_snapshot >= self.config.snapshot_every_records;
        let by_bytes = self.config.snapshot_every_bytes > 0
            && self.bytes_since_snapshot >= self.config.snapshot_every_bytes;
        by_records || by_bytes
    }

    /// Durably writes `state` as the next snapshot, appends its marker to
    /// the WAL (synced regardless of policy), prunes older snapshot files,
    /// and resets the snapshot triggers. Returns the new sequence number.
    ///
    /// # Errors
    ///
    /// I/O errors from any step. On error the store is still consistent:
    /// a snapshot without a marker is simply ignored at the next open.
    pub fn install_snapshot(&mut self, state: &PersistedState) -> io::Result<u64> {
        let seq = self.last_snapshot_seq + 1;
        write_snapshot(&self.config.dir, seq, state)?;
        self.wal.append(&LogRecord::SnapshotMarker { seq })?;
        // `append` already synced under `every`; one fsync per marker.
        if self.wal.is_dirty() {
            self.wal.sync()?;
        }
        // Older snapshots are redundant now — the log retains everything
        // since its beginning, so even losing this new snapshot only costs
        // replay time, never data.
        prune_snapshots(&self.config.dir, seq)?;
        self.last_snapshot_seq = seq;
        self.snapshots_written += 1;
        self.records_since_snapshot = 0;
        self.bytes_since_snapshot = 0;
        Ok(seq)
    }

    /// Compacts the directory: snapshot `state`, rewrite the WAL to just
    /// that snapshot's marker, delete superseded snapshot files.
    ///
    /// # Errors
    ///
    /// I/O errors. The snapshot is made durable *before* the log is
    /// rewritten, so a crash at any point leaves a recoverable directory.
    pub fn compact(&mut self, state: &PersistedState) -> io::Result<CompactReport> {
        let wal_bytes_before = self.wal.len();
        let seq = self.last_snapshot_seq + 1;
        let snapshot_bytes = write_snapshot(&self.config.dir, seq, state)?;

        // Rebuild the log as magic + marker in a tmp file, then swap it in.
        let wal_path = self.config.dir.join(WAL_FILE);
        let tmp_path = self.config.dir.join(format!("{WAL_FILE}.tmp"));
        {
            use std::io::Write;
            let payload = serde_json::to_string(&LogRecord::SnapshotMarker { seq })
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let mut bytes = crate::wal::WAL_MAGIC.to_vec();
            bytes.extend_from_slice(&crate::frame::encode_frame(payload.as_bytes()));
            let mut tmp = fs::OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp_path)?;
            tmp.write_all(&bytes)?;
            tmp.sync_all()?;
        }
        fs::rename(&tmp_path, &wal_path)?;
        sync_dir_best_effort(&self.config.dir);

        let removed = prune_snapshots(&self.config.dir, seq)?;
        // Reopen the handle on the rewritten file.
        let (wal, _, _) = WalWriter::open(&wal_path, self.config.fsync)?;
        let wal_bytes_after = wal.len();
        self.wal = wal;
        self.last_snapshot_seq = seq;
        self.snapshots_written += 1;
        self.records_since_snapshot = 0;
        self.bytes_since_snapshot = 0;
        Ok(CompactReport {
            snapshot_seq: seq,
            snapshot_bytes,
            wal_bytes_before,
            wal_bytes_after,
            files_removed: removed.len() as u64,
        })
    }

    /// Forces an fsync regardless of policy (shutdown path).
    ///
    /// # Errors
    ///
    /// I/O errors from `fsync`.
    pub fn sync(&mut self) -> io::Result<()> {
        self.wal.sync()
    }

    /// How long until the interval fsync policy owes the WAL a sync; see
    /// [`WalWriter::sync_due`]. Under an interval policy the server's WAL
    /// flusher parks this long, so a quiet log never holds
    /// acked-but-unsynced frames longer than the interval.
    #[must_use]
    pub fn sync_due(&self) -> Option<Duration> {
        self.wal.sync_due()
    }

    /// Syncs if the interval deadline has expired; returns whether a sync
    /// was issued. See [`WalWriter::sync_if_due`].
    ///
    /// # Errors
    ///
    /// I/O errors from `fsync`.
    pub fn sync_if_due(&mut self) -> io::Result<bool> {
        self.wal.sync_if_due()
    }

    /// WAL cost counters since open.
    #[must_use]
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// Current WAL file length in bytes.
    #[must_use]
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
    }

    /// Snapshots written since open.
    #[must_use]
    pub fn snapshots_written(&self) -> u64 {
        self.snapshots_written
    }

    /// Sequence number of the newest snapshot (0 when none exists yet).
    #[must_use]
    pub fn last_snapshot_seq(&self) -> u64 {
        self.last_snapshot_seq
    }

    /// The store's configuration.
    #[must_use]
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The effective fsync interval as a duration, for logging.
    #[must_use]
    pub fn fsync_interval(&self) -> Option<Duration> {
        match self.config.fsync {
            FsyncPolicy::Interval(d) => Some(d),
            _ => None,
        }
    }
}

fn sync_dir_best_effort(dir: &Path) {
    if let Ok(handle) = fs::File::open(dir) {
        let _ = handle.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{PersistedConfig, PersistedStats, FORMAT_VERSION};
    use crate::snapshot::snapshot_file_name;
    use fedsched_analysis::probe::AnalysisProbe;
    use fedsched_graham::list::PriorityPolicy;

    fn state(next_token: u64) -> PersistedState {
        PersistedState {
            version: FORMAT_VERSION,
            config: PersistedConfig {
                processors: 4,
                policy: PriorityPolicy::ListOrder,
                utilization_check: true,
                exact_budget: None,
                template_cache_cap: 0,
            },
            next_token,
            clusters: Vec::new(),
            shared: Vec::new(),
            cache: Vec::new(),
            stats: PersistedStats::default(),
            probe: AnalysisProbe::default(),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fedsched-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn config(dir: &Path) -> StoreConfig {
        StoreConfig {
            dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Never,
            snapshot_every_records: 0,
            snapshot_every_bytes: 0,
        }
    }

    fn depart(token: u64) -> LogRecord {
        LogRecord::Depart {
            token,
            anomaly: false,
        }
    }

    #[test]
    fn fresh_directory_recovers_empty() {
        let dir = tmpdir("fresh");
        let (store, recovered) = DurableStore::open(config(&dir)).unwrap();
        assert!(recovered.snapshot.is_none());
        assert!(recovered.suffix.is_empty());
        assert_eq!(recovered.wal_report.truncated_bytes, 0);
        assert_eq!(store.last_snapshot_seq(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_plus_suffix_recovery_point() {
        let dir = tmpdir("suffix");
        let (mut store, _) = DurableStore::open(config(&dir)).unwrap();
        store.append(&depart(1)).unwrap();
        store.append(&depart(2)).unwrap();
        let seq = store.install_snapshot(&state(10)).unwrap();
        assert_eq!(seq, 1);
        store.append(&depart(3)).unwrap();
        drop(store);
        let (store, recovered) = DurableStore::open(config(&dir)).unwrap();
        assert_eq!(recovered.snapshot, Some(state(10)));
        assert_eq!(recovered.snapshot_seq, Some(1));
        assert_eq!(recovered.suffix, vec![depart(3)]);
        assert_eq!(store.last_snapshot_seq(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_snapshot_marker_costs_one_fsync_whatever_the_policy() {
        for fsync in [FsyncPolicy::Every, FsyncPolicy::Never] {
            let dir = tmpdir(&format!("marker-fsync-{fsync:?}"));
            let (mut store, _) = DurableStore::open(StoreConfig {
                fsync,
                ..config(&dir)
            })
            .unwrap();
            store.append(&depart(1)).unwrap();
            let before = store.wal_stats().fsyncs;
            store.install_snapshot(&state(2)).unwrap();
            assert_eq!(
                store.wal_stats().fsyncs,
                before + 1,
                "{fsync:?}: the marker is synced once, whatever the policy"
            );
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn damaged_snapshot_falls_back_to_older_marker() {
        let dir = tmpdir("fallback");
        let (mut store, _) = DurableStore::open(config(&dir)).unwrap();
        store.append(&depart(1)).unwrap();
        store.install_snapshot(&state(5)).unwrap();
        store.append(&depart(2)).unwrap();
        store.install_snapshot(&state(9)).unwrap();
        store.append(&depart(3)).unwrap();
        drop(store);
        // Snapshot 1 was pruned when 2 was installed; resurrect it so the
        // fallback has somewhere to land, then damage snapshot 2.
        write_snapshot(&dir, 1, &state(5)).unwrap();
        let snap2 = dir.join(snapshot_file_name(2));
        let mut bytes = fs::read(&snap2).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&snap2, &bytes).unwrap();
        let (store, recovered) = DurableStore::open(config(&dir)).unwrap();
        assert_eq!(recovered.snapshot, Some(state(5)));
        assert_eq!(recovered.snapshot_seq, Some(1));
        assert_eq!(recovered.snapshots_skipped, 1);
        // The suffix spans from marker 1 on: depart(2), marker 2, depart(3).
        assert_eq!(
            recovered.suffix,
            vec![depart(2), LogRecord::SnapshotMarker { seq: 2 }, depart(3)]
        );
        // New snapshots must not reuse seq 2.
        assert_eq!(store.last_snapshot_seq(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_snapshots_unusable_replays_whole_log() {
        let dir = tmpdir("fulllog");
        let (mut store, _) = DurableStore::open(config(&dir)).unwrap();
        store.append(&depart(1)).unwrap();
        store.install_snapshot(&state(5)).unwrap();
        store.append(&depart(2)).unwrap();
        drop(store);
        fs::remove_file(dir.join(snapshot_file_name(1))).unwrap();
        let (_, recovered) = DurableStore::open(config(&dir)).unwrap();
        assert!(recovered.snapshot.is_none());
        assert_eq!(recovered.snapshots_skipped, 1);
        assert_eq!(
            recovered.suffix,
            vec![depart(1), LogRecord::SnapshotMarker { seq: 1 }, depart(2)]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_thresholds_trigger() {
        let dir = tmpdir("thresholds");
        let mut cfg = config(&dir);
        cfg.snapshot_every_records = 3;
        let (mut store, _) = DurableStore::open(cfg).unwrap();
        store.append(&depart(1)).unwrap();
        store.append(&depart(2)).unwrap();
        assert!(!store.should_snapshot());
        store.append(&depart(3)).unwrap();
        assert!(store.should_snapshot());
        store.install_snapshot(&state(4)).unwrap();
        assert!(!store.should_snapshot(), "triggers reset after a snapshot");
        // The record counter survives restart: two more records + reopen.
        store.append(&depart(4)).unwrap();
        store.append(&depart(5)).unwrap();
        drop(store);
        let mut cfg = config(&dir);
        cfg.snapshot_every_records = 3;
        let (mut store, _) = DurableStore::open(cfg).unwrap();
        assert!(!store.should_snapshot());
        store.append(&depart(6)).unwrap();
        assert!(store.should_snapshot(), "2 recovered + 1 appended ≥ 3");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn byte_threshold_triggers() {
        let dir = tmpdir("bytes");
        let mut cfg = config(&dir);
        cfg.snapshot_every_bytes = 64;
        let (mut store, _) = DurableStore::open(cfg).unwrap();
        assert!(!store.should_snapshot());
        store.append(&depart(1)).unwrap();
        store.append(&depart(2)).unwrap();
        assert!(store.should_snapshot());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_shrinks_the_log_and_keeps_state() {
        let dir = tmpdir("compact");
        let (mut store, _) = DurableStore::open(config(&dir)).unwrap();
        for token in 0..50 {
            store.append(&depart(token)).unwrap();
        }
        store.install_snapshot(&state(2)).unwrap();
        for token in 50..80 {
            store.append(&depart(token)).unwrap();
        }
        let report = store.compact(&state(99)).unwrap();
        assert!(report.wal_bytes_after < report.wal_bytes_before);
        assert_eq!(report.snapshot_seq, 2);
        assert!(report.files_removed >= 1, "snapshot 1 deleted");
        drop(store);
        let (store, recovered) = DurableStore::open(config(&dir)).unwrap();
        assert_eq!(recovered.snapshot, Some(state(99)));
        assert_eq!(recovered.snapshot_seq, Some(2));
        assert!(recovered.suffix.is_empty());
        assert_eq!(store.last_snapshot_seq(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_repair_is_reported_through_open() {
        let dir = tmpdir("torn");
        let (mut store, _) = DurableStore::open(config(&dir)).unwrap();
        store.append(&depart(1)).unwrap();
        store.append(&depart(2)).unwrap();
        store.sync().unwrap();
        drop(store);
        let wal_path = dir.join(WAL_FILE);
        let bytes = fs::read(&wal_path).unwrap();
        fs::write(&wal_path, &bytes[..bytes.len() - 5]).unwrap();
        let (_, recovered) = DurableStore::open(config(&dir)).unwrap();
        assert_eq!(recovered.suffix, vec![depart(1)]);
        assert!(recovered.wal_report.truncated_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
