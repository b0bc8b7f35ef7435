//! The write-ahead log file: an 8-byte magic followed by CRC-framed,
//! JSON-encoded [`LogRecord`]s, opened with torn-tail repair.
//!
//! Append ordering is the whole durability argument: a record is written
//! (and, under [`FsyncPolicy::Every`], synced) *before* the server
//! acknowledges the decision to the client, so every acknowledged decision
//! is either on disk or the acknowledgement never left the machine. The
//! converse — a record on disk for a decision never acknowledged — is
//! possible (crash between write and ack) and harmless: replaying it
//! merely re-derives a decision the engine would have made anyway.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::frame::{encode_frame, scan_frames, TailState};
use crate::record::LogRecord;

/// Magic bytes opening every WAL file (`FSWAL` + version 1).
pub const WAL_MAGIC: [u8; 8] = *b"FSWAL\x00\x00\x01";

/// When the WAL file is flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended record: an acknowledged decision can
    /// never be lost, at the cost of one disk sync per decision.
    Every,
    /// `fsync` at most once per interval: bounds loss to the decisions of
    /// the last interval. An append checks the deadline itself; an owner
    /// pays it on a quiet log with [`WalWriter::sync_if_due`].
    Interval(Duration),
    /// Never `fsync` explicitly; the OS flushes on its own schedule.
    /// Survives process crashes (the page cache persists) but not power
    /// loss or kernel panics.
    Never,
}

impl FsyncPolicy {
    /// Parses the `--fsync` flag grammar: `every`, `interval:<ms>`, or
    /// `never`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for anything else.
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "every" => Ok(FsyncPolicy::Every),
            "never" => Ok(FsyncPolicy::Never),
            other => match other.strip_prefix("interval:") {
                Some(ms) => match ms.parse::<u64>() {
                    Ok(ms) if ms > 0 => Ok(FsyncPolicy::Interval(Duration::from_millis(ms))),
                    _ => Err(format!(
                        "invalid fsync interval {ms:?}: expected a positive integer of milliseconds"
                    )),
                },
                None => Err(format!(
                    "invalid fsync policy {other:?}: expected every, interval:<ms>, or never"
                )),
            },
        }
    }
}

impl core::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FsyncPolicy::Every => write!(f, "every"),
            FsyncPolicy::Interval(d) => write!(f, "interval:{}", d.as_millis()),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// Cumulative cost counters of one [`WalWriter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since open.
    pub records_appended: u64,
    /// Frame bytes appended since open (headers included).
    pub bytes_appended: u64,
    /// Explicit `fsync` calls issued since open.
    pub fsyncs: u64,
}

/// What opening an existing WAL found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalOpenReport {
    /// Records recovered from the log, in order.
    pub records_recovered: u64,
    /// Bytes truncated off a torn or corrupt tail (0 for a clean log).
    pub truncated_bytes: u64,
    /// Whether the discarded tail failed by CRC/length (corrupt) rather
    /// than by incompleteness (torn). `false` when nothing was truncated.
    pub tail_was_corrupt: bool,
}

/// An open, append-only WAL file.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    last_sync: Instant,
    /// Whether bytes have been appended since the last sync. Under
    /// [`FsyncPolicy::Interval`] this is what bounds the acked-but-unsynced
    /// exposure of a log that goes quiet: the owner polls
    /// [`WalWriter::sync_due`] from a timer and calls
    /// [`WalWriter::sync_if_due`] instead of waiting for the next append.
    dirty: bool,
    len: u64,
    stats: WalStats,
}

impl WalWriter {
    /// Opens (creating if absent) the WAL at `path`, validating the magic,
    /// decoding every complete frame, and truncating a torn or corrupt
    /// tail so the file ends on a frame boundary.
    ///
    /// # Errors
    ///
    /// I/O errors; a file with the wrong magic; or a CRC-valid frame whose
    /// payload does not decode as a [`LogRecord`] — that is version drift
    /// or foul play, not a torn write, and silently dropping it would lose
    /// acknowledged decisions.
    pub fn open(
        path: &Path,
        policy: FsyncPolicy,
    ) -> io::Result<(WalWriter, Vec<LogRecord>, WalOpenReport)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        if buf.is_empty() {
            file.write_all(&WAL_MAGIC)?;
            file.sync_all()?;
            let writer = WalWriter {
                file,
                path: path.to_path_buf(),
                policy,
                last_sync: Instant::now(),
                dirty: false,
                len: WAL_MAGIC.len() as u64,
                stats: WalStats::default(),
            };
            return Ok((
                writer,
                Vec::new(),
                WalOpenReport {
                    records_recovered: 0,
                    truncated_bytes: 0,
                    tail_was_corrupt: false,
                },
            ));
        }
        if buf.len() < WAL_MAGIC.len() || buf[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not a fedsched WAL (bad magic)", path.display()),
            ));
        }
        let body = &buf[WAL_MAGIC.len()..];
        let scan = scan_frames(body);
        let mut records = Vec::with_capacity(scan.frames.len());
        for (i, payload) in scan.frames.iter().enumerate() {
            let text = std::str::from_utf8(payload).map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("WAL record {i} is CRC-valid but not UTF-8"),
                )
            })?;
            let record: LogRecord = serde_json::from_str(text).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("WAL record {i} is CRC-valid but undecodable ({e}): version drift?"),
                )
            })?;
            records.push(record);
        }
        let valid_end = (WAL_MAGIC.len() + scan.valid_len) as u64;
        let truncated = buf.len() as u64 - valid_end;
        if truncated > 0 {
            file.set_len(valid_end)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(valid_end))?;
        let report = WalOpenReport {
            records_recovered: records.len() as u64,
            truncated_bytes: truncated,
            tail_was_corrupt: matches!(scan.tail, TailState::Corrupt { .. }),
        };
        let writer = WalWriter {
            file,
            path: path.to_path_buf(),
            policy,
            last_sync: Instant::now(),
            dirty: false,
            len: valid_end,
            stats: WalStats::default(),
        };
        Ok((writer, records, report))
    }

    /// Appends one record, syncing according to the policy.
    ///
    /// # Errors
    ///
    /// I/O errors from the write or sync.
    pub fn append(&mut self, record: &LogRecord) -> io::Result<()> {
        let payload = serde_json::to_string(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let frame = encode_frame(payload.as_bytes());
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        self.dirty = true;
        self.stats.records_appended += 1;
        self.stats.bytes_appended += frame.len() as u64;
        match self.policy {
            FsyncPolicy::Every => self.sync()?,
            FsyncPolicy::Interval(every) => {
                if self.last_sync.elapsed() >= every {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Forces a sync regardless of policy (used at shutdown and after
    /// snapshot markers).
    ///
    /// # Errors
    ///
    /// I/O errors from `fsync`.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.last_sync = Instant::now();
        self.dirty = false;
        self.stats.fsyncs += 1;
        Ok(())
    }

    /// Whether appended bytes are awaiting a sync.
    #[must_use]
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// How long until the interval policy owes unsynced appends a sync:
    /// `Some(Duration::ZERO)` means a sync is overdue, `None` means no
    /// timed sync is pending (clean log, or a policy without an interval —
    /// `Every` never leaves the log dirty and `Never` promises nothing).
    ///
    /// Checking the deadline only on append (the pre-fix behaviour) leaves
    /// a quiet WAL holding acked-but-unsynced frames indefinitely; owners
    /// use this as a timer so the exposure is bounded by the interval even
    /// after the last append.
    #[must_use]
    pub fn sync_due(&self) -> Option<Duration> {
        match self.policy {
            FsyncPolicy::Interval(every) if self.dirty => {
                Some(every.saturating_sub(self.last_sync.elapsed()))
            }
            _ => None,
        }
    }

    /// Syncs if [`Self::sync_due`] reports an expired deadline; returns
    /// whether a sync was issued.
    ///
    /// # Errors
    ///
    /// I/O errors from `fsync`.
    pub fn sync_if_due(&mut self) -> io::Result<bool> {
        if self.sync_due() == Some(Duration::ZERO) {
            self.sync()?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Current file length in bytes (magic included).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records (just the magic).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_MAGIC.len() as u64
    }

    /// Cost counters since open.
    #[must_use]
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// The file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The active fsync policy.
    #[must_use]
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fedsched-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn marker(seq: u64) -> LogRecord {
        LogRecord::SnapshotMarker { seq }
    }

    #[test]
    fn parse_fsync_policies() {
        assert_eq!(FsyncPolicy::parse("every"), Ok(FsyncPolicy::Every));
        assert_eq!(FsyncPolicy::parse("never"), Ok(FsyncPolicy::Never));
        assert_eq!(
            FsyncPolicy::parse("interval:250"),
            Ok(FsyncPolicy::Interval(Duration::from_millis(250)))
        );
        assert!(FsyncPolicy::parse("interval:0").is_err());
        assert!(FsyncPolicy::parse("interval:abc").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert_eq!(FsyncPolicy::Every.to_string(), "every");
        assert_eq!(
            FsyncPolicy::Interval(Duration::from_millis(40)).to_string(),
            "interval:40"
        );
        assert_eq!(FsyncPolicy::Never.to_string(), "never");
    }

    #[test]
    fn append_reopen_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.log");
        let (mut wal, records, report) = WalWriter::open(&path, FsyncPolicy::Every).unwrap();
        assert!(records.is_empty());
        assert_eq!(report.truncated_bytes, 0);
        for seq in 0..5 {
            wal.append(&marker(seq)).unwrap();
        }
        assert_eq!(wal.stats().records_appended, 5);
        assert_eq!(wal.stats().fsyncs, 5, "policy=every syncs per record");
        drop(wal);
        let (wal, records, report) = WalWriter::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(records, (0..5).map(marker).collect::<Vec<_>>());
        assert_eq!(report.records_recovered, 5);
        assert_eq!(report.truncated_bytes, 0);
        assert!(!wal.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.log");
        let (mut wal, _, _) = WalWriter::open(&path, FsyncPolicy::Never).unwrap();
        wal.append(&marker(1)).unwrap();
        wal.append(&marker(2)).unwrap();
        drop(wal);
        let full = fs::read(&path).unwrap();
        // Tear the last frame mid-payload, as a crash mid-write would.
        fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (wal, records, report) = WalWriter::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(records, vec![marker(1)]);
        assert!(report.truncated_bytes > 0);
        assert!(
            !report.tail_was_corrupt,
            "a short tail is torn, not corrupt"
        );
        // The file is now clean: reopening finds no tail to repair.
        drop(wal);
        let (_, records, report) = WalWriter::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(records, vec![marker(1)]);
        assert_eq!(report.truncated_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_tail_is_truncated_and_flagged() {
        let dir = tmpdir("corrupt");
        let path = dir.join("wal.log");
        let (mut wal, _, _) = WalWriter::open(&path, FsyncPolicy::Never).unwrap();
        wal.append(&marker(1)).unwrap();
        wal.append(&marker(2)).unwrap();
        drop(wal);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // flip one payload bit of the final frame
        fs::write(&path, &bytes).unwrap();
        let (_, records, report) = WalWriter::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(records, vec![marker(1)]);
        assert!(report.tail_was_corrupt);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let dir = tmpdir("magic");
        let path = dir.join("wal.log");
        fs::write(&path, b"definitely not a WAL").unwrap();
        let err = WalWriter::open(&path, FsyncPolicy::Never).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc_valid_but_undecodable_record_errors() {
        let dir = tmpdir("drift");
        let path = dir.join("wal.log");
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&encode_frame(b"{\"FutureRecord\":{}}"));
        fs::write(&path, &bytes).unwrap();
        let err = WalWriter::open(&path, FsyncPolicy::Never).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version drift"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn idle_interval_wal_owes_a_sync_within_the_interval() {
        let dir = tmpdir("idle");
        let path = dir.join("wal.log");
        let every = Duration::from_millis(25);
        let (mut wal, _, _) = WalWriter::open(&path, FsyncPolicy::Interval(every)).unwrap();
        assert_eq!(wal.sync_due(), None, "clean log owes nothing");
        wal.append(&marker(1)).unwrap();
        assert!(wal.is_dirty());
        // The acked-unsynced exposure after the last append is bounded by
        // the interval: the due deadline is at most `every` away, and once
        // it expires a timer tick syncs without any further append.
        let due = wal.sync_due().expect("dirty interval log owes a sync");
        assert!(due <= every);
        assert!(!wal.sync_if_due().unwrap(), "not due yet");
        std::thread::sleep(every + Duration::from_millis(5));
        assert_eq!(wal.sync_due(), Some(Duration::ZERO), "deadline expired");
        assert!(wal.sync_if_due().unwrap(), "tick syncs the quiet log");
        assert!(!wal.is_dirty());
        assert_eq!(wal.stats().fsyncs, 1);
        assert_eq!(wal.sync_due(), None, "synced log owes nothing again");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interval_policy_batches_fsyncs() {
        let dir = tmpdir("interval");
        let path = dir.join("wal.log");
        let (mut wal, _, _) =
            WalWriter::open(&path, FsyncPolicy::Interval(Duration::from_secs(3600))).unwrap();
        for seq in 0..100 {
            wal.append(&marker(seq)).unwrap();
        }
        assert_eq!(wal.stats().fsyncs, 0, "interval far away: no syncs yet");
        wal.sync().unwrap();
        assert_eq!(wal.stats().fsyncs, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
