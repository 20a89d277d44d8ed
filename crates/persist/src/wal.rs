//! The rating write-ahead log.
//!
//! Appends become durable *before* they are applied in memory: each batch
//! of [`RatingDraft`]s is framed, CRC'd, written and fsync'd; only then
//! does the store mutate its in-memory database. On open the log is
//! replayed on top of the last snapshot, so a crash after the fsync loses
//! nothing.
//!
//! File layout:
//!
//! ```text
//! header  magic "SDXWAL01" (8) · version u32 · dim_count u16 · scale u8 ·
//!         reserved u8
//! frame   len u32 · crc32 u32 · payload [len]
//! payload seq u64 · count u32 · {reviewer u32, item u32, scores [dims]}…
//! ```
//!
//! Crash semantics (what the recovery tests pin down):
//!
//! * A frame whose bytes run past EOF, or whose *final*-frame CRC fails, is
//!   a **torn tail** — the process died mid-write before the fsync
//!   returned, so the frame was never acknowledged. Replay drops it and
//!   every loaded record is an exact prefix of what was written.
//! * A CRC mismatch on any frame *followed by more data* cannot be a torn
//!   write (later frames made it to disk, so this one was acknowledged):
//!   that is real corruption and replay returns
//!   [`StoreErrorKind::Corrupt`](subdex_store::StoreErrorKind) rather than
//!   resynchronize past damaged acknowledged data.
//! * Frames carry monotonically increasing batch sequence numbers; replay
//!   skips frames already folded into the snapshot (`seq <= last_seq`),
//!   which makes the crash window between "snapshot renamed" and "log
//!   reset" idempotent.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use subdex_store::{RatingDraft, StoreError};

use crate::codec::{put_u32, put_u64, Cursor};
use crate::crc::crc32;

/// Leading magic of a WAL file, format generation 1.
pub const MAGIC: &[u8; 8] = b"SDXWAL01";
/// Current WAL format version.
pub const FORMAT_VERSION: u32 = 1;

const HEADER_LEN: usize = 16;
const FRAME_HEADER_LEN: usize = 8;

/// One replayed batch: its sequence number and records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalBatch {
    /// Monotone batch sequence (1-based; 0 means "nothing logged yet").
    pub seq: u64,
    /// The records of the batch, in append order.
    pub drafts: Vec<RatingDraft>,
}

/// What a replay observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayInfo {
    /// Frames decoded (including ones skipped as already snapshotted).
    pub frames: u64,
    /// Records inside replayed (non-skipped) frames.
    pub replayed_records: u64,
    /// Whether a torn tail frame was dropped.
    pub dropped_tail: bool,
    /// Highest sequence number seen (0 when the log is empty).
    pub last_seq: u64,
}

/// An open, appendable WAL file.
pub struct WalWriter {
    file: File,
    path: PathBuf,
    dim_count: usize,
    scale: u8,
    /// Sequence of the last appended (or replayed) batch.
    seq: u64,
}

fn header_bytes(dim_count: usize, scale: u8) -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_LEN);
    h.extend_from_slice(MAGIC);
    put_u32(&mut h, FORMAT_VERSION);
    h.extend_from_slice(&(dim_count as u16).to_le_bytes());
    h.push(scale);
    h.push(0); // reserved
    h
}

impl WalWriter {
    /// Creates a fresh WAL at `path` whose records carry `dim_count` scores
    /// on the scale `1..=scale`. The sequence counter starts at 0.
    pub fn create(path: &Path, dim_count: usize, scale: u8) -> Result<Self, StoreError> {
        Self::create_seeded(path, dim_count, scale, 0)
    }

    /// Like [`create`](Self::create), but the first appended batch gets
    /// sequence `start_seq + 1`. Used by `compact()`, which resets the log
    /// while the global batch sequence keeps counting — replay decides what
    /// to skip by comparing against the snapshot's `last_seq`, so a reset
    /// log must not restart at 1.
    ///
    /// The header is written to a temp file and atomically renamed over
    /// `path`, so a crash mid-reset leaves either the complete old log
    /// (whose frames the next replay skips) or the complete new one —
    /// never a half-written header. The directory is fsynced after the
    /// rename, so once this returns the new log survives a power loss.
    pub fn create_seeded(
        path: &Path,
        dim_count: usize,
        scale: u8,
        start_seq: u64,
    ) -> Result<Self, StoreError> {
        let dir = path.parent().unwrap_or_else(|| Path::new("."));
        let tmp = dir.join(format!(
            ".{}.tmp-{}",
            path.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "wal".to_owned()),
            std::process::id()
        ));
        let mut file = File::create(&tmp).map_err(|e| StoreError::from_io("create wal", e))?;
        file.write_all(&header_bytes(dim_count, scale))
            .map_err(|e| StoreError::from_io("write wal header", e))?;
        file.sync_all()
            .map_err(|e| StoreError::from_io("fsync wal header", e))?;
        drop(file);
        std::fs::rename(&tmp, path).map_err(|e| StoreError::from_io("rename wal", e))?;
        crate::sync_dir(dir)?;
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| StoreError::from_io("reopen wal", e))?;
        file.seek_to_end()
            .map_err(|e| StoreError::from_io("seek wal", e))?;
        Ok(Self {
            file,
            path: path.to_owned(),
            dim_count,
            scale,
            seq: start_seq,
        })
    }

    /// Opens an existing WAL for appending, continuing after `last_seq`
    /// (the highest sequence [`replay`] returned). If the replay dropped a
    /// torn tail, the file is truncated back to the last intact frame so
    /// new appends cannot follow damaged bytes.
    pub fn open(
        path: &Path,
        dim_count: usize,
        scale: u8,
        replay: &ReplayInfo,
        intact_len: u64,
    ) -> Result<Self, StoreError> {
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| StoreError::from_io("open wal", e))?;
        file.set_len(intact_len)
            .map_err(|e| StoreError::from_io("truncate torn wal tail", e))?;
        let mut w = Self {
            file,
            path: path.to_owned(),
            dim_count,
            scale,
            seq: replay.last_seq,
        };
        w.file
            .seek_to_end()
            .map_err(|e| StoreError::from_io("seek wal", e))?;
        Ok(w)
    }

    /// The WAL file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Sequence number of the last durable batch.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Frames, writes, and fsyncs one batch. When this returns `Ok`, the
    /// batch is durable: replay after any crash will surface it. Returns
    /// the batch's sequence number.
    pub fn append_batch(&mut self, drafts: &[RatingDraft]) -> Result<u64, StoreError> {
        for (i, d) in drafts.iter().enumerate() {
            if d.scores.len() != self.dim_count {
                return Err(StoreError::invalid(format!(
                    "wal append draft {i}: {} scores, log records {}",
                    d.scores.len(),
                    self.dim_count
                )));
            }
            if d.scores.iter().any(|&s| s == 0 || s > self.scale) {
                return Err(StoreError::invalid(format!(
                    "wal append draft {i}: score outside 1..={}",
                    self.scale
                )));
            }
        }
        let seq = self.seq + 1;
        let mut payload = Vec::with_capacity(12 + drafts.len() * (8 + self.dim_count));
        put_u64(&mut payload, seq);
        put_u32(&mut payload, drafts.len() as u32);
        for d in drafts {
            put_u32(&mut payload, d.reviewer);
            put_u32(&mut payload, d.item);
            payload.extend_from_slice(&d.scores);
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        self.file
            .write_all(&frame)
            .map_err(|e| StoreError::from_io("write wal frame", e))?;
        self.file
            .sync_data()
            .map_err(|e| StoreError::from_io("fsync wal frame", e))?;
        self.seq = seq;
        Ok(seq)
    }
}

/// Tiny seek helper so `WalWriter::open` appends rather than overwrites.
trait SeekToEnd {
    fn seek_to_end(&mut self) -> std::io::Result<u64>;
}

impl SeekToEnd for File {
    fn seek_to_end(&mut self) -> std::io::Result<u64> {
        use std::io::Seek;
        self.seek(std::io::SeekFrom::End(0))
    }
}

/// Outcome of [`replay`]: the decodable batches, what happened, and the
/// byte length of the intact prefix (pass to [`WalWriter::open`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Batches with `seq > last_seq` of the snapshot, in order.
    pub batches: Vec<WalBatch>,
    /// Replay statistics.
    pub info: ReplayInfo,
    /// Byte offset of the end of the last intact frame.
    pub intact_len: u64,
}

/// Reads and validates a WAL, returning every batch newer than
/// `snapshot_seq`. See the module docs for the torn-tail-vs-corruption
/// decision rule.
pub fn replay(
    path: &Path,
    dim_count: usize,
    scale: u8,
    snapshot_seq: u64,
) -> Result<Replay, StoreError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| StoreError::from_io("read wal", e))?;
    replay_bytes(&bytes, dim_count, scale, snapshot_seq)
}

/// In-memory core of [`replay`] (what the crash proptests drive).
pub fn replay_bytes(
    bytes: &[u8],
    dim_count: usize,
    scale: u8,
    snapshot_seq: u64,
) -> Result<Replay, StoreError> {
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::format("wal header too short"));
    }
    if &bytes[..8] != MAGIC {
        return Err(StoreError::format("not a SubDEx wal (bad magic)"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(StoreError::format(format!(
            "wal format version {version} not supported (reader speaks {FORMAT_VERSION})"
        )));
    }
    let wal_dims = u16::from_le_bytes(bytes[12..14].try_into().unwrap()) as usize;
    let wal_scale = bytes[14];
    if wal_dims != dim_count || wal_scale != scale {
        return Err(StoreError::format(format!(
            "wal shape ({wal_dims} dims, scale {wal_scale}) does not match the database \
             ({dim_count} dims, scale {scale})"
        )));
    }

    let mut info = ReplayInfo::default();
    let mut batches = Vec::new();
    let mut pos = HEADER_LEN;
    let mut intact_len = HEADER_LEN as u64;
    let mut prev_seq = 0u64;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < FRAME_HEADER_LEN {
            info.dropped_tail = true; // frame header torn mid-write
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        let frame_end = pos + FRAME_HEADER_LEN + len;
        if frame_end > bytes.len() {
            info.dropped_tail = true; // payload torn mid-write
            break;
        }
        let payload = &bytes[pos + FRAME_HEADER_LEN..frame_end];
        if crc32(payload) != crc {
            if frame_end == bytes.len() {
                // Damaged final frame: indistinguishable from a torn write
                // of the payload bytes, so treat as unacknowledged.
                info.dropped_tail = true;
                break;
            }
            return Err(StoreError::corrupt(format!(
                "wal frame at byte {pos}: crc mismatch on acknowledged data"
            )));
        }
        let batch = decode_payload(payload, dim_count, scale, pos)?;
        if batch.seq <= prev_seq {
            return Err(StoreError::corrupt(format!(
                "wal frame at byte {pos}: sequence {} not increasing (after {prev_seq})",
                batch.seq
            )));
        }
        prev_seq = batch.seq;
        info.frames += 1;
        info.last_seq = batch.seq;
        if batch.seq > snapshot_seq {
            info.replayed_records += batch.drafts.len() as u64;
            batches.push(batch);
        }
        pos = frame_end;
        intact_len = frame_end as u64;
    }
    Ok(Replay {
        batches,
        info,
        intact_len,
    })
}

fn decode_payload(
    payload: &[u8],
    dim_count: usize,
    scale: u8,
    at: usize,
) -> Result<WalBatch, StoreError> {
    let mut c = Cursor::new(payload, "wal frame");
    let seq = c.u64()?;
    let count = c.u32()? as usize;
    let per_record = 8 + dim_count;
    if count.checked_mul(per_record) != Some(c.remaining()) {
        return Err(StoreError::corrupt(format!(
            "wal frame at byte {at}: record count disagrees with frame length"
        )));
    }
    let mut drafts = Vec::with_capacity(count);
    for _ in 0..count {
        let reviewer = c.u32()?;
        let item = c.u32()?;
        let scores = c.take(dim_count)?.to_vec();
        if scores.iter().any(|&s| s == 0 || s > scale) {
            return Err(StoreError::corrupt(format!(
                "wal frame at byte {at}: score outside 1..={scale}"
            )));
        }
        drafts.push(RatingDraft::new(reviewer, item, scores));
    }
    Ok(WalBatch { seq, drafts })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("subdex-wal-{tag}-{}.wal", std::process::id()))
    }

    fn drafts(n: usize, base: u32) -> Vec<RatingDraft> {
        (0..n as u32)
            .map(|i| RatingDraft::new(base + i, i, vec![1 + (i % 5) as u8, 5 - (i % 5) as u8]))
            .collect()
    }

    #[test]
    fn append_then_replay_round_trips() {
        let path = temp_path("rt");
        let mut w = WalWriter::create(&path, 2, 5).unwrap();
        let a = drafts(3, 0);
        let b = drafts(2, 100);
        assert_eq!(w.append_batch(&a).unwrap(), 1);
        assert_eq!(w.append_batch(&b).unwrap(), 2);
        let r = replay(&path, 2, 5, 0).unwrap();
        assert_eq!(r.batches.len(), 2);
        assert_eq!(r.batches[0].drafts, a);
        assert_eq!(r.batches[1].drafts, b);
        assert_eq!(r.info.last_seq, 2);
        assert!(!r.info.dropped_tail);
        // A snapshot at seq 1 skips the first batch but keeps the count.
        let r = replay(&path, 2, 5, 1).unwrap();
        assert_eq!(r.batches.len(), 1);
        assert_eq!(r.batches[0].seq, 2);
        assert_eq!(r.info.frames, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_and_prefix_survives() {
        let path = temp_path("torn");
        let mut w = WalWriter::create(&path, 2, 5).unwrap();
        w.append_batch(&drafts(3, 0)).unwrap();
        w.append_batch(&drafts(4, 50)).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Chop the file anywhere inside the second frame: replay must keep
        // exactly the first batch.
        let r = replay_bytes(&full, 2, 5, 0).unwrap();
        assert_eq!(r.batches.len(), 2);
        let first_end = HEADER_LEN + FRAME_HEADER_LEN + 12 + 3 * 10;
        for cut in [first_end + 1, first_end + 5, full.len() - 1] {
            let r = replay_bytes(&full[..cut], 2, 5, 0).unwrap();
            assert_eq!(r.batches.len(), 1, "cut at {cut}");
            assert!(r.info.dropped_tail);
            assert_eq!(r.intact_len as usize, first_end);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_middle_frame_is_an_error_not_a_resync() {
        let path = temp_path("mid");
        let mut w = WalWriter::create(&path, 2, 5).unwrap();
        w.append_batch(&drafts(3, 0)).unwrap();
        w.append_batch(&drafts(3, 50)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Damage a payload byte of the FIRST frame (scores start after
        // header + frame header + seq + count).
        bytes[HEADER_LEN + FRAME_HEADER_LEN + 12 + 2] ^= 0xFF;
        let err = replay_bytes(&bytes, 2, 5, 0).unwrap_err();
        assert_eq!(err.kind, subdex_store::StoreErrorKind::Corrupt);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_final_frame_is_treated_as_torn() {
        let path = temp_path("fin");
        let mut w = WalWriter::create(&path, 2, 5).unwrap();
        w.append_batch(&drafts(3, 0)).unwrap();
        w.append_batch(&drafts(3, 50)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        let r = replay_bytes(&bytes, 2, 5, 0).unwrap();
        assert_eq!(r.batches.len(), 1);
        assert!(r.info.dropped_tail);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopen_continues_the_sequence() {
        let path = temp_path("reopen");
        let mut w = WalWriter::create(&path, 2, 5).unwrap();
        w.append_batch(&drafts(2, 0)).unwrap();
        drop(w);
        let r = replay(&path, 2, 5, 0).unwrap();
        let mut w = WalWriter::open(&path, 2, 5, &r.info, r.intact_len).unwrap();
        assert_eq!(w.append_batch(&drafts(1, 9)).unwrap(), 2);
        let r = replay(&path, 2, 5, 0).unwrap();
        assert_eq!(r.batches.len(), 2);
        assert_eq!(r.info.last_seq, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shape_mismatch_is_a_format_error() {
        let path = temp_path("shape");
        let w = WalWriter::create(&path, 2, 5).unwrap();
        drop(w);
        let err = replay(&path, 3, 5, 0).unwrap_err();
        assert_eq!(err.kind, subdex_store::StoreErrorKind::Format);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn invalid_drafts_are_rejected_before_logging() {
        let path = temp_path("inv");
        let mut w = WalWriter::create(&path, 2, 5).unwrap();
        let err = w
            .append_batch(&[RatingDraft::new(0, 0, vec![6, 1])])
            .unwrap_err();
        assert_eq!(err.kind, subdex_store::StoreErrorKind::Invalid);
        // Nothing was written.
        let r = replay(&path, 2, 5, 0).unwrap();
        assert!(r.batches.is_empty());
        let _ = std::fs::remove_file(&path);
    }
}
