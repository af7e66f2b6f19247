//! The durable ε write-ahead ledger.
//!
//! Privacy loss is irreversible: once a mechanism has drawn fresh randomness,
//! the ε it consumed is spent whether or not the process survives to remember
//! it. An in-memory accountant therefore has a crash hole — a restart against
//! the same dataset starts from zero and silently double-spends the cap. This
//! module closes the hole with a **write-ahead ledger**: every accepted grant
//! is appended to a checksummed, length-prefixed log and `fsync`ed *before*
//! the in-memory ledger records it and the spend is reported as accepted, so
//! on restart the recovered spend is always ≥ the spend that any output was
//! produced under (over-counting is privacy-safe; forgetting is not).
//!
//! # On-disk format (v3)
//!
//! ```text
//! file       := magic (checkpoint-record)? grant-record*
//! magic      := "DPXWAL03"                                 (8 bytes)
//! record     := len:u32le  hcrc:u32le  payload  pcrc:u32le
//! payload    := kind:u8  body
//! grant body := request_id:u64le  units:u64le  label_len:u32le  label
//! ckpt body  := spent_units:u64le  n_granted:u32le  granted:u64le*
//! ```
//!
//! `hcrc` is the CRC-32 of the 4 `len` bytes; `pcrc` is the CRC-32 of the
//! payload. The double checksum makes the two failure modes distinguishable
//! *by construction*:
//!
//! * **Torn tail** (a crash mid-append): appended bytes are a *prefix* of a
//!   valid record, so either fewer than 8 header bytes remain (rule: torn),
//!   or the header is intact but the payload is short (rule: torn). Recovery
//!   truncates after the last valid record and continues.
//! * **Interior corruption** (bit rot, a bad disk): a *complete* record whose
//!   `hcrc` or `pcrc` does not match, an impossible length, or an
//!   undecodable payload. That is not a crash artifact — silently dropping
//!   it would forget spent ε — so recovery fails with the typed
//!   [`LedgerError::Corrupt`].
//!
//! ε is stored as whole **units** of 10⁻¹² ε (see
//! [`epsilon_units`](crate::budget::epsilon_units)): the shard accountant
//! charges integers, so replay adds the same integers and never re-rounds.
//! A grant body carries its request id, its units and its audit label; a
//! checkpoint body carries the total units spent and the granted request
//! ids, sorted so a checkpoint of one state is always the same bytes.
//! Earlier formats are not read: a `DPXWAL01` (flat f64 grants) or
//! `DPXWAL02` (f64 grants with parallel-composition groups) file is refused
//! with [`LedgerError::BadMagic`] and left untouched.
//!
//! **Checkpoints bound replay.** [`LedgerWriter::checkpoint`] atomically
//! replaces the log with `magic + one checkpoint record`. The checkpoint is
//! written to a sibling tmp file, synced, then `rename`d over the log — a
//! kill at any instruction leaves either the full history or the compacted
//! file, both recovering the exact same spend. A checkpoint record is only
//! valid immediately after the magic; anywhere else it is typed
//! corruption.
//!
//! The request-id column exists for resume: a restarted server skips requests
//! whose ids already hold a grant (their ε is reserved; re-execution is
//! deterministic and free).

use dpx_runtime::faultpoint::{
    LEDGER_CKPT_POST_RENAME, LEDGER_CKPT_PRE_RENAME, LEDGER_POST_FSYNC, LEDGER_PRE_FSYNC,
};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The 8-byte file magic of the current format (`DPXWAL03`).
pub const MAGIC: &[u8; 8] = b"DPXWAL03";

/// Upper bound on a record's payload length. The writer enforces it, so a
/// larger length in a file can only be corruption, never a torn write.
/// Checkpoint records carry the full granted-id history, so the bound is
/// sized for multi-million-grant ledgers, not single grants.
pub const MAX_RECORD_LEN: u32 = 1 << 28;

/// The `request_id` recorded for grants that do not belong to a request
/// (e.g. interactive-session charges routed through a durable accountant).
pub const NO_REQUEST: u64 = u64::MAX;

const KIND_GRANT: u8 = 1;
const KIND_CHECKPOINT: u8 = 2;

/// One durable grant: a request id, the ε units it reserved, and its audit
/// label.
#[derive(Debug, Clone, PartialEq)]
pub struct GrantRecord {
    /// The serving request this grant belongs to ([`NO_REQUEST`] if none).
    pub request_id: u64,
    /// ε reserved by the grant, in units of 10⁻¹² ε (`> 0`).
    pub units: u64,
    /// Audit label (e.g. `"request/7"`).
    pub label: String,
}

impl GrantRecord {
    /// A grant of `units` for serving request `request_id` with the serving
    /// layer's `request/<id>` label convention.
    pub fn for_request(request_id: u64, units: u64) -> Self {
        GrantRecord {
            request_id,
            units,
            label: format!("request/{request_id}"),
        }
    }
}

/// The shard state a checkpoint record captures.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointRecord {
    /// Total units spent at checkpoint time.
    pub spent_units: u64,
    /// Request ids holding durable grants at checkpoint time, sorted (the
    /// resume skip-set; [`NO_REQUEST`] grants are folded into the total
    /// instead). An id granted twice appears twice.
    pub granted: Vec<u64>,
}

/// A ledger failure, split by what the operator must do about it.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerError {
    /// The underlying file operation failed. The [`std::io::ErrorKind`] is
    /// preserved so `NotFound` and `PermissionDenied` stay distinguishable in
    /// logs.
    Io {
        /// The failed operation's error kind.
        kind: std::io::ErrorKind,
        /// The rendered I/O error.
        message: String,
    },
    /// The file exists but does not start with the ledger magic — almost
    /// certainly the wrong path, which must not be "recovered" into a ledger.
    BadMagic,
    /// A complete interior record failed validation. Spent ε may be
    /// unaccounted; the ledger must not be used without intervention.
    Corrupt {
        /// Byte offset of the offending record.
        offset: u64,
        /// What failed (header CRC, payload CRC, length bound, decode).
        detail: String,
    },
    /// A checkpoint would carry more granted ids than one record can hold.
    /// Nothing was written: the log keeps its full history.
    CheckpointTooLarge {
        /// Granted ids the checkpoint would carry.
        granted: usize,
    },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::Io { kind, message } => {
                write!(f, "ledger io error ({kind:?}): {message}")
            }
            LedgerError::BadMagic => write!(f, "ledger file has wrong magic (not a DPXWAL file)"),
            LedgerError::Corrupt { offset, detail } => {
                write!(f, "ledger corrupt at byte {offset}: {detail}")
            }
            LedgerError::CheckpointTooLarge { granted } => write!(
                f,
                "checkpoint of {granted} granted ids exceeds the record bound \
                 ({MAX_CHECKPOINT_IDS} ids); the log keeps its full history"
            ),
        }
    }
}

impl std::error::Error for LedgerError {}

impl From<std::io::Error> for LedgerError {
    fn from(e: std::io::Error) -> Self {
        LedgerError::Io {
            kind: e.kind(),
            message: e.to_string(),
        }
    }
}

/// What [`recover`] reconstructed from a ledger file.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// The head checkpoint, if the file was compacted.
    pub checkpoint: Option<CheckpointRecord>,
    /// Every valid grant *after* the checkpoint, in append order.
    pub grants: Vec<GrantRecord>,
    /// Length of the valid prefix (magic + whole records), in bytes.
    pub valid_len: u64,
    /// Torn-tail bytes past the valid prefix that recovery drops.
    pub truncated_bytes: u64,
}

impl Recovery {
    /// An empty recovery (fresh ledger).
    fn empty() -> Self {
        Recovery {
            checkpoint: None,
            grants: Vec::new(),
            valid_len: MAGIC.len() as u64,
            truncated_bytes: 0,
        }
    }

    /// Units spent: the checkpoint's total plus every tail grant.
    /// [`recover`] refuses a file whose total does not fit in a `u64`, so
    /// the sum is exact.
    pub fn spent_units(&self) -> u64 {
        self.grants.iter().fold(
            self.checkpoint.as_ref().map_or(0, |c| c.spent_units),
            |sum, g| sum.saturating_add(g.units),
        )
    }

    /// ε spent (see [`Recovery::spent_units`]).
    pub fn spent(&self) -> f64 {
        crate::budget::units_epsilon(self.spent_units())
    }

    /// Request ids holding durable grants (checkpointed and tail), with
    /// [`NO_REQUEST`] session charges filtered out — the resume skip-set.
    pub fn granted_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.checkpoint
            .iter()
            .flat_map(|c| c.granted.iter().copied())
            .chain(self.grants.iter().map(|g| g.request_id))
            .filter(|&id| id != NO_REQUEST)
    }

    /// How many records replay had to decode (the checkpoint counts as
    /// one). This is the quantity checkpointing bounds.
    pub fn records_replayed(&self) -> u64 {
        self.grants.len() as u64 + u64::from(self.checkpoint.is_some())
    }

    /// Grant records appended since the last checkpoint (all of them when
    /// the ledger has never checkpointed).
    pub fn checkpoint_age(&self) -> u64 {
        self.grants.len() as u64
    }
}

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, the zlib polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

fn encode_grant_payload(grant: &GrantRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(21 + grant.label.len());
    payload.push(KIND_GRANT);
    payload.extend_from_slice(&grant.request_id.to_le_bytes());
    payload.extend_from_slice(&grant.units.to_le_bytes());
    payload.extend_from_slice(&(grant.label.len() as u32).to_le_bytes());
    payload.extend_from_slice(grant.label.as_bytes());
    payload
}

/// Most granted ids one checkpoint record holds: its payload is the kind
/// byte, the `u64` total, the `u32` id count and 8 bytes per id, and must
/// stay within [`MAX_RECORD_LEN`].
const MAX_CHECKPOINT_IDS: usize = (MAX_RECORD_LEN as usize - 13) / 8;

/// Refuses a checkpoint of `granted` ids that one record cannot hold.
pub(crate) fn check_checkpoint_size(granted: usize) -> Result<(), LedgerError> {
    if granted > MAX_CHECKPOINT_IDS {
        return Err(LedgerError::CheckpointTooLarge { granted });
    }
    Ok(())
}

fn encode_checkpoint_payload(ckpt: &CheckpointRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(13 + 8 * ckpt.granted.len());
    payload.push(KIND_CHECKPOINT);
    payload.extend_from_slice(&ckpt.spent_units.to_le_bytes());
    payload.extend_from_slice(&(ckpt.granted.len() as u32).to_le_bytes());
    for id in &ckpt.granted {
        payload.extend_from_slice(&id.to_le_bytes());
    }
    payload
}

fn frame_record(payload: Vec<u8>) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_RECORD_LEN as usize,
        "record payload exceeds the format bound"
    );
    let len = payload.len() as u32;
    let mut record = Vec::with_capacity(12 + payload.len());
    record.extend_from_slice(&len.to_le_bytes());
    record.extend_from_slice(&crc32(&len.to_le_bytes()).to_le_bytes());
    record.extend_from_slice(&payload);
    record.extend_from_slice(&crc32(&payload).to_le_bytes());
    record
}

fn encode_record(grant: &GrantRecord) -> Vec<u8> {
    frame_record(encode_grant_payload(grant))
}

fn encode_checkpoint_record(ckpt: &CheckpointRecord) -> Vec<u8> {
    frame_record(encode_checkpoint_payload(ckpt))
}

/// A bounds-checked little-endian reader over one record payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    offset: u64,
}

impl<'a> Cursor<'a> {
    fn corrupt(&self, detail: &str) -> LedgerError {
        LedgerError::Corrupt {
            offset: self.offset,
            detail: detail.to_string(),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], LedgerError> {
        if self.bytes.len() - self.pos < n {
            return Err(self.corrupt(&format!("payload too short for {what}")));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self, what: &str) -> Result<u8, LedgerError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, LedgerError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, what: &str) -> Result<u64, LedgerError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    fn string(&mut self, what: &str) -> Result<String, LedgerError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| self.corrupt(&format!("{what} is not valid UTF-8")))
    }

    fn finish(&self) -> Result<(), LedgerError> {
        if self.pos != self.bytes.len() {
            return Err(self.corrupt("payload has trailing bytes"));
        }
        Ok(())
    }
}

/// A decoded record.
enum Record {
    Grant(GrantRecord),
    Checkpoint(CheckpointRecord),
}

fn decode_payload(payload: &[u8], offset: u64) -> Result<Record, LedgerError> {
    let mut cur = Cursor {
        bytes: payload,
        pos: 0,
        offset,
    };
    match cur.u8("record kind")? {
        KIND_GRANT => {
            let request_id = cur.u64("grant request id")?;
            let units = cur.u64("grant units")?;
            let label = cur.string("grant label")?;
            cur.finish()?;
            if units == 0 {
                return Err(cur.corrupt("grant units are zero"));
            }
            Ok(Record::Grant(GrantRecord {
                request_id,
                units,
                label,
            }))
        }
        KIND_CHECKPOINT => {
            let spent_units = cur.u64("checkpoint spent units")?;
            let n_granted = cur.u32("checkpoint grant count")?;
            let mut granted = Vec::with_capacity(n_granted.min(1 << 20) as usize);
            for _ in 0..n_granted {
                granted.push(cur.u64("checkpoint granted id")?);
            }
            cur.finish()?;
            Ok(Record::Checkpoint(CheckpointRecord {
                spent_units,
                granted,
            }))
        }
        kind => Err(cur.corrupt(&format!("unknown record kind {kind}"))),
    }
}

/// Replays the ledger at `path` without modifying it.
///
/// A missing file and an empty or torn-header file recover as empty; a torn
/// tail is reported via [`Recovery::truncated_bytes`]; a corrupt interior is
/// a typed error (see the module docs for the torn/corrupt distinction).
/// Any magic other than `DPXWAL03` is [`LedgerError::BadMagic`].
pub fn recover(path: &Path) -> Result<Recovery, LedgerError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Recovery::empty()),
        Err(e) => return Err(e.into()),
    };
    recover_bytes(&bytes)
}

fn recover_bytes(bytes: &[u8]) -> Result<Recovery, LedgerError> {
    if bytes.len() < MAGIC.len() {
        // A crash between create and the first sync can leave a partial
        // magic; there is nothing recorded yet, so the ledger is fresh.
        return Ok(Recovery {
            truncated_bytes: bytes.len() as u64,
            ..Recovery::empty()
        });
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(LedgerError::BadMagic);
    }
    let mut recovery = Recovery::empty();
    let mut pos = MAGIC.len();
    // The running total must stay representable: an overflowing sum could
    // only wrap or saturate, and either would forget spent ε.
    let mut spent: u64 = 0;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            recovery.valid_len = pos as u64;
            return Ok(recovery);
        }
        if remaining < 8 {
            // Not even a full header: torn tail.
            recovery.valid_len = pos as u64;
            recovery.truncated_bytes = remaining as u64;
            return Ok(recovery);
        }
        let len_bytes: [u8; 4] = bytes[pos..pos + 4].try_into().expect("4 bytes");
        let hcrc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if crc32(&len_bytes) != hcrc {
            return Err(LedgerError::Corrupt {
                offset: pos as u64,
                detail: "header checksum mismatch".to_string(),
            });
        }
        let len = u32::from_le_bytes(len_bytes);
        if len > MAX_RECORD_LEN {
            // The writer bounds lengths, and a torn write cannot fabricate a
            // checksum-valid oversized header — this is corruption.
            return Err(LedgerError::Corrupt {
                offset: pos as u64,
                detail: format!("record length {len} exceeds the format bound"),
            });
        }
        let need = 8 + len as usize + 4;
        if remaining < need {
            // Valid header, short payload: an append cut off mid-record.
            recovery.valid_len = pos as u64;
            recovery.truncated_bytes = remaining as u64;
            return Ok(recovery);
        }
        let payload = &bytes[pos + 8..pos + 8 + len as usize];
        let pcrc = u32::from_le_bytes(
            bytes[pos + 8 + len as usize..pos + need]
                .try_into()
                .expect("4 bytes"),
        );
        if crc32(payload) != pcrc {
            return Err(LedgerError::Corrupt {
                offset: pos as u64,
                detail: "payload checksum mismatch".to_string(),
            });
        }
        let record = decode_payload(payload, pos as u64)?;
        let units = match &record {
            Record::Grant(grant) => grant.units,
            Record::Checkpoint(ckpt) => ckpt.spent_units,
        };
        spent = spent
            .checked_add(units)
            .ok_or_else(|| LedgerError::Corrupt {
                offset: pos as u64,
                detail: "spent total overflows u64 units".to_string(),
            })?;
        match record {
            Record::Grant(grant) => recovery.grants.push(grant),
            Record::Checkpoint(ckpt) => {
                if pos != MAGIC.len() {
                    // The writer only ever produces a checkpoint as the
                    // whole file's head; one mid-file cannot be a torn
                    // write and dropping it would forget spent ε.
                    return Err(LedgerError::Corrupt {
                        offset: pos as u64,
                        detail: "checkpoint record not at the head of the file".to_string(),
                    });
                }
                recovery.checkpoint = Some(ckpt);
            }
        }
        pos += need;
    }
}

fn checkpoint_tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".ckpt-tmp");
    path.with_file_name(name)
}

/// Best-effort fsync of `path`'s parent directory, so a just-renamed file's
/// directory entry is durable. Platforms where directories cannot be synced
/// only lose the *compaction* on a crash, never a grant — the pre-rename
/// file already held full history.
fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
}

/// An append handle on a ledger file. Every [`append`](LedgerWriter::append)
/// writes one whole record and `fsync`s before returning — a grant that this
/// type reports as written survives the process.
#[derive(Debug)]
pub struct LedgerWriter {
    file: File,
    path: PathBuf,
}

impl LedgerWriter {
    /// Creates a fresh ledger at `path` (truncating any existing file),
    /// writing and syncing the magic.
    pub fn create(path: &Path) -> Result<Self, LedgerError> {
        let mut file = File::create(path)?;
        file.write_all(MAGIC)?;
        file.sync_data()?;
        Ok(LedgerWriter {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Opens the ledger at `path` for appending, creating it when absent.
    ///
    /// Replays the existing file first; a torn tail is physically truncated
    /// (the crash-recovery rule) before the returned writer appends past it.
    /// A stale checkpoint tmp file (a kill before the checkpoint rename) is
    /// swept. The caller receives the [`Recovery`] to rebuild its
    /// accountant from.
    pub fn open(path: &Path) -> Result<(Self, Recovery), LedgerError> {
        match std::fs::remove_file(checkpoint_tmp_path(path)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let recovery = recover(path)?;
        if recovery.checkpoint.is_none()
            && recovery.grants.is_empty()
            && recovery.valid_len == MAGIC.len() as u64
        {
            // Fresh, missing, or torn-header file: (re)initialize in place.
            return Ok((Self::create(path)?, recovery));
        }
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        if recovery.truncated_bytes > 0 {
            file.set_len(recovery.valid_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(recovery.valid_len))?;
        Ok((
            LedgerWriter {
                file,
                path: path.to_path_buf(),
            },
            recovery,
        ))
    }

    /// Appends one grant record and syncs it to stable storage. On success
    /// the grant is durable; on error nothing may be assumed and the caller
    /// must not treat the spend as accepted.
    pub fn append(&mut self, grant: &GrantRecord) -> Result<(), LedgerError> {
        self.append_all(std::slice::from_ref(grant))
    }

    /// Appends a batch of grant records under a single `fsync` — a group
    /// commit's one durable write, byte-for-byte a run of [`append`]s. The
    /// batch is durable as a whole when this returns. A crash before the
    /// fsync (`ledger.pre_fsync`) may leave any prefix of the batch, which
    /// recovery truncates like any torn tail; after it (`ledger.post_fsync`)
    /// the whole batch is durable even though no spender in it has been
    /// acked yet.
    ///
    /// [`append`]: LedgerWriter::append
    pub fn append_all(&mut self, grants: &[GrantRecord]) -> Result<(), LedgerError> {
        let mut bytes = Vec::new();
        for grant in grants {
            bytes.extend_from_slice(&encode_record(grant));
        }
        self.file.write_all(&bytes)?;
        dpx_runtime::faultpoint::hit(LEDGER_PRE_FSYNC);
        self.file.sync_data()?;
        dpx_runtime::faultpoint::hit(LEDGER_POST_FSYNC);
        Ok(())
    }

    /// Atomically replaces the log with `magic + checkpoint`, truncating the
    /// replayed prefix. The replacement is written to a sibling tmp file and
    /// synced **before** an atomic `rename` over the log, so a kill at any
    /// instruction leaves either the full history or the compacted file —
    /// never a mix, never a loss. After this returns, `recover()` decodes
    /// one record instead of the whole history. A checkpoint with more ids
    /// than one record holds is refused with
    /// [`LedgerError::CheckpointTooLarge`] before anything is written.
    pub fn checkpoint(&mut self, ckpt: &CheckpointRecord) -> Result<(), LedgerError> {
        check_checkpoint_size(ckpt.granted.len())?;
        let tmp = checkpoint_tmp_path(&self.path);
        {
            let mut file = File::create(&tmp)?;
            file.write_all(MAGIC)?;
            file.write_all(&encode_checkpoint_record(ckpt))?;
            file.sync_data()?;
        }
        dpx_runtime::faultpoint::hit(LEDGER_CKPT_PRE_RENAME);
        std::fs::rename(&tmp, &self.path)?;
        sync_parent_dir(&self.path);
        dpx_runtime::faultpoint::hit(LEDGER_CKPT_POST_RENAME);
        // The old handle still points at the unlinked full-history inode;
        // swap in a handle on the compacted file, positioned at its end.
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        Ok(())
    }

    /// The ledger file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dpx-ledger-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_grants() -> Vec<GrantRecord> {
        vec![
            GrantRecord::for_request(7, 300_000_000_000),
            GrantRecord::for_request(2, 100_000_000_000),
            GrantRecord {
                request_id: NO_REQUEST,
                units: 250_000_000_000,
                label: "session/explain ε·λ".to_string(), // non-ASCII label
            },
        ]
    }

    fn sample_checkpoint() -> CheckpointRecord {
        CheckpointRecord {
            spent_units: 1_700_000_000_001,
            granted: vec![1, 2, 9],
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn write_then_recover_roundtrips() {
        let path = tmp("roundtrip.wal");
        let (mut writer, recovery) = LedgerWriter::open(&path).unwrap();
        assert!(recovery.grants.is_empty());
        for g in sample_grants() {
            writer.append(&g).unwrap();
        }
        drop(writer);
        let recovered = recover(&path).unwrap();
        assert_eq!(recovered.grants, sample_grants());
        assert_eq!(recovered.truncated_bytes, 0);
        assert_eq!(recovered.spent_units(), 650_000_000_000);
        assert_eq!(recovered.spent(), 0.65);
        assert_eq!(recovered.records_replayed(), 3);
        assert_eq!(recovered.checkpoint_age(), 3);
        assert_eq!(recovered.granted_ids().collect::<Vec<_>>(), vec![7, 2]);
    }

    #[test]
    fn checkpoint_size_bound_sits_exactly_at_the_record_limit() {
        // The bound's arithmetic matches the encoder's layout...
        for n in [0, 1, 5] {
            let ckpt = CheckpointRecord {
                spent_units: 1,
                granted: vec![7; n],
            };
            assert_eq!(encode_checkpoint_payload(&ckpt).len(), 13 + 8 * n);
        }
        // ...so the largest admitted checkpoint fits one record and one id
        // more would not, checked without allocating the ids.
        let max = MAX_RECORD_LEN as usize;
        assert!(13 + 8 * MAX_CHECKPOINT_IDS <= max);
        assert!(13 + 8 * (MAX_CHECKPOINT_IDS + 1) > max);
        assert_eq!(check_checkpoint_size(MAX_CHECKPOINT_IDS), Ok(()));
        let err = check_checkpoint_size(MAX_CHECKPOINT_IDS + 1).unwrap_err();
        assert_eq!(
            err,
            LedgerError::CheckpointTooLarge {
                granted: MAX_CHECKPOINT_IDS + 1
            }
        );
        assert!(err.to_string().contains("full history"), "{err}");
    }

    #[test]
    fn checkpoint_compacts_and_preserves_state() {
        let path = tmp("ckpt.wal");
        let (mut writer, _) = LedgerWriter::open(&path).unwrap();
        for g in sample_grants() {
            writer.append(&g).unwrap();
        }
        let ckpt = sample_checkpoint();
        writer.checkpoint(&ckpt).unwrap();
        // Appends continue after the checkpoint on the compacted file.
        writer
            .append(&GrantRecord::for_request(4, 125_000_000_000))
            .unwrap();
        drop(writer);

        let recovered = recover(&path).unwrap();
        assert_eq!(recovered.checkpoint, Some(ckpt.clone()));
        assert_eq!(recovered.grants.len(), 1, "history was truncated");
        assert_eq!(recovered.records_replayed(), 2);
        assert_eq!(recovered.checkpoint_age(), 1);
        assert_eq!(
            recovered.granted_ids().collect::<Vec<_>>(),
            vec![1, 2, 9, 4]
        );
        assert_eq!(recovered.spent_units(), ckpt.spent_units + 125_000_000_000);

        // The compacted file is tiny and reopens cleanly.
        let (_, reopened) = LedgerWriter::open(&path).unwrap();
        assert_eq!(reopened.checkpoint, Some(ckpt));
        assert_eq!(reopened.grants.len(), 1);
    }

    #[test]
    fn checkpoint_mid_file_is_typed_corruption() {
        let ckpt = sample_checkpoint();
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&encode_record(&GrantRecord::for_request(
            1,
            500_000_000_000,
        )));
        let ckpt_offset = bytes.len() as u64;
        bytes.extend_from_slice(&encode_checkpoint_record(&ckpt));
        match recover_bytes(&bytes).unwrap_err() {
            LedgerError::Corrupt { offset, detail } => {
                assert_eq!(offset, ckpt_offset);
                assert!(detail.contains("checkpoint"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn stale_checkpoint_tmp_is_swept_on_open() {
        let path = tmp("stale-tmp.wal");
        let (mut writer, _) = LedgerWriter::open(&path).unwrap();
        writer
            .append(&GrantRecord::for_request(1, 500_000_000_000))
            .unwrap();
        drop(writer);
        // Simulate a kill after the tmp write but before the rename.
        let tmp_path = checkpoint_tmp_path(&path);
        std::fs::write(&tmp_path, b"half-written checkpoint").unwrap();
        let (_, recovery) = LedgerWriter::open(&path).unwrap();
        assert_eq!(recovery.grants.len(), 1, "history untouched");
        assert!(!tmp_path.exists(), "stale tmp swept");
    }

    #[test]
    fn append_all_is_one_batch() {
        let path = tmp("batch.wal");
        let (mut writer, _) = LedgerWriter::open(&path).unwrap();
        writer.append_all(&sample_grants()).unwrap();
        drop(writer);
        let recovered = recover(&path).unwrap();
        assert_eq!(recovered.grants, sample_grants());
    }

    #[test]
    fn append_all_is_bytewise_a_run_of_appends() {
        let batched = tmp("group.wal");
        let single = tmp("single.wal");
        let (mut bw, _) = LedgerWriter::open(&batched).unwrap();
        let (mut sw, _) = LedgerWriter::open(&single).unwrap();
        bw.append_all(&sample_grants()).unwrap();
        for grant in &sample_grants() {
            sw.append(grant).unwrap();
        }
        drop(bw);
        drop(sw);
        assert_eq!(
            std::fs::read(&batched).unwrap(),
            std::fs::read(&single).unwrap(),
            "group commit changes fsync count, never bytes"
        );
        assert_eq!(recover(&batched).unwrap().grants, sample_grants());
    }

    #[test]
    fn legacy_files_are_refused_and_left_untouched() {
        // v1: the old magic followed by one framed, kindless f64 grant.
        let mut v1 = 7u64.to_le_bytes().to_vec();
        v1.extend_from_slice(&0.25f64.to_bits().to_le_bytes());
        v1.extend_from_slice(&0u32.to_le_bytes());
        // v2: a kinded f64 grant with an empty parallel-composition group.
        let mut v2 = vec![KIND_GRANT];
        v2.extend_from_slice(&7u64.to_le_bytes());
        v2.extend_from_slice(&0.25f64.to_bits().to_le_bytes());
        v2.extend_from_slice(&0u32.to_le_bytes());
        v2.extend_from_slice(&0u32.to_le_bytes());
        let dir = tmp("legacy-shards");
        std::fs::create_dir_all(&dir).unwrap();
        let shards = crate::shards::AccountantShards::in_dir(&dir).unwrap();
        for (magic, payload) in [(b"DPXWAL01", v1), (b"DPXWAL02", v2)] {
            let mut bytes = magic.to_vec();
            bytes.extend_from_slice(&frame_record(payload));
            let dataset = String::from_utf8_lossy(magic).to_string();
            let path = shards.wal_path(&dataset).unwrap();
            std::fs::write(&path, &bytes).unwrap();

            assert_eq!(recover(&path).unwrap_err(), LedgerError::BadMagic);
            assert_eq!(
                LedgerWriter::open(&path).unwrap_err(),
                LedgerError::BadMagic
            );
            let err = shards
                .open(&dataset, crate::shards::ShardConfig::default())
                .unwrap_err();
            assert!(err.to_string().contains("wrong magic"), "{err}");
            assert_eq!(
                std::fs::read(&path).unwrap(),
                bytes,
                "{dataset} file was modified"
            );
        }
    }

    #[test]
    fn reopen_appends_after_existing_records() {
        let path = tmp("reopen.wal");
        let (mut writer, _) = LedgerWriter::open(&path).unwrap();
        writer
            .append(&GrantRecord::for_request(1, 500_000_000_000))
            .unwrap();
        drop(writer);
        let (mut writer, recovery) = LedgerWriter::open(&path).unwrap();
        assert_eq!(recovery.grants.len(), 1);
        writer
            .append(&GrantRecord::for_request(2, 250_000_000_000))
            .unwrap();
        drop(writer);
        let recovered = recover(&path).unwrap();
        assert_eq!(recovered.grants.len(), 2);
        assert_eq!(recovered.grants[1].request_id, 2);
    }

    #[test]
    fn missing_file_recovers_empty() {
        let recovery = recover(&tmp("never-written.wal")).unwrap();
        assert!(recovery.grants.is_empty());
        assert!(recovery.checkpoint.is_none());
        assert_eq!(recovery.truncated_bytes, 0);
    }

    #[test]
    fn torn_tail_truncates_to_last_valid_record() {
        let path = tmp("torn.wal");
        let (mut writer, _) = LedgerWriter::open(&path).unwrap();
        for g in sample_grants() {
            writer.append(&g).unwrap();
        }
        drop(writer);
        let full = std::fs::read(&path).unwrap();
        // Cut 5 bytes into the last record.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let recovery = recover(&path).unwrap();
        assert_eq!(recovery.grants.len(), sample_grants().len() - 1);
        assert!(recovery.truncated_bytes > 0);

        // Reopening physically truncates and appends cleanly after the cut.
        let (mut writer, _) = LedgerWriter::open(&path).unwrap();
        writer
            .append(&GrantRecord::for_request(9, 100_000_000_000))
            .unwrap();
        drop(writer);
        let healed = recover(&path).unwrap();
        assert_eq!(healed.truncated_bytes, 0);
        assert_eq!(healed.grants.len(), sample_grants().len());
        assert_eq!(healed.grants.last().unwrap().request_id, 9);
    }

    #[test]
    fn interior_bitflip_is_typed_corruption() {
        let path = tmp("bitflip.wal");
        let (mut writer, _) = LedgerWriter::open(&path).unwrap();
        for g in sample_grants() {
            writer.append(&g).unwrap();
        }
        drop(writer);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit in the first record's payload (well inside the file).
        bytes[MAGIC.len() + 10] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match recover(&path).unwrap_err() {
            LedgerError::Corrupt { offset, .. } => {
                assert_eq!(offset, MAGIC.len() as u64);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn wrong_magic_is_rejected_not_recovered() {
        let path = tmp("magic.wal");
        std::fs::write(&path, b"definitely not a ledger file").unwrap();
        assert_eq!(recover(&path).unwrap_err(), LedgerError::BadMagic);
        assert!(LedgerWriter::open(&path).is_err(), "open must not clobber");
    }

    #[test]
    fn io_error_preserves_kind() {
        let err = recover(Path::new("/nonexistent-dir/x/y.wal"));
        // Reading a file under a missing directory is NotFound -> empty
        // recovery; creating under it is the error path.
        assert!(err.is_ok());
        let err = LedgerWriter::create(Path::new("/nonexistent-dir/x/y.wal")).unwrap_err();
        match err {
            LedgerError::Io { kind, .. } => {
                assert_eq!(kind, std::io::ErrorKind::NotFound);
            }
            other => panic!("expected Io, got {other:?}"),
        }
        assert!(err.to_string().contains("NotFound"), "{err}");
    }

    #[test]
    fn zero_units_in_record_is_corruption() {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&encode_record(&GrantRecord::for_request(1, 0)));
        match recover_bytes(&bytes).unwrap_err() {
            LedgerError::Corrupt { detail, .. } => assert!(detail.contains("units"), "{detail}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn overflowing_spent_total_is_corruption() {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&encode_record(&GrantRecord::for_request(1, u64::MAX)));
        let second = bytes.len() as u64;
        bytes.extend_from_slice(&encode_record(&GrantRecord::for_request(2, 1)));
        match recover_bytes(&bytes).unwrap_err() {
            LedgerError::Corrupt { offset, detail } => {
                assert_eq!(offset, second);
                assert!(detail.contains("overflows"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
