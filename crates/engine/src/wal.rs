//! Write-ahead logging, snapshots, and crash recovery (DESIGN.md §13).
//!
//! Every [`Statement`] batch the engine commits — an `apply_batch` batch
//! or a single-statement verb, logged as a one-statement batch — appends
//! one length-prefixed, FNV-64-checksummed record to a write-ahead log
//! *before* the in-memory commit becomes visible to the caller. Snapshots
//! capture the full state plus the catalog (schema, profile, relation
//! versions) and start a fresh log generation: periodically, bounding
//! replay time, and as the commit of a durable [`Database::load_state`] —
//! which is how a [`Database::migrate`] commits, so the log holds batches
//! only.
//!
//! ## On-disk layout
//!
//! A data directory holds exactly one live generation `N`:
//!
//! ```text
//! <dir>/snapshot-N.snap   full state at the moment the generation began
//! <dir>/wal-N.log         records committed since that snapshot
//! ```
//!
//! Both files begin with an 8-byte magic (`RMSNAP01` / `RMWAL001`). A WAL
//! record is `u32 LE payload length ++ u64 LE FNV-1a(payload) ++ payload`;
//! the snapshot body uses the same framing once. Snapshot installation is
//! create the new empty log → write-to-`.tmp` → fsync → rename → fsync
//! directory → only then delete the previous generation. The log comes
//! *first* because the rename is the commit point of generation `N+1`: it
//! must never become durable without a log file ready to receive the
//! appends that follow. A crash or failure at any point leaves at least
//! one complete generation on disk (`.tmp` files and logs without a
//! matching snapshot are ignored on recovery).
//!
//! ## Recovery
//!
//! [`Database::recover`] loads the newest snapshot that passes its
//! checksum, replays the log suffix record by record through
//! `apply_batch` (a single statement's one-statement record validates the
//! same rows on either checking schedule), tolerates a torn or
//! truncated tail record (replay stops at the first frame whose length or
//! checksum does not verify), deep-checks the result with
//! [`Database::verify_integrity`], and only then truncates the torn tail
//! and reopens the log for appending. A fault injected *during*
//! recovery (site [`site::RECOVERY_REPLAY`], error or panic mode) aborts
//! before anything on disk is touched, so the next attempt starts from the
//! same bytes and succeeds.
//!
//! [`Statement`]: crate::Statement

use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use relmerge_obs as obs;
use relmerge_relational::{
    Attribute, DatabaseState, Domain, Error, Fd, InclusionDep, NullConstraint, Relation,
    RelationScheme, RelationalSchema, Result, Tuple, Value,
};

use crate::batch::Statement;
use crate::database::{owned_relations, Database, EngineConfig};
use crate::fault::{contain, site, FaultPlan};
use crate::{DbmsProfile, Mechanism};

/// Magic prefix of every WAL file.
const WAL_MAGIC: &[u8; 8] = b"RMWAL001";
/// Magic prefix of every snapshot file.
const SNAP_MAGIC: &[u8; 8] = b"RMSNAP01";
/// Record-frame header: `u32` payload length + `u64` FNV-1a checksum.
const FRAME_HEADER: u64 = 12;
/// Payload tag of a committed statement batch, the one record kind. A
/// log written by an older build may hold a migration record (tag 2):
/// recovery refuses it typed rather than decoding it as a batch.
const REC_BATCH: u8 = 1;
/// Largest payload recovery will believe; anything bigger is treated as a
/// torn length field. Enforced symmetrically at append/snapshot-write
/// time with a typed error, so an oversized payload can never be acked
/// durable only for recovery to discard it.
const MAX_RECORD_BYTES: u32 = 1 << 30;

/// Rejects a payload of `len` bytes that recovery would refuse to
/// replay. The u32 length field wraps at 4 GiB and recovery treats
/// anything over [`MAX_RECORD_BYTES`] as a torn tail — both must fail
/// loudly at write time instead of silently losing the record (and
/// everything after it) on the next recovery.
fn check_payload_size(kind: &str, len: usize) -> Result<()> {
    if len as u64 > u64::from(MAX_RECORD_BYTES) {
        return Err(Error::Durability {
            detail: format!(
                "{kind} payload of {len} bytes exceeds the {MAX_RECORD_BYTES}-byte record limit"
            ),
        });
    }
    Ok(())
}

/// Default batches between snapshots (see
/// [`DurabilityConfig::snapshot_every`]).
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 256;

/// The checksum of a log record or snapshot payload: FNV-1a 64, plenty
/// for torn-write detection (crypto is not the threat model).
/// Hand-rolled because `std`'s `DefaultHasher` is not stable across Rust
/// releases, and a log must read the same in every build.
fn checksum(payload: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in payload {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// When the WAL flushes its file to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fdatasync` after every appended record — a committed batch is
    /// durable the moment the caller sees `Ok`. The default.
    #[default]
    Always,
    /// Never fsync the log (the OS flushes at its leisure). Crash
    /// recovery still works — it simply may land on an earlier durable
    /// prefix. For benchmarks and tests.
    Never,
}

impl FsyncPolicy {
    /// Short label (`"always"` / `"never"`), used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Never => "never",
        }
    }
}

/// The durability knobs of [`EngineConfig`]: where the data directory
/// lives, how often to snapshot, and when to fsync.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    dir: PathBuf,
    snapshot_every: u64,
    fsync: FsyncPolicy,
}

impl DurabilityConfig {
    /// Durability in `dir` with the defaults: a snapshot every
    /// [`DEFAULT_SNAPSHOT_EVERY`] committed batches and
    /// [`FsyncPolicy::Always`].
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            fsync: FsyncPolicy::default(),
        }
    }

    /// Sets how many committed batches accumulate in the log before a
    /// snapshot is installed and the log truncated. `0` disables periodic
    /// snapshots — the log grows until recovery.
    #[must_use]
    pub fn snapshot_every(mut self, batches: u64) -> Self {
        self.snapshot_every = batches;
        self
    }

    /// Sets the fsync policy.
    #[must_use]
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }
}

/// What one [`Database::recover`] run did — the one-line recovery report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The snapshot generation recovery started from.
    pub generation: u64,
    /// Batch records replayed from the log suffix.
    pub batches_replayed: u64,
    /// Whether a torn/truncated/corrupted tail record was detected (and
    /// discarded).
    pub torn_tail: bool,
    /// Bytes of torn tail truncated away after successful replay.
    pub truncated_bytes: u64,
    /// Valid WAL bytes replayed (excluding the file magic).
    pub wal_bytes_replayed: u64,
    /// Wall time of the whole recovery, in nanoseconds.
    pub replay_ns: u64,
}

impl RecoveryReport {
    /// Total records replayed: every record is a batch.
    #[must_use]
    pub fn records_replayed(&self) -> u64 {
        self.batches_replayed
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovered: snapshot generation {}, {} batch record(s) replayed ({} WAL bytes, \
             {:.1} ms), torn tail: {}",
            self.generation,
            self.batches_replayed,
            self.wal_bytes_replayed,
            self.replay_ns as f64 / 1e6,
            if self.torn_tail {
                format!("yes ({} byte(s) discarded)", self.truncated_bytes)
            } else {
                "no".to_owned()
            }
        )
    }
}

/// Whether `dir` holds an initialized data directory (at least one
/// snapshot file, complete or not) — the create-vs-recover discriminator
/// the `sdt --data-dir` flag uses.
#[must_use]
pub fn is_initialized(dir: &Path) -> bool {
    list_generations(dir).is_ok_and(|g| !g.is_empty())
}

fn io_err(context: &str, path: &Path, e: &std::io::Error) -> Error {
    Error::Durability {
        detail: format!("{context} `{}`: {e}", path.display()),
    }
}

fn corrupt(detail: impl Into<String>) -> Error {
    Error::Durability {
        detail: detail.into(),
    }
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation}.log"))
}

fn snap_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot-{generation}.snap"))
}

/// Snapshot generations present in `dir`, newest first (`.tmp` leftovers
/// are ignored — they never finished installing).
fn list_generations(dir: &Path) -> Result<Vec<u64>> {
    let mut generations = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err("cannot list data dir", dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("cannot list data dir", dir, &e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(g) = name
            .strip_prefix("snapshot-")
            .and_then(|r| r.strip_suffix(".snap"))
            .and_then(|g| g.parse::<u64>().ok())
        {
            generations.push(g);
        }
    }
    generations.sort_unstable_by(|a, b| b.cmp(a));
    Ok(generations)
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

/// Append-only byte encoder of one frame: a WAL record, or a whole
/// snapshot file. The frame header (after a snapshot file's magic) is
/// reserved up front and filled in by [`Enc::seal`], so a frame is
/// encoded into, and written from, one buffer: its payload is never
/// copied.
struct Enc {
    buf: Vec<u8>,
    /// Where the payload starts: just past the reserved frame header.
    payload_at: usize,
}

impl Enc {
    /// An empty frame of a file that starts with `magic` (empty for a log
    /// record, which follows the log's own magic).
    fn frame(magic: &[u8]) -> Self {
        let payload_at = magic.len() + FRAME_HEADER as usize;
        let mut buf = Vec::with_capacity(payload_at);
        buf.extend_from_slice(magic);
        buf.resize(payload_at, 0);
        Enc { buf, payload_at }
    }

    /// The payload encoded so far.
    fn payload(&self) -> &[u8] {
        &self.buf[self.payload_at..]
    }

    /// Fills in the frame header — the payload's length and checksum — and
    /// returns the bytes to write. Fails, before the checksum is taken, on
    /// a payload recovery would refuse to read.
    fn seal(mut self, kind: &str) -> Result<Vec<u8>> {
        let len = self.buf.len() - self.payload_at;
        check_payload_size(kind, len)?;
        let sum = checksum(self.payload());
        let header = &mut self.buf[self.payload_at - FRAME_HEADER as usize..self.payload_at];
        header[..4].copy_from_slice(&(len as u32).to_le_bytes());
        header[4..].copy_from_slice(&sum.to_le_bytes());
        Ok(self.buf)
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn str_list(&mut self, items: &[String]) {
        self.u32(items.len() as u32);
        for s in items {
            self.str(s);
        }
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Int(i) => {
                self.u8(1);
                self.i64(*i);
            }
            Value::Text(t) => {
                self.u8(2);
                self.str(t);
            }
            Value::Bool(b) => {
                self.u8(3);
                self.bool(*b);
            }
            Value::Date(d) => {
                self.u8(4);
                self.i64(*d);
            }
        }
    }

    fn tuple(&mut self, t: &Tuple) {
        self.u32(t.arity() as u32);
        for v in t.values() {
            self.value(v);
        }
    }

    fn statement(&mut self, s: &Statement) {
        match s {
            Statement::Insert { rel, tuple } => {
                self.u8(1);
                self.str(rel);
                self.tuple(tuple);
            }
            Statement::Delete { rel, key } => {
                self.u8(2);
                self.str(rel);
                self.tuple(key);
            }
            Statement::Update { rel, key, tuple } => {
                self.u8(3);
                self.str(rel);
                self.tuple(key);
                self.tuple(tuple);
            }
        }
    }

    fn domain(&mut self, d: Domain) {
        self.u8(match d {
            Domain::Int => 1,
            Domain::Text => 2,
            Domain::Bool => 3,
            Domain::Date => 4,
        });
    }

    fn attrs(&mut self, attrs: &[Attribute]) {
        self.u32(attrs.len() as u32);
        for a in attrs {
            self.str(a.name());
            self.domain(a.domain());
        }
    }

    fn mechanism(&mut self, m: Mechanism) {
        self.u8(match m {
            Mechanism::Unsupported => 0,
            Mechanism::Declarative => 1,
            Mechanism::Procedural => 2,
        });
    }

    fn profile(&mut self, p: &DbmsProfile) {
        self.str(p.name);
        self.mechanism(p.referential_integrity);
        self.mechanism(p.non_key_inds);
        self.mechanism(p.nna);
        self.mechanism(p.general_null_constraints);
        self.bool(p.nullable_keys);
        self.bool(p.deferred_checking);
    }

    fn schema(&mut self, schema: &RelationalSchema) {
        let schemes = schema.schemes();
        self.u32(schemes.len() as u32);
        for s in schemes {
            self.str(s.name());
            self.attrs(s.attrs());
            let keys = s.candidate_keys();
            self.u32(keys.len() as u32);
            for key in keys {
                self.u32(key.len() as u32);
                for k in key {
                    self.str(k);
                }
            }
        }
        let inds = schema.inds();
        self.u32(inds.len() as u32);
        for ind in inds {
            self.str(&ind.lhs_rel);
            self.str_list(&ind.lhs_attrs);
            self.str(&ind.rhs_rel);
            self.str_list(&ind.rhs_attrs);
        }
        let nulls = schema.null_constraints();
        self.u32(nulls.len() as u32);
        for c in nulls {
            match c {
                NullConstraint::NullExistence { rel, lhs, rhs } => {
                    self.u8(1);
                    self.str(rel);
                    self.str_list(lhs);
                    self.str_list(rhs);
                }
                NullConstraint::NullSync { rel, attrs } => {
                    self.u8(2);
                    self.str(rel);
                    self.str_list(attrs);
                }
                NullConstraint::PartNull { rel, groups } => {
                    self.u8(3);
                    self.str(rel);
                    self.u32(groups.len() as u32);
                    for g in groups {
                        self.str_list(g);
                    }
                }
                NullConstraint::TotalEquality { rel, lhs, rhs } => {
                    self.u8(4);
                    self.str(rel);
                    self.str_list(lhs);
                    self.str_list(rhs);
                }
            }
        }
        let fds = schema.extra_fds();
        self.u32(fds.len() as u32);
        for fd in fds {
            self.str(&fd.rel);
            self.str_list(&fd.lhs);
            self.str_list(&fd.rhs);
        }
    }

    fn versions(&mut self, versions: &[(String, u64)]) {
        self.u32(versions.len() as u32);
        for (name, v) in versions {
            self.str(name);
            self.u64(*v);
        }
    }
}

/// Bounds-checked byte decoder over one payload.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                corrupt(format!(
                    "record payload truncated: wanted {n} byte(s) at offset {}",
                    self.pos
                ))
            })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn done(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(corrupt(format!(
                "record payload has {} trailing byte(s)",
                self.buf.len() - self.pos
            )))
        }
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(corrupt(format!("invalid bool byte {other}"))),
        }
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// A length-checked count of variable-size items; each item needs at
    /// least one byte, so the count can never exceed the remaining bytes
    /// (rejects absurd counts before any allocation).
    fn count(&mut self) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(corrupt(format!(
                "item count {n} exceeds remaining payload ({} byte(s))",
                self.buf.len() - self.pos
            )));
        }
        Ok(n)
    }

    /// A string field, borrowed from the payload.
    fn str_ref(&mut self) -> Result<&'a str> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?)
            .map_err(|_| corrupt("string field is not valid UTF-8".to_owned()))
    }

    fn str(&mut self) -> Result<String> {
        self.str_ref().map(str::to_owned)
    }

    fn str_list(&mut self) -> Result<Vec<String>> {
        let n = self.count()?;
        (0..n).map(|_| self.str()).collect()
    }

    fn value(&mut self) -> Result<Value> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.i64()?)),
            2 => Ok(Value::text(self.str_ref()?)),
            3 => Ok(Value::Bool(self.bool()?)),
            4 => Ok(Value::Date(self.i64()?)),
            other => Err(corrupt(format!("invalid value tag {other}"))),
        }
    }

    /// A tuple, its values allocated once at their exact count.
    fn tuple(&mut self) -> Result<Tuple> {
        let n = self.count()?;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(self.value()?);
        }
        Ok(Tuple::new(values))
    }

    fn statement(&mut self) -> Result<Statement> {
        match self.u8()? {
            1 => Ok(Statement::Insert {
                rel: self.str()?,
                tuple: self.tuple()?,
            }),
            2 => Ok(Statement::Delete {
                rel: self.str()?,
                key: self.tuple()?,
            }),
            3 => Ok(Statement::Update {
                rel: self.str()?,
                key: self.tuple()?,
                tuple: self.tuple()?,
            }),
            other => Err(corrupt(format!("invalid statement tag {other}"))),
        }
    }

    fn domain(&mut self) -> Result<Domain> {
        match self.u8()? {
            1 => Ok(Domain::Int),
            2 => Ok(Domain::Text),
            3 => Ok(Domain::Bool),
            4 => Ok(Domain::Date),
            other => Err(corrupt(format!("invalid domain tag {other}"))),
        }
    }

    fn attrs(&mut self) -> Result<Vec<Attribute>> {
        let n = self.count()?;
        (0..n)
            .map(|_| {
                let name = self.str()?;
                Ok(Attribute::new(name, self.domain()?))
            })
            .collect()
    }

    fn mechanism(&mut self) -> Result<Mechanism> {
        match self.u8()? {
            0 => Ok(Mechanism::Unsupported),
            1 => Ok(Mechanism::Declarative),
            2 => Ok(Mechanism::Procedural),
            other => Err(corrupt(format!("invalid mechanism tag {other}"))),
        }
    }

    fn profile(&mut self) -> Result<DbmsProfile> {
        let name = self.str()?;
        // Profile names are `&'static str`; map the persisted name back to
        // the built-in it came from, falling back to a generic label for
        // hand-rolled profiles (their capabilities are what matter, and
        // those round-trip field by field below).
        let static_name = DbmsProfile::BUILT_IN
            .iter()
            .find(|p| p.name == name)
            .map_or("custom", |p| p.name);
        Ok(DbmsProfile {
            name: static_name,
            referential_integrity: self.mechanism()?,
            non_key_inds: self.mechanism()?,
            nna: self.mechanism()?,
            general_null_constraints: self.mechanism()?,
            nullable_keys: self.bool()?,
            deferred_checking: self.bool()?,
        })
    }

    fn schema(&mut self) -> Result<RelationalSchema> {
        let mut schema = RelationalSchema::new();
        for _ in 0..self.count()? {
            let name = self.str()?;
            let attrs = self.attrs()?;
            let keys: Result<Vec<Vec<String>>> = (0..self.count()?)
                .map(|_| (0..self.count()?).map(|_| self.str()).collect())
                .collect();
            let keys = keys?;
            let key_refs: Vec<Vec<&str>> = keys
                .iter()
                .map(|k| k.iter().map(String::as_str).collect())
                .collect();
            let key_slices: Vec<&[&str]> = key_refs.iter().map(Vec::as_slice).collect();
            schema.add_scheme(RelationScheme::with_candidate_keys(
                name,
                attrs,
                &key_slices,
            )?)?;
        }
        for _ in 0..self.count()? {
            let lhs_rel = self.str()?;
            let lhs_attrs = self.str_list()?;
            let rhs_rel = self.str()?;
            let rhs_attrs = self.str_list()?;
            schema.add_ind(InclusionDep {
                lhs_rel,
                lhs_attrs,
                rhs_rel,
                rhs_attrs,
            })?;
        }
        for _ in 0..self.count()? {
            let c = match self.u8()? {
                1 => NullConstraint::NullExistence {
                    rel: self.str()?,
                    lhs: self.str_list()?,
                    rhs: self.str_list()?,
                },
                2 => NullConstraint::NullSync {
                    rel: self.str()?,
                    attrs: self.str_list()?,
                },
                3 => {
                    let rel = self.str()?;
                    let groups: Result<Vec<Vec<String>>> =
                        (0..self.count()?).map(|_| self.str_list()).collect();
                    NullConstraint::PartNull {
                        rel,
                        groups: groups?,
                    }
                }
                4 => NullConstraint::TotalEquality {
                    rel: self.str()?,
                    lhs: self.str_list()?,
                    rhs: self.str_list()?,
                },
                other => return Err(corrupt(format!("invalid null-constraint tag {other}"))),
            };
            schema.add_null_constraint(c)?;
        }
        for _ in 0..self.count()? {
            schema.add_fd(Fd {
                rel: self.str()?,
                lhs: self.str_list()?,
                rhs: self.str_list()?,
            })?;
        }
        Ok(schema)
    }

    fn state(&mut self) -> Result<DatabaseState> {
        let mut state = DatabaseState::new();
        for _ in 0..self.count()? {
            let name = self.str()?;
            let header = self.attrs()?;
            let rows: Result<Vec<Tuple>> = (0..self.count()?).map(|_| self.tuple()).collect();
            state.set_relation(name, Relation::with_rows(header, rows?)?);
        }
        Ok(state)
    }

    fn versions(&mut self) -> Result<Vec<(String, u64)>> {
        (0..self.count()?)
            .map(|_| Ok((self.str()?, self.u64()?)))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Record payloads
// ---------------------------------------------------------------------------

fn encode_batch(stmts: &[Statement]) -> Enc {
    let mut e = Enc::frame(&[]);
    e.u8(REC_BATCH);
    e.u32(stmts.len() as u32);
    for s in stmts {
        e.statement(s);
    }
    e
}

/// Everything a snapshot persists: the logical catalog plus the data.
struct SnapshotBody {
    profile: DbmsProfile,
    schema: RelationalSchema,
    state: DatabaseState,
    versions: Vec<(String, u64)>,
}

/// The snapshot file of `db`. Its state is written straight from the
/// tables, with no [`DatabaseState`] built first: each relation's name,
/// header, live count and live rows in slot order, relations in name
/// order — the bytes [`Database::snapshot`]'s state would encode to.
fn encode_snapshot(db: &Database) -> Enc {
    let mut e = Enc::frame(SNAP_MAGIC);
    e.profile(db.profile());
    e.schema(db.schema());
    e.u32(db.tables.len() as u32);
    for (name, table) in &db.tables {
        e.str(name);
        e.attrs(&table.header);
        e.u32(table.live as u32);
        for t in table.rows.iter().flatten() {
            e.tuple(t);
        }
    }
    e.versions(&db.relation_versions());
    e
}

fn decode_snapshot(payload: &[u8]) -> Result<SnapshotBody> {
    let mut d = Dec::new(payload);
    let profile = d.profile()?;
    let schema = d.schema()?;
    let state = d.state()?;
    let versions = d.versions()?;
    d.done()?;
    Ok(SnapshotBody {
        profile,
        schema,
        state,
        versions,
    })
}

// ---------------------------------------------------------------------------
// The log itself
// ---------------------------------------------------------------------------

/// State behind the [`Wal`] mutex: the open log file and its bookkeeping.
struct WalInner {
    file: File,
    generation: u64,
    /// Bytes of valid log written so far (magic included).
    offset: u64,
    /// Committed batches since the generation began (drives the snapshot
    /// cadence).
    batches_since_snapshot: u64,
    /// Set when a failed append could not be scrubbed back off the file;
    /// further appends refuse rather than write after junk.
    poisoned: bool,
}

/// The write-ahead log of one durable [`Database`]. Interior-mutable
/// (appends happen from `&self` inside the batch machinery); never cloned
/// — a [`Database::fork`] is an in-memory copy and carries no log.
pub(crate) struct Wal {
    cfg: DurabilityConfig,
    inner: Mutex<WalInner>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal").field("cfg", &self.cfg).finish()
    }
}

impl Wal {
    /// Initializes a fresh data directory for `db`: creates it, writes the
    /// generation-0 snapshot of the (typically empty) current state, and
    /// opens an empty generation-0 log. Refuses a directory that already
    /// holds a snapshot — that data belongs to [`Database::recover`].
    pub(crate) fn initialize(cfg: DurabilityConfig, db: &Database) -> Result<Wal> {
        fs::create_dir_all(&cfg.dir).map_err(|e| io_err("cannot create data dir", &cfg.dir, &e))?;
        if is_initialized(&cfg.dir) {
            return Err(Error::Durability {
                detail: format!(
                    "data dir `{}` already holds a snapshot; use Database::recover",
                    cfg.dir.display()
                ),
            });
        }
        write_snapshot_file(&cfg, 0, encode_snapshot(db))?;
        let file = create_log_file(&cfg, 0)?;
        Ok(Wal {
            cfg,
            inner: Mutex::new(WalInner {
                file,
                generation: 0,
                offset: WAL_MAGIC.len() as u64,
                batches_since_snapshot: 0,
                poisoned: false,
            }),
        })
    }

    /// The durability knobs this log runs under.
    pub(crate) fn config(&self) -> &DurabilityConfig {
        &self.cfg
    }

    /// The current generation and valid byte offset — `(gen, offset)`.
    /// Exposed for the crash-torture harness, which truncates the literal
    /// file at every offset below this.
    pub(crate) fn position(&self) -> (u64, u64) {
        let g = self.lock();
        (g.generation, g.offset)
    }

    fn lock(&self) -> MutexGuard<'_, WalInner> {
        // Poisoning is ignored deliberately: the inner state is kept
        // consistent before any operation can panic, and the `poisoned`
        // flag (not the mutex) is what gates a damaged log.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Seals and appends one record. Returns whether the snapshot cadence
    /// is due. On a write error the partial frame is scrubbed back off the
    /// file (or the log is poisoned if even that fails), so the log never
    /// carries junk *between* valid records — only at the tail.
    fn append(&self, record: Enc) -> Result<bool> {
        let t0 = Instant::now();
        let mut g = self.lock();
        if g.poisoned {
            return Err(Error::Durability {
                detail: "write-ahead log poisoned by an earlier failed append".to_owned(),
            });
        }
        let frame = record.seal("record")?;
        let path = wal_path(&self.cfg.dir, g.generation);
        let written = g
            .file
            .write_all(&frame)
            .and_then(|()| match self.cfg.fsync {
                FsyncPolicy::Always => g.file.sync_data(),
                FsyncPolicy::Never => Ok(()),
            });
        match written {
            Ok(()) => {
                g.offset += frame.len() as u64;
                g.batches_since_snapshot += 1;
                let registry = obs::global();
                registry.counter("engine.wal.appends").inc();
                registry
                    .counter("engine.wal.append_bytes")
                    .add(frame.len() as u64);
                registry
                    .histogram("engine.wal.append_ns")
                    .record(obs::elapsed_ns(t0));
                Ok(self.cfg.snapshot_every > 0
                    && g.batches_since_snapshot >= self.cfg.snapshot_every)
            }
            Err(e) => {
                let offset = g.offset;
                let scrubbed = g
                    .file
                    .set_len(offset)
                    .and_then(|()| g.file.seek(SeekFrom::Start(offset)).map(|_| ()));
                if scrubbed.is_err() {
                    g.poisoned = true;
                }
                Err(io_err("write-ahead log append failed on", &path, &e))
            }
        }
    }

    /// Appends a committed statement batch.
    pub(crate) fn append_batch(&self, stmts: &[Statement]) -> Result<bool> {
        self.append(encode_batch(stmts))
    }

    /// Installs `snapshot` as the next snapshot generation and switches the
    /// log over to a fresh, empty file. The new log is created *before*
    /// the snapshot rename makes generation `N+1` authoritative: if either
    /// step fails, generation `N` (snapshot + log) is still the newest
    /// valid pair on disk and appends keep landing in `wal-N.log`, which
    /// recovery will replay. The reverse order has a silent-loss mode —
    /// snapshot-`(N+1)` durably installed, `create_log_file` failing, and
    /// every commit acked into `wal-N.log` afterwards invisible to a
    /// recovery that picks snapshot `N+1` and finds no matching log. The
    /// previous generation is deleted only after the new one is fully
    /// durable; a crash mid-install leaves the old generation (plus at
    /// most a `.tmp` or unmatched-log leftover) to recover from.
    fn install_snapshot(&self, snapshot: Enc) -> Result<()> {
        let mut g = self.lock();
        let next = g.generation + 1;
        let file = create_log_file(&self.cfg, next)?;
        if let Err(e) = write_snapshot_file(&self.cfg, next, snapshot) {
            // Generation `next` never became authoritative — recovery keys
            // off snapshots — so the orphan log is cleanup, best effort.
            drop(file);
            let _ = fs::remove_file(wal_path(&self.cfg.dir, next));
            return Err(e);
        }
        let old = g.generation;
        g.file = file;
        g.generation = next;
        g.offset = WAL_MAGIC.len() as u64;
        g.batches_since_snapshot = 0;
        g.poisoned = false;
        // Best-effort cleanup: a leftover old generation is ignored by
        // recovery (it picks the newest valid snapshot).
        let _ = fs::remove_file(snap_path(&self.cfg.dir, old));
        let _ = fs::remove_file(wal_path(&self.cfg.dir, old));
        Ok(())
    }
}

/// Seals `snapshot` and writes it as `snapshot-<gen>.snap` atomically:
/// `.tmp` → fsync → rename → fsync the directory.
fn write_snapshot_file(cfg: &DurabilityConfig, generation: u64, snapshot: Enc) -> Result<()> {
    let body = snapshot.seal("snapshot")?;
    let final_path = snap_path(&cfg.dir, generation);
    let tmp_path = final_path.with_extension("snap.tmp");
    let written = (|| -> std::io::Result<()> {
        let mut f = File::create(&tmp_path)?;
        f.write_all(&body)?;
        if cfg.fsync == FsyncPolicy::Always {
            f.sync_all()?;
        }
        Ok(())
    })();
    if let Err(e) = written {
        let _ = fs::remove_file(&tmp_path);
        return Err(io_err("cannot write snapshot", &tmp_path, &e));
    }
    if let Err(e) = fs::rename(&tmp_path, &final_path) {
        let _ = fs::remove_file(&tmp_path);
        return Err(io_err("cannot install snapshot", &final_path, &e));
    }
    if cfg.fsync == FsyncPolicy::Always {
        // Make the rename itself durable. Directory fsync is advisory on
        // some filesystems; failure to open the dir is not fatal.
        if let Ok(d) = File::open(&cfg.dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Creates `wal-<gen>.log` holding just the magic header.
fn create_log_file(cfg: &DurabilityConfig, generation: u64) -> Result<File> {
    let path = wal_path(&cfg.dir, generation);
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&path)
        .map_err(|e| io_err("cannot create write-ahead log", &path, &e))?;
    file.write_all(WAL_MAGIC)
        .and_then(|()| match cfg.fsync {
            FsyncPolicy::Always => file.sync_all(),
            FsyncPolicy::Never => Ok(()),
        })
        .map_err(|e| io_err("cannot initialize write-ahead log", &path, &e))?;
    Ok(file)
}

// ---------------------------------------------------------------------------
// Database wiring
// ---------------------------------------------------------------------------

impl Database {
    /// Per-relation modification versions, sorted by relation name.
    pub(crate) fn relation_versions(&self) -> Vec<(String, u64)> {
        self.tables
            .iter()
            .map(|(name, t)| (name.clone(), t.version))
            .collect()
    }

    /// Logs a committed statement batch to the WAL, if this database is
    /// durable, and says whether the snapshot cadence is due. Called from
    /// inside the batch machinery's contained forward path *after* every
    /// check has passed — an error or injected panic here (site
    /// [`site::WAL_APPEND`]) takes the same rollback path a constraint
    /// violation does, so nothing un-logged ever becomes visible.
    pub(crate) fn wal_append_batch(&self, stmts: &[Statement]) -> Result<bool> {
        let Some(wal) = self.wal() else {
            return Ok(false);
        };
        self.fault_check(site::WAL_APPEND)?;
        wal.append_batch(stmts)
    }

    /// Takes the snapshot [`Database::wal_append_batch`] said is due, once
    /// the batch has committed and released its undo log and touch sets.
    /// A failure is counted (`engine.wal.snapshot_failures`) and
    /// swallowed: the batch is already durable in the log, and the
    /// previous generation stays intact, so a failed cadence snapshot
    /// costs replay time, never correctness.
    pub(crate) fn cadence_snapshot(&self) {
        if self.wal_snapshot().is_err() {
            obs::global().counter("engine.wal.snapshot_failures").inc();
        }
    }

    /// Installs a snapshot of the current state as the next generation,
    /// if this database is durable: the snapshot cadence's install and
    /// the commit point of a durable [`Database::load_state`]. A failure —
    /// IO, injected error, or injected panic at [`site::SNAPSHOT_WRITE`] —
    /// surfaces typed, with the previous generation still authoritative
    /// on disk.
    pub(crate) fn wal_snapshot(&self) -> Result<()> {
        let Some(wal) = self.wal() else {
            return Ok(());
        };
        let t0 = Instant::now();
        contain(|| -> Result<()> {
            self.fault_check(site::SNAPSHOT_WRITE)?;
            wal.install_snapshot(encode_snapshot(self))
        })?;
        let registry = obs::global();
        registry.counter("engine.wal.snapshots").inc();
        registry
            .histogram("engine.wal.snapshot_ns")
            .record(obs::elapsed_ns(t0));
        Ok(())
    }

    /// The write-ahead log's current position as `(generation, offset)` —
    /// the offset is the exact byte length of durably-acked log, so
    /// truncating the file anywhere below it simulates a crash mid-append
    /// (the crash-torture harness does exactly that). `None` on an
    /// in-memory database.
    #[must_use]
    pub fn wal_position(&self) -> Option<(u64, u64)> {
        self.wal().map(Wal::position)
    }

    /// Recovers a durable database from `config`'s data directory (the
    /// `durability` knob must be set): newest valid snapshot + WAL-suffix
    /// replay, tolerating a torn tail. See the module docs for the
    /// protocol and [`RecoveryReport`] for what comes back alongside the
    /// database.
    pub fn recover(config: EngineConfig) -> Result<(Database, RecoveryReport)> {
        Self::recover_with_faults(config, None)
    }

    /// [`Database::recover`] with a fault plan armed *for the recovery
    /// itself*: the plan's [`site::RECOVERY_REPLAY`] arms fire once per
    /// replayed record (error or panic mode). A fired fault aborts
    /// recovery before anything on disk has been modified, so the next
    /// attempt sees the same bytes — the torture harness asserts exactly
    /// that.
    pub fn recover_with_faults(
        config: EngineConfig,
        fault: Option<Arc<FaultPlan>>,
    ) -> Result<(Database, RecoveryReport)> {
        let registry = obs::global();
        registry.counter("engine.recovery.attempts").inc();
        let t0 = Instant::now();
        let outcome = contain(|| recover_inner(&config, fault.as_deref()));
        match outcome {
            Ok((db, mut report)) => {
                report.replay_ns = obs::elapsed_ns(t0);
                registry
                    .counter("engine.recovery.replayed_records")
                    .add(report.records_replayed());
                registry
                    .histogram("engine.recovery.replay_ns")
                    .record(report.replay_ns);
                if report.torn_tail {
                    registry.counter("engine.recovery.torn_tails").inc();
                }
                Ok((db, report))
            }
            Err(e) => {
                registry.counter("engine.recovery.failures").inc();
                Err(e)
            }
        }
    }
}

/// The recovery body: everything here either succeeds completely or
/// leaves the on-disk files byte-identical to how it found them.
fn recover_inner(
    config: &EngineConfig,
    fault: Option<&FaultPlan>,
) -> Result<(Database, RecoveryReport)> {
    let cfg = config
        .get_durability()
        .cloned()
        .ok_or_else(|| corrupt("Database::recover requires EngineConfig::durability"))?;
    let generations = list_generations(&cfg.dir)?;
    if generations.is_empty() {
        return Err(Error::Durability {
            detail: format!(
                "data dir `{}` holds no snapshot; nothing to recover",
                cfg.dir.display()
            ),
        });
    }
    // Newest snapshot that verifies; fall back past invalid ones (an
    // interrupted install can leave at most damaged *newest* files).
    let mut picked: Option<(u64, SnapshotBody)> = None;
    for g in &generations {
        match read_snapshot(&snap_path(&cfg.dir, *g)) {
            Ok(body) => {
                picked = Some((*g, body));
                break;
            }
            Err(_) => {
                obs::global()
                    .counter("engine.recovery.invalid_snapshots")
                    .inc();
            }
        }
    }
    let Some((generation, body)) = picked else {
        return Err(Error::Durability {
            detail: format!(
                "data dir `{}`: no snapshot passed its checksum",
                cfg.dir.display()
            ),
        });
    };

    let mem_config = config.clone().durability(None);
    let mut db = Database::new_with_config(body.schema, body.profile, mem_config)?;
    // The decoded rows move into the tables. No audit yet: recovery runs
    // `verify_integrity` exactly once, after the whole log suffix has
    // replayed, instead of per load.
    db.load_rows(owned_relations(body.state))?;
    for (name, floor) in &body.versions {
        db.raise_relation_version(name, *floor);
    }

    // Replay the log suffix. The file is read fully up front; replay never
    // writes, so a fault fired mid-replay leaves the bytes untouched.
    let log_path = wal_path(&cfg.dir, generation);
    let bytes = match fs::read(&log_path) {
        Ok(b) => b,
        // The log is created before the snapshot rename, but its
        // directory entry can still be lost to a crash before the dir
        // fsync lands — no appends can have happened before the install
        // returned, so a missing log is an empty suffix.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err("cannot read write-ahead log", &log_path, &e)),
    };
    let magic_len = WAL_MAGIC.len();
    let header_ok = bytes.len() >= magic_len && &bytes[..magic_len] == WAL_MAGIC;
    let mut pos = magic_len.min(bytes.len());
    let mut torn_tail = !header_ok && !bytes.is_empty() && bytes.len() < magic_len;
    if !header_ok && bytes.len() >= magic_len {
        return Err(corrupt(format!(
            "write-ahead log `{}` has a foreign header",
            log_path.display()
        )));
    }
    let mut batches = 0u64;
    if header_ok {
        loop {
            let remaining = bytes.len() - pos;
            if remaining == 0 {
                break;
            }
            if (remaining as u64) < FRAME_HEADER {
                torn_tail = true;
                break;
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4"));
            let sum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8"));
            let body_start = pos + FRAME_HEADER as usize;
            if len > MAX_RECORD_BYTES || body_start + len as usize > bytes.len() {
                torn_tail = true;
                break;
            }
            let payload = &bytes[body_start..body_start + len as usize];
            if checksum(payload) != sum {
                // A corrupted checksum ends the valid prefix exactly like
                // a short tail does.
                torn_tail = true;
                break;
            }
            if let Some(plan) = fault {
                plan.check(site::RECOVERY_REPLAY)?;
            }
            replay_record(&mut db, payload)?;
            batches += 1;
            pos = body_start + len as usize;
        }
    }

    let report_integrity = db.verify_integrity();
    if !report_integrity.is_clean() {
        return Err(Error::Durability {
            detail: format!("recovered state failed integrity verification: {report_integrity}"),
        });
    }

    // Replay verified — only now touch the disk: drop the torn tail and
    // reopen the log for appending.
    let valid_offset = pos.max(magic_len) as u64;
    let truncated_bytes = (bytes.len() as u64).saturating_sub(valid_offset);
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(&log_path)
        .map_err(|e| io_err("cannot reopen write-ahead log", &log_path, &e))?;
    file.set_len(valid_offset)
        .map_err(|e| io_err("cannot truncate torn tail of", &log_path, &e))?;
    if !header_ok {
        file.write_all(WAL_MAGIC)
            .map_err(|e| io_err("cannot rewrite header of", &log_path, &e))?;
    }
    file.seek(SeekFrom::Start(valid_offset))
        .map_err(|e| io_err("cannot seek in", &log_path, &e))?;
    if cfg.fsync == FsyncPolicy::Always {
        file.sync_data()
            .map_err(|e| io_err("cannot fsync", &log_path, &e))?;
    }
    let wal = Wal {
        cfg,
        inner: Mutex::new(WalInner {
            file,
            generation,
            offset: valid_offset,
            batches_since_snapshot: 0,
            poisoned: false,
        }),
    };
    db.set_wal(Some(wal));
    let report = RecoveryReport {
        generation,
        batches_replayed: batches,
        torn_tail,
        truncated_bytes,
        wal_bytes_replayed: valid_offset - magic_len as u64,
        replay_ns: 0, // stamped by the caller
    };
    Ok((db, report))
}

/// Applies one decoded WAL record to the database being rebuilt — through
/// the same execution path that produced it.
fn replay_record(db: &mut Database, payload: &[u8]) -> Result<()> {
    let mut d = Dec::new(payload);
    let tag = d.u8()?;
    if tag != REC_BATCH {
        return Err(corrupt(format!(
            "unknown record tag {tag} (checksum valid — incompatible log format?)"
        )));
    }
    let stmts: Result<Vec<Statement>> = (0..d.count()?).map(|_| d.statement()).collect();
    let stmts = stmts?;
    d.done()?;
    // The profile is the one the record was committed under, so
    // `apply_batch` re-runs the checking schedule a batch committed on; a
    // single statement's record checks the same rows on either schedule.
    db.apply_batch(&stmts).map_err(Error::from)?;
    Ok(())
}

/// Reads and verifies one snapshot file.
fn read_snapshot(path: &Path) -> Result<SnapshotBody> {
    let mut f = File::open(path).map_err(|e| io_err("cannot open snapshot", path, &e))?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)
        .map_err(|e| io_err("cannot read snapshot", path, &e))?;
    let magic_len = SNAP_MAGIC.len();
    let header = magic_len + FRAME_HEADER as usize;
    if bytes.len() < header || &bytes[..magic_len] != SNAP_MAGIC {
        return Err(corrupt(format!(
            "snapshot `{}` is truncated or foreign",
            path.display()
        )));
    }
    let len = u32::from_le_bytes(bytes[magic_len..magic_len + 4].try_into().expect("4"));
    let sum = u64::from_le_bytes(bytes[magic_len + 4..magic_len + 12].try_into().expect("8"));
    if len > MAX_RECORD_BYTES || header + len as usize != bytes.len() {
        return Err(corrupt(format!(
            "snapshot `{}` length field disagrees with the file",
            path.display()
        )));
    }
    let payload = &bytes[header..];
    if checksum(payload) != sum {
        return Err(corrupt(format!(
            "snapshot `{}` failed its checksum",
            path.display()
        )));
    }
    decode_snapshot(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::DmlError;
    use crate::fault::FaultMode;
    use relmerge_relational::{Attribute, Domain};

    fn attr(name: &str) -> Attribute {
        Attribute::new(name, Domain::Int)
    }

    /// P(P.K) ← C(C.K, C.FK): enough structure to exercise every codec arm
    /// that the university schema doesn't.
    fn schema() -> RelationalSchema {
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("P", vec![attr("P.K")], &["P.K"]).unwrap())
            .unwrap();
        rs.add_scheme(RelationScheme::new("C", vec![attr("C.K"), attr("C.FK")], &["C.K"]).unwrap())
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("P", &["P.K"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("C", &["C.K"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("C", &["C.FK"], "P", &["P.K"]))
            .unwrap();
        rs
    }

    fn tup(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|v| Value::Int(*v)).collect::<Vec<_>>())
    }

    fn durable_config(dir: &Path) -> EngineConfig {
        EngineConfig::default()
            .parallelism(1)
            .durability(Some(DurabilityConfig::new(dir).snapshot_every(4)))
    }

    /// A log record framing `payload`.
    fn record(payload: &[u8]) -> Enc {
        let mut e = Enc::frame(&[]);
        e.buf.extend_from_slice(payload);
        e
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("relmerge-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn statement_codec_round_trips() {
        let stmts = vec![
            Statement::insert(
                "R",
                Tuple::new([Value::Null, Value::text("x"), Value::Int(-7)]),
            ),
            Statement::delete("S", Tuple::new([Value::Bool(true), Value::Date(11_111)])),
            Statement::update("T", tup(&[1]), tup(&[1, 2])),
        ];
        let record = encode_batch(&stmts);
        let mut d = Dec::new(record.payload());
        assert_eq!(d.u8().unwrap(), REC_BATCH);
        let n = d.count().unwrap();
        let back: Vec<Statement> = (0..n).map(|_| d.statement().unwrap()).collect();
        d.done().unwrap();
        assert_eq!(back, stmts);
    }

    /// The record checksum is pinned, so logs written by earlier builds
    /// still read the same.
    #[test]
    fn checksums_are_pinned() {
        let record = encode_batch(&[
            Statement::insert("C", tup(&[10, 1])),
            Statement::delete("P", tup(&[2])),
        ]);
        assert_eq!(checksum(record.payload()), 0xd57f_1d01_ed4d_164b);
    }

    #[test]
    fn schema_and_profile_codec_round_trip() {
        let mut rs = schema();
        rs.add_null_constraint(NullConstraint::ns("C", &["C.K", "C.FK"]))
            .unwrap();
        rs.add_fd(Fd::new("C", &["C.K"], &["C.FK"])).unwrap();
        let mut e = Enc::frame(&[]);
        e.schema(&rs);
        let mut d = Dec::new(e.payload());
        let back = d.schema().unwrap();
        d.done().unwrap();
        assert_eq!(back, rs);
        for profile in DbmsProfile::BUILT_IN {
            let mut e = Enc::frame(&[]);
            e.profile(&profile);
            let mut d = Dec::new(e.payload());
            assert_eq!(d.profile().unwrap(), profile);
        }
        // A hand-rolled profile keeps its capabilities under a generic name.
        let mut e = Enc::frame(&[]);
        e.profile(&DbmsProfile {
            name: "mine",
            ..DbmsProfile::db2()
        });
        let custom = DbmsProfile {
            name: "custom",
            ..DbmsProfile::db2()
        };
        assert_eq!(Dec::new(e.payload()).profile().unwrap(), custom);
    }

    #[test]
    fn corrupt_payloads_decode_to_typed_errors_not_panics() {
        // Truncations and bit flips of a valid payload must all fail
        // gracefully.
        let stmts = vec![Statement::insert("R", tup(&[1, 2, 3]))];
        let payload = encode_batch(&stmts).payload().to_vec();
        for cut in 0..payload.len() {
            let mut d = Dec::new(&payload[..cut]);
            let r = (|| -> Result<()> {
                d.u8()?;
                for _ in 0..d.count()? {
                    d.statement()?;
                }
                d.done()
            })();
            assert!(r.is_err(), "prefix of {cut} bytes decoded");
        }
        for i in 0..payload.len() {
            let mut broken = payload.clone();
            broken[i] ^= 0xFF;
            let mut d = Dec::new(&broken);
            let _ = (|| -> Result<Vec<Statement>> {
                d.u8()?;
                (0..d.count()?).map(|_| d.statement()).collect()
            })(); // may succeed (data bytes) or fail (structure bytes) — must not panic
        }
    }

    #[test]
    fn initialize_append_recover_round_trips() {
        let dir = tempdir("roundtrip");
        // Cadence high enough that no snapshot fires: all three commits
        // must come back from the log itself.
        let cfg = EngineConfig::default()
            .parallelism(1)
            .durability(Some(DurabilityConfig::new(&dir).snapshot_every(100)));
        let mut db =
            Database::new_with_config(schema(), DbmsProfile::ideal(), cfg.clone()).unwrap();
        db.insert("P", tup(&[1])).unwrap();
        db.insert("C", tup(&[10, 1])).unwrap();
        db.apply_batch(&[
            Statement::insert("P", tup(&[2])),
            Statement::insert("C", tup(&[20, 2])),
        ])
        .unwrap();
        db.apply_batch(&[
            Statement::insert("P", tup(&[3])),
            Statement::update("C", tup(&[20]), tup(&[20, 3])),
        ])
        .unwrap();
        let expect = db.snapshot().unwrap();
        drop(db); // "crash": nothing flushed beyond what append made durable

        let (recovered, report) = Database::recover(cfg).unwrap();
        assert_eq!(recovered.snapshot().unwrap(), expect);
        assert!(recovered.verify_integrity().is_clean());
        assert!(!report.torn_tail);
        // Two single inserts + two batches = 4 records.
        assert_eq!(report.batches_replayed, 4, "{report}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_migration_record_from_an_older_build_fails_recovery_typed() {
        let dir = tempdir("oldtag");
        let cfg = durable_config(&dir);
        let db = Database::new_with_config(schema(), DbmsProfile::ideal(), cfg.clone()).unwrap();
        // Tag 2 framed an older build's migration record.
        db.wal().unwrap().append(record(&[2, 0, 0, 0, 0])).unwrap();
        drop(db);
        let err = Database::recover(cfg)
            .err()
            .expect("an unknown record must fail recovery");
        assert!(matches!(err, Error::Durability { .. }), "{err}");
        assert!(err.to_string().contains("unknown record tag 2"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_cadence_truncates_log_and_recovers() {
        let dir = tempdir("cadence");
        let mut db =
            Database::new_with_config(schema(), DbmsProfile::ideal(), durable_config(&dir))
                .unwrap();
        for k in 0..10 {
            db.insert("P", tup(&[k])).unwrap();
        }
        // snapshot_every = 4 → at least two generations have passed.
        let (generation, _) = db.wal().unwrap().position();
        assert!(generation >= 2, "generation {generation}");
        let expect = db.snapshot().unwrap();
        drop(db);
        let (recovered, report) = Database::recover(durable_config(&dir)).unwrap();
        assert_eq!(recovered.snapshot().unwrap(), expect);
        assert_eq!(report.generation, generation);
        assert!(
            report.batches_replayed < 10,
            "snapshots must bound replay, got {report}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_recovers_to_last_acked_prefix() {
        let dir = tempdir("torn");
        let cfg = EngineConfig::default()
            .parallelism(1)
            .durability(Some(DurabilityConfig::new(&dir).snapshot_every(0)));
        let mut db =
            Database::new_with_config(schema(), DbmsProfile::ideal(), cfg.clone()).unwrap();
        db.insert("P", tup(&[1])).unwrap();
        let after_first = db.snapshot().unwrap();
        let (generation, acked) = db.wal().unwrap().position();
        db.insert("P", tup(&[2])).unwrap();
        drop(db);
        // Tear the second record in half.
        let log = wal_path(&dir, generation);
        let f = OpenOptions::new().write(true).open(&log).unwrap();
        f.set_len(acked + 5).unwrap();
        drop(f);
        let (recovered, report) = Database::recover(cfg.clone()).unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.truncated_bytes, 5);
        assert_eq!(recovered.snapshot().unwrap(), after_first);
        // The torn bytes are gone: appending and recovering again works.
        let mut recovered = recovered;
        recovered.insert("P", tup(&[3])).unwrap();
        let expect = recovered.snapshot().unwrap();
        drop(recovered);
        let (again, report) = Database::recover(cfg).unwrap();
        assert!(!report.torn_tail);
        assert_eq!(again.snapshot().unwrap(), expect);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_append_fault_rolls_batch_back_error_and_panic() {
        for mode in [FaultMode::Error, FaultMode::Panic] {
            let dir = tempdir(&format!("appendfault-{}", mode.label()));
            let cfg = durable_config(&dir);
            let mut db =
                Database::new_with_config(schema(), DbmsProfile::ideal(), cfg.clone()).unwrap();
            db.insert("P", tup(&[1])).unwrap();
            let pre = db.snapshot().unwrap();
            let pre_pos = db.wal_position();
            let plan = db.set_fault_plan(FaultPlan::new().fail_at(site::WAL_APPEND, 0, mode));
            let err = db
                .apply_batch(&[Statement::insert("P", tup(&[2]))])
                .unwrap_err();
            match mode {
                FaultMode::Error => assert!(matches!(
                    err.root_cause(),
                    DmlError::Schema(Error::Injected { .. })
                )),
                FaultMode::Panic => assert!(matches!(
                    err.root_cause(),
                    DmlError::Schema(Error::ExecutionPanic { .. })
                )),
            }
            assert_eq!(plan.total_fired(), 1);
            assert_eq!(
                db.snapshot().unwrap(),
                pre,
                "un-logged commit became visible"
            );
            assert_eq!(
                db.wal_position(),
                pre_pos,
                "the failed append moved the log"
            );
            assert!(db.verify_integrity().is_clean());
            db.clear_fault_plan();
            drop(db);
            // And the log carries only the first insert.
            let (recovered, _) = Database::recover(cfg).unwrap();
            assert_eq!(recovered.snapshot().unwrap(), pre);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn snapshot_fault_is_contained_error_and_panic() {
        let failures = || obs::global().counter("engine.wal.snapshot_failures").get();
        for mode in [FaultMode::Error, FaultMode::Panic] {
            let dir = tempdir(&format!("snapfault-{}", mode.label()));
            let cfg = EngineConfig::default()
                .parallelism(1)
                .durability(Some(DurabilityConfig::new(&dir).snapshot_every(1)));
            let mut db =
                Database::new_with_config(schema(), DbmsProfile::ideal(), cfg.clone()).unwrap();
            let generation = db.wal_position().map(|(g, _)| g);
            let failed_before = failures();
            let plan = db.set_fault_plan(
                FaultPlan::new()
                    .fail_at(site::SNAPSHOT_WRITE, 0, mode)
                    .fail_at(site::SNAPSHOT_WRITE, 0, mode),
            );
            // The statement still commits: snapshot failure costs replay,
            // not data.
            db.insert("P", tup(&[1])).unwrap();
            assert_eq!(plan.fired(site::SNAPSHOT_WRITE), 1);
            // So does a multi-statement batch, whose snapshot is taken
            // after it has committed.
            db.apply_batch(&[
                Statement::insert("C", tup(&[20, 2])),
                Statement::insert("P", tup(&[2])),
            ])
            .unwrap();
            assert_eq!(plan.fired(site::SNAPSHOT_WRITE), 2);
            assert!(failures() >= failed_before + 2, "both failures counted");
            assert_eq!(db.wal_position().map(|(g, _)| g), generation);
            assert!(db.verify_integrity().is_clean());
            db.clear_fault_plan();
            let logged = db.snapshot().unwrap();
            drop(db);
            // Both commits come back from the log.
            let (mut recovered, report) = Database::recover(cfg.clone()).unwrap();
            assert_eq!(report.batches_replayed, 2, "{report}");
            assert_eq!(recovered.snapshot().unwrap(), logged);
            recovered.insert("P", tup(&[3])).unwrap(); // this one snapshots fine
            let expect = recovered.snapshot().unwrap();
            drop(recovered);
            let (recovered, report) = Database::recover(cfg).unwrap();
            assert_eq!(report.batches_replayed, 0, "{report}");
            assert_eq!(recovered.snapshot().unwrap(), expect);
            assert!(recovered.verify_integrity().is_clean());
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_cadence_snapshot_holds_the_state_and_its_versions() {
        let dir = tempdir("cadencebody");
        let cfg = EngineConfig::default()
            .parallelism(1)
            .durability(Some(DurabilityConfig::new(&dir).snapshot_every(3)));
        let mut db =
            Database::new_with_config(schema(), DbmsProfile::ideal(), cfg.clone()).unwrap();
        for k in 1..=4 {
            db.insert("P", tup(&[k])).unwrap();
        }
        db.insert("C", tup(&[10, 1])).unwrap();
        // The third commit of generation 1: a delete leaves a dead slot,
        // and an update moves a row, before the cadence snapshot.
        db.apply_batch(&[
            Statement::delete("P", tup(&[3])),
            Statement::update("C", tup(&[10]), tup(&[10, 4])),
            Statement::insert("C", tup(&[11, 2])),
        ])
        .unwrap();
        let (generation, _) = db.wal_position().unwrap();
        assert_eq!(generation, 2);
        let path = snap_path(&dir, generation);
        let body = read_snapshot(&path).unwrap();
        assert_eq!(body.state, db.snapshot().unwrap());
        assert_eq!(body.versions, db.relation_versions());
        assert_eq!(body.schema, schema());
        assert_eq!(body.profile, DbmsProfile::ideal());
        // Byte for byte the file a snapshot of the state encodes to: each
        // relation's name, header, tuple count and tuples, in name order.
        let mut e = Enc::frame(SNAP_MAGIC);
        e.profile(db.profile());
        e.schema(db.schema());
        let state = db.snapshot().unwrap();
        e.u32(state.names().len() as u32);
        for (name, relation) in state.iter() {
            e.str(name);
            e.attrs(relation.header());
            e.u32(relation.len() as u32);
            for t in relation.iter() {
                e.tuple(t);
            }
        }
        e.versions(&db.relation_versions());
        assert_eq!(fs::read(&path).unwrap(), e.seal("snapshot").unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_fault_leaves_retry_clean_error_and_panic() {
        // The first, a middle and the last of three records.
        for nth in 0..3 {
            for mode in [FaultMode::Error, FaultMode::Panic] {
                let dir = tempdir(&format!("recfault-{nth}-{}", mode.label()));
                let cfg = EngineConfig::default()
                    .parallelism(1)
                    .durability(Some(DurabilityConfig::new(&dir).snapshot_every(0)));
                let mut db =
                    Database::new_with_config(schema(), DbmsProfile::ideal(), cfg.clone()).unwrap();
                for k in 1..=3 {
                    db.insert("P", tup(&[k])).unwrap();
                }
                let expect = db.snapshot().unwrap();
                drop(db);
                let plan = Arc::new(FaultPlan::new().fail_at(site::RECOVERY_REPLAY, nth, mode));
                let err = Database::recover_with_faults(cfg.clone(), Some(Arc::clone(&plan)))
                    .err()
                    .expect("recovery must fail while the fault is armed");
                match mode {
                    FaultMode::Error => assert!(matches!(err, Error::Injected { .. }), "{err}"),
                    FaultMode::Panic => {
                        assert!(matches!(err, Error::ExecutionPanic { .. }), "{err}");
                    }
                }
                assert_eq!(plan.total_fired(), 1);
                // The failed attempt modified nothing on disk: retry succeeds.
                let (recovered, report) = Database::recover(cfg).unwrap();
                assert_eq!(recovered.snapshot().unwrap(), expect);
                assert!(recovered.verify_integrity().is_clean());
                assert_eq!(report.batches_replayed, 3);
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn failed_log_creation_aborts_the_snapshot_install() {
        let dir = tempdir("badlog");
        let cfg = EngineConfig::default()
            .parallelism(1)
            .durability(Some(DurabilityConfig::new(&dir).snapshot_every(2)));
        let mut db =
            Database::new_with_config(schema(), DbmsProfile::ideal(), cfg.clone()).unwrap();
        db.insert("P", tup(&[1])).unwrap();
        // Block generation 1's log with a directory of the same name: the
        // cadence install must now fail *before* snapshot-1 exists. With
        // the reverse order, a durable snapshot-1 without wal-1.log would
        // make recovery silently drop every commit acked after it.
        fs::create_dir_all(wal_path(&dir, 1)).unwrap();
        db.insert("P", tup(&[2])).unwrap(); // cadence fires; install fails, contained
        db.insert("P", tup(&[3])).unwrap(); // still acked into wal-0
        assert!(
            !snap_path(&dir, 1).exists(),
            "snapshot-1 must not be installed without its log"
        );
        let expect = db.snapshot().unwrap();
        drop(db);
        let _ = fs::remove_dir(wal_path(&dir, 1));
        let (recovered, report) = Database::recover(cfg).unwrap();
        assert_eq!(report.generation, 0);
        assert_eq!(recovered.snapshot().unwrap(), expect);
        assert!(recovered.verify_integrity().is_clean());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_payloads_are_rejected_at_write_time() {
        let dir = tempdir("oversized");
        let cfg = DurabilityConfig::new(&dir);
        let db = Database::new(schema(), DbmsProfile::ideal()).unwrap();
        let wal = Wal::initialize(cfg.clone(), &db).unwrap();
        // Zero-filled, so the allocation is cheap; the guard fires before
        // the checksum reads a byte of it.
        let huge = |magic: &[u8]| {
            let payload_at = magic.len() + FRAME_HEADER as usize;
            Enc {
                buf: vec![0u8; payload_at + MAX_RECORD_BYTES as usize + 1],
                payload_at,
            }
        };
        let err = wal.append(huge(&[])).unwrap_err();
        assert!(matches!(err, Error::Durability { .. }), "{err}");
        // The rejection is clean — nothing was written, the log is not
        // poisoned, and normal-sized appends still work.
        assert!(wal.append(record(b"ok")).is_ok());
        let err = write_snapshot_file(&cfg, 1, huge(SNAP_MAGIC)).unwrap_err();
        assert!(matches!(err, Error::Durability { .. }), "{err}");
        assert!(!snap_path(&dir, 1).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn initialize_refuses_an_initialized_dir() {
        let dir = tempdir("refuse");
        let cfg = durable_config(&dir);
        let db = Database::new_with_config(schema(), DbmsProfile::ideal(), cfg.clone()).unwrap();
        drop(db);
        assert!(is_initialized(&dir));
        let err = Database::new_with_config(schema(), DbmsProfile::ideal(), cfg)
            .err()
            .expect("an initialized dir must be refused");
        assert!(matches!(err, Error::Durability { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clone_is_an_in_memory_fork() {
        let dir = tempdir("clone");
        let mut db =
            Database::new_with_config(schema(), DbmsProfile::ideal(), durable_config(&dir))
                .unwrap();
        db.insert("P", tup(&[1])).unwrap();
        let mut fork = db.fork();
        assert!(fork.wal().is_none());
        fork.insert("P", tup(&[99])).unwrap(); // not logged
        drop(fork);
        let expect = db.snapshot().unwrap();
        drop(db);
        let (recovered, _) = Database::recover(durable_config(&dir)).unwrap();
        assert_eq!(recovered.snapshot().unwrap(), expect);
        let _ = fs::remove_dir_all(&dir);
    }
}
