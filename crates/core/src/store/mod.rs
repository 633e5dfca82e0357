//! The persistent artifact store: "compile once" across process
//! restarts, not just within one.
//!
//! The paper's premise is that a performance model is compiled once and
//! interrogated many times. [`crate::Session`] delivers that within a
//! process and the serve layer's session pool across connections; this
//! module extends it across *deployments*. The model is the one source
//! everything else derives from, so an artifact holds only the model's
//! text: its canonical model XML and MCF XML, in a content-addressed
//! file. A later process loads it by parsing the text and calling
//! [`Session::compile`], which costs less than decoding compiled
//! artifacts would.
//!
//! * **Addressing.** [`ArtifactKey`] is the same `(model, MCF)` content
//!   digest pair the serve-layer session pool keys on: FNV-1a over the
//!   *canonical* XML serializations (`model_to_xml`, which writes
//!   element ids as document-order ordinals and so is its own
//!   parse-and-reserialize fixed point, and `McfConfig::to_xml` with
//!   sorted rule ids). Two spellings of the same model share one
//!   artifact, on disk exactly as in memory.
//! * **Format.** One file per key
//!   (`pp-<model digest>-<mcf digest>.bin`): a 4-byte magic, a
//!   [`FORMAT_VERSION`], the payload length, the payload (the model
//!   XML and then the MCF XML, each prefixed by its length), and an
//!   FNV-1a checksum of the payload. Writes go through a temp file +
//!   atomic rename, so a reader never observes a half-written entry.
//! * **Corruption and staleness are misses, never errors.** A missing
//!   file, short file, bad magic, stale version, checksum mismatch, a
//!   payload whose text disagrees with the file's key or is not its
//!   own canonical serialization, and a model that no longer compiles
//!   all read back as `None` — and the offending file is evicted so the
//!   next compile re-writes it cleanly. [`StoreStats::evictions`]
//!   counts those; nothing in the load path panics or propagates an
//!   error to a request.
//!
//! The CLI builds stores offline with `prophet warm --store DIR`, and
//! `prophet serve --store DIR` warm-starts its pool from one at boot;
//! a shared store directory also lets a router's shards find each
//! other's models, since every key is a stable content digest.

use crate::error::Error;
use crate::session::Session;
use prophet_check::McfConfig;
use prophet_uml::Model;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide probe counter: the pid alone does not keep two opens in
/// one process from deleting each other's probe file.
static PROBE_SEQ: AtomicU64 = AtomicU64::new(0);

/// On-disk artifact format version. Bump on any payload or header
/// change: a version mismatch reads as a clean miss (plus eviction),
/// never as a misdecode. Version 4 stores the model and MCF text only;
/// earlier versions also held compiled artifacts.
pub const FORMAT_VERSION: u32 = 4;

/// Format version of the metrics checkpoints, versioned apart from the
/// artifacts so an artifact format change keeps lifetime counters.
const METRICS_VERSION: u32 = 1;

/// File magic: "Prophet Persistent Artifact Format".
pub const MAGIC: [u8; 4] = *b"PPAF";

/// Metrics-checkpoint file magic: "Prophet Persistent Metrics
/// Checkpoint".
pub const METRICS_MAGIC: [u8; 4] = *b"PPMC";

/// File-name prefix of the sidecar metrics checkpoints inside a store
/// directory (see [`ArtifactStore::save_metrics`]). Checkpoints are
/// per-instance — shards sharing one artifact store must not clobber
/// each other's lifetime counters — so the full name is
/// `pp-metrics-<instance>.ckpt`.
pub const METRICS_PREFIX: &str = "pp-metrics";

/// Suffix of the per-entry access-stamp sidecar (`pp-<m>-<mcf>.atime`).
///
/// Filesystem atime is useless for LRU purposes (`relatime`/`noatime`
/// mounts update it rarely or never), so the store keeps its own: every
/// successful load or save best-effort rewrites a tiny sidecar holding
/// the access time as decimal milliseconds since the Unix epoch,
/// zero-padded to 20 digits (the width of `u64::MAX`).
/// [`ArtifactStore::gc`] orders entries by that stamp, falling back to
/// the entry file's mtime when no sidecar exists (e.g. stores written
/// by older builds). The suffix deliberately does not match the `.bin`
/// artifact pattern, so `keys()` and warm-start never see sidecars.
pub const ATIME_SUFFIX: &str = ".atime";

/// Content key of one compiled artifact — the `(model, MCF)` digest
/// pair shared with the serve layer's session pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArtifactKey {
    /// FNV-1a digest of the canonical model XML.
    pub model: u64,
    /// FNV-1a digest of the canonical MCF XML.
    pub mcf: u64,
}

impl ArtifactKey {
    /// Key for a `(model, mcf)` pair, by canonical serialization.
    pub fn of(model: &Model, mcf: &McfConfig) -> Self {
        Self {
            model: fnv1a(prophet_uml::xmi::model_to_xml(model).as_bytes()),
            mcf: fnv1a(mcf.to_xml().as_bytes()),
        }
    }

    /// The store file name of this key.
    fn file_name(&self) -> String {
        format!("pp-{:016x}-{:016x}.bin", self.model, self.mcf)
    }

    /// Parse a store file name back into its key.
    fn from_file_name(name: &str) -> Option<Self> {
        let rest = name.strip_prefix("pp-")?.strip_suffix(".bin")?;
        let (model, mcf) = rest.split_once('-')?;
        if model.len() != 16 || mcf.len() != 16 {
            return None;
        }
        Some(Self {
            model: u64::from_str_radix(model, 16).ok()?,
            mcf: u64::from_str_radix(mcf, 16).ok()?,
        })
    }
}

/// 64-bit FNV-1a (the digest family shared with `op_digest` and the
/// elaboration cache's content keys).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Counter snapshot of an [`ArtifactStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Loads served from a valid on-disk artifact.
    pub disk_hits: u64,
    /// Loads that found no usable artifact (absent, corrupt, or stale).
    pub disk_misses: u64,
    /// Artifacts written (compile write-back or `prophet warm`).
    pub writes: u64,
    /// Writes that failed at the filesystem (the compile still
    /// succeeds; the artifact is just not persisted).
    pub write_errors: u64,
    /// Corrupt, stale-version or uncompilable entries deleted on load.
    pub evictions: u64,
}

/// What one [`ArtifactStore::gc`] pass did, for operator output
/// (`prophet store gc`) and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Artifact entries examined.
    pub entries_scanned: usize,
    /// Their summed on-disk size before the pass.
    pub bytes_scanned: u64,
    /// Entries deleted because they failed header/checksum validation —
    /// always reclaimable, whatever the budget.
    pub corrupt_evicted: usize,
    /// Valid entries deleted least-recently-used-first to meet the
    /// budget.
    pub lru_evicted: usize,
    /// Bytes freed by both eviction classes.
    pub bytes_reclaimed: u64,
    /// Entries left in the store.
    pub entries_retained: usize,
    /// Their summed size (≤ the budget, barring concurrent writers).
    pub bytes_retained: u64,
}

/// Milliseconds since the Unix epoch, saturating at 0 for pre-epoch
/// clocks.
fn now_millis() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// A file's mtime as milliseconds since the Unix epoch (0 when the
/// filesystem cannot say).
fn mtime_millis(meta: &std::fs::Metadata) -> u64 {
    meta.modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// A content-addressed on-disk store of model texts.
///
/// Thread-safe by `&self`: counters are atomics, writes are atomic
/// renames, and loads never mutate an entry (they may *delete* a
/// corrupt one, which concurrent readers observe as a miss).
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    writes: AtomicU64,
    write_errors: AtomicU64,
    evictions: AtomicU64,
}

impl ArtifactStore {
    /// Open (creating if needed) a store rooted at `dir`, probing that
    /// the directory is actually writable so `serve`/`warm` fail at
    /// startup — with a plain I/O error — rather than silently serving
    /// a store that can never persist anything.
    ///
    /// # Errors
    /// The underlying I/O error when `dir` cannot be created (e.g. the
    /// path names an existing file) or written to.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        // A probe name is claimed by `create_new`, so no other open owns
        // it; one left behind by a crashed process just moves us on.
        let (probe, mut file) = loop {
            let seq = PROBE_SEQ.fetch_add(1, Ordering::Relaxed);
            let probe = dir.join(format!(".probe-{}-{seq}", std::process::id()));
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&probe)
            {
                Ok(file) => break (probe, file),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        };
        file.write_all(b"ok")?;
        drop(file);
        match std::fs::remove_file(&probe) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        Ok(Self {
            dir,
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file an artifact for `key` lives in (whether or not one
    /// currently does) — exposed for tests and operational tooling.
    pub fn entry_path(&self, key: ArtifactKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Every key with an artifact file currently present, sorted.
    /// Presence does not imply validity — a later
    /// [`load_session`](Self::load_session) may still reject the entry.
    pub fn keys(&self) -> Vec<ArtifactKey> {
        let mut keys: Vec<ArtifactKey> = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .filter_map(|e| ArtifactKey::from_file_name(&e.file_name().to_string_lossy()))
                .collect(),
            Err(_) => Vec::new(),
        };
        keys.sort();
        keys
    }

    /// Compile the model stored under `key`, or `None` (a *miss*) when
    /// no usable artifact exists. Corrupt, stale-version and
    /// uncompilable entries are evicted on the way out so the next
    /// compile re-writes them.
    pub fn load_session(&self, key: ArtifactKey) -> Option<Session> {
        let path = self.entry_path(key);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => {
                self.disk_misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_session(&bytes, key) {
            Some(session) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.touch(key);
                Some(session)
            }
            None => {
                // Corrupt or stale: delete so the slot re-fills with a
                // current-format artifact on the next write-back — but
                // only while the file still looks like the bytes that
                // failed to decode. A concurrent writer may have just
                // renamed a fresh, valid artifact into place (shared
                // store directories are supported); deleting by length
                // comparison narrows that window to same-length
                // replacements, which the next load simply evicts
                // again.
                let unchanged = std::fs::metadata(&path)
                    .map(|m| m.len() == bytes.len() as u64)
                    .unwrap_or(false);
                if unchanged {
                    let _ = std::fs::remove_file(&path);
                }
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.disk_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persist `session`'s canonical model and MCF text under its
    /// content key, atomically. Failures are counted and returned, but
    /// callers on the serve path deliberately ignore them — a store
    /// that cannot write degrades to compile-per-boot, it does not take
    /// requests down.
    ///
    /// # Errors
    /// The underlying I/O error when the temp file cannot be written or
    /// renamed into place.
    pub fn save_session(&self, session: &Session) -> io::Result<ArtifactKey> {
        let (key, bytes) = encode_session(session);
        let path = self.entry_path(key);
        // Unique per call (pid + process-wide counter): two threads or
        // two shards saving the same key concurrently must not share a
        // temp file, or the atomic-rename guarantee dies with it.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            "{}.tmp-{}-{}",
            key.file_name(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let result = std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, &path));
        match result {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                self.touch(key);
                Ok(key)
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.disk_misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Path of the access-stamp sidecar for `key` (see
    /// [`ATIME_SUFFIX`]) — exposed for tests and operational tooling
    /// that needs to pin or inspect an entry's recency.
    pub fn access_stamp_path(&self, key: ArtifactKey) -> PathBuf {
        self.dir.join(format!(
            "pp-{:016x}-{:016x}{ATIME_SUFFIX}",
            key.model, key.mcf
        ))
    }

    /// Best-effort: record that `key` was used now. A failed write
    /// (read-only directory, ENOSPC) costs nothing but GC accuracy —
    /// the entry falls back to its file mtime.
    ///
    /// Every stamp has the same width, so the write overwrites the last
    /// one in place: opening with truncation instead cost about 70 µs
    /// per stamp on ext4, where the write itself costs 3 µs.
    fn touch(&self, key: ArtifactKey) {
        let _ = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.access_stamp_path(key))
            .and_then(|mut file| file.write_all(format!("{:020}", now_millis()).as_bytes()));
    }

    /// When `key` was last used, in epoch milliseconds: its sidecar
    /// stamp if one parses, else the artifact file's mtime, else 0
    /// (absent entries sort oldest, which is what GC wants).
    fn last_used_millis(&self, key: ArtifactKey) -> u64 {
        if let Some(stamp) = std::fs::read_to_string(self.access_stamp_path(key))
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
        {
            return stamp;
        }
        std::fs::metadata(self.entry_path(key))
            .map(|m| mtime_millis(&m))
            .unwrap_or(0)
    }

    /// Garbage-collect the store down to `max_bytes` of artifact data.
    ///
    /// Two eviction classes, in order:
    ///
    /// 1. **Corrupt entries** — anything failing the header/checksum
    ///    validation is deleted regardless of budget (it can only ever
    ///    read back as a miss, so the bytes are pure waste);
    /// 2. **LRU** — while the remaining entries exceed the budget, the
    ///    least-recently-used one (by access stamp, see
    ///    [`ATIME_SUFFIX`]) is deleted, strictly oldest-first.
    ///
    /// Concurrent use is safe: entries that change between the scan and
    /// their deletion (a serve write-back renaming a fresh artifact
    /// into place, a load refreshing the stamp) are skipped rather than
    /// deleted, mirroring `load_session`'s eviction guard — GC may then
    /// leave the store slightly over budget, never delete fresh work.
    /// Orphaned stamp sidecars (entry already gone) are swept on the
    /// way out.
    pub fn gc(&self, max_bytes: u64) -> GcReport {
        let mut report = GcReport::default();
        let mut live: Vec<(u64, ArtifactKey, u64)> = Vec::new(); // (last_used, key, size)
        for key in self.keys() {
            let path = self.entry_path(key);
            let Ok(bytes) = std::fs::read(&path) else {
                continue; // raced a deletion; nothing to account
            };
            report.entries_scanned += 1;
            report.bytes_scanned += bytes.len() as u64;
            if unframe(&bytes, MAGIC, FORMAT_VERSION).is_none() {
                // Same concurrent-writer guard as load_session: only
                // delete while the file still looks like the bytes
                // that failed validation.
                let unchanged = std::fs::metadata(&path)
                    .map(|m| m.len() == bytes.len() as u64)
                    .unwrap_or(false);
                if unchanged {
                    let _ = std::fs::remove_file(&path);
                    let _ = std::fs::remove_file(self.access_stamp_path(key));
                    report.corrupt_evicted += 1;
                    report.bytes_reclaimed += bytes.len() as u64;
                    continue;
                }
            }
            live.push((self.last_used_millis(key), key, bytes.len() as u64));
        }
        live.sort_unstable();
        let mut total: u64 = live.iter().map(|&(_, _, size)| size).sum();
        for &(seen_at, key, size) in &live {
            if total <= max_bytes {
                break;
            }
            // Skip entries used since the scan — eviction must never
            // race a concurrent load/write-back into deleting what
            // just became the *most* recently used entry.
            if self.last_used_millis(key) > seen_at {
                continue;
            }
            if std::fs::remove_file(self.entry_path(key)).is_ok() {
                let _ = std::fs::remove_file(self.access_stamp_path(key));
                report.lru_evicted += 1;
                report.bytes_reclaimed += size;
                total -= size;
            }
        }
        report.entries_retained =
            report.entries_scanned - report.corrupt_evicted - report.lru_evicted;
        report.bytes_retained = report.bytes_scanned - report.bytes_reclaimed;
        // Orphaned sidecars: stamps whose artifact is gone.
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.filter_map(|e| e.ok()) {
                let name = entry.file_name().to_string_lossy().into_owned();
                let Some(stem) = name.strip_suffix(ATIME_SUFFIX) else {
                    continue;
                };
                if ArtifactKey::from_file_name(&format!("{stem}.bin"))
                    .is_some_and(|key| !self.entry_path(key).exists())
                {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        report
    }

    /// Path of one instance's sidecar metrics checkpoint. The name
    /// deliberately does not match the `pp-<digest>-<digest>.bin`
    /// artifact pattern, so [`keys`](Self::keys) and warm-start never
    /// see it. `instance` (typically the server's configured listen
    /// address) is sanitized to filename-safe characters; instances
    /// sharing a store directory therefore keep separate lifetime
    /// counters as long as their labels differ.
    pub fn metrics_path(&self, instance: &str) -> PathBuf {
        let safe: String = instance
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '.' || c == '_' {
                    c
                } else {
                    '-'
                }
            })
            .collect();
        self.dir.join(format!("{METRICS_PREFIX}-{safe}.ckpt"))
    }

    /// Atomically persist a flat `name -> value` counter snapshot (the
    /// serve layer's lifetime request counters). Same temp-file +
    /// rename discipline as artifacts; failures are the caller's to
    /// ignore — a checkpoint that cannot write degrades to
    /// metrics-per-boot, it does not take requests down.
    ///
    /// Checkpoint writes are *not* counted in [`StoreStats::writes`]:
    /// those counters pin the compile-write-back contract in tests and
    /// a periodic background write would drift them.
    ///
    /// # Errors
    /// The underlying I/O error when the temp file cannot be written
    /// or renamed into place.
    pub fn save_metrics(&self, instance: &str, counters: &[(String, u64)]) -> io::Result<()> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&(counters.len() as u64).to_le_bytes());
        for (name, value) in counters {
            put_field(&mut payload, name.as_bytes());
            payload.extend_from_slice(&value.to_le_bytes());
        }
        let bytes = frame(METRICS_MAGIC, METRICS_VERSION, &payload);
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let path = self.metrics_path(instance);
        let tmp = path.with_extension(format!(
            "ckpt.tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let result = std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, &path));
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Load the last metrics checkpoint, or `None` when absent or
    /// unusable. Mirrors the artifact corruption contract: a corrupt
    /// checkpoint is deleted and read as a clean miss — counters
    /// restart from zero rather than from garbage.
    pub fn load_metrics(&self, instance: &str) -> Option<Vec<(String, u64)>> {
        let path = self.metrics_path(instance);
        let bytes = std::fs::read(&path).ok()?;
        match decode_metrics(&bytes) {
            Some(counters) => Some(counters),
            None => {
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }
}

impl Session {
    /// [`Session::compile`] with an optional [`ArtifactStore`]: a store
    /// hit compiles the stored text (see
    /// [`ArtifactStore::load_session`]), and a miss compiles `model`,
    /// then writes its text back for the next process.
    ///
    /// Write-back failures are swallowed (and counted in
    /// [`StoreStats::write_errors`]): persistence is a convenience, not
    /// a correctness dependency.
    ///
    /// # Errors
    /// Exactly [`Session::compile`]'s errors: a stored entry is the
    /// canonical text of the same model, and one that fails to compile
    /// is a miss.
    pub fn compile_stored(
        model: Model,
        mcf: McfConfig,
        store: Option<&ArtifactStore>,
    ) -> Result<Self, Error> {
        let Some(store) = store else {
            return Self::compile(model, mcf);
        };
        let key = ArtifactKey::of(&model, &mcf);
        if let Some(session) = store.load_session(key) {
            return Ok(session);
        }
        let session = Self::compile(model, mcf)?;
        let _ = store.save_session(&session);
        Ok(session)
    }
}

// ---------------------------------------------------------------------
// File frame and payload fields
// ---------------------------------------------------------------------

/// Frame `payload` for disk, as artifacts and metrics checkpoints
/// both are: magic, version, payload length, payload, FNV-1a checksum
/// of the payload.
fn frame(magic: [u8; 4], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out
}

/// The payload of a framed file, or `None` unless its magic, version,
/// length field and checksum all agree. GC uses this alone, so a sweep
/// over a large store parses no XML.
fn unframe(bytes: &[u8], magic: [u8; 4], version: u32) -> Option<&[u8]> {
    let mut fields = Fields(bytes);
    if fields.take(4)? != magic || fields.u32()? != version {
        return None;
    }
    let payload = fields.field()?;
    let checksum = fields.u64()?;
    fields.finish()?;
    (fnv1a(payload) == checksum).then_some(payload)
}

/// Append one length-prefixed field.
fn put_field(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Bounds-checked reader of little-endian integers and length-prefixed
/// fields: every read that would run past the end is `None`.
struct Fields<'a>(&'a [u8]);

impl<'a> Fields<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.0.len() {
            return None;
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn field(&mut self) -> Option<&'a [u8]> {
        let n = usize::try_from(self.u64()?).ok()?;
        self.take(n)
    }

    fn text(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.field()?).ok()
    }

    /// `Some` when every byte was read: trailing bytes are corruption.
    fn finish(self) -> Option<()> {
        self.0.is_empty().then_some(())
    }
}

/// Decode and verify a metrics checkpoint; `None` on any failure.
fn decode_metrics(bytes: &[u8]) -> Option<Vec<(String, u64)>> {
    let payload = unframe(bytes, METRICS_MAGIC, METRICS_VERSION)?;
    let mut fields = Fields(payload);
    let count = usize::try_from(fields.u64()?).ok()?;
    // A corrupt count must not drive a huge preallocation.
    let mut counters = Vec::with_capacity(count.min(payload.len()));
    for _ in 0..count {
        let name = fields.text()?.to_string();
        counters.push((name, fields.u64()?));
    }
    fields.finish()?;
    Some(counters)
}

/// The key and artifact byte image of `session`: its canonical model
/// XML and MCF XML, framed. The key is [`ArtifactKey::of`], digested
/// from the same text, so the model is serialized once.
fn encode_session(session: &Session) -> (ArtifactKey, Vec<u8>) {
    let model_xml = session.model_xml();
    let mcf_xml = session.mcf().to_xml();
    let key = ArtifactKey {
        model: fnv1a(model_xml.as_bytes()),
        mcf: fnv1a(mcf_xml.as_bytes()),
    };
    let mut payload = Vec::new();
    put_field(&mut payload, model_xml.as_bytes());
    put_field(&mut payload, mcf_xml.as_bytes());
    (key, frame(MAGIC, FORMAT_VERSION, &payload))
}

/// Verify an artifact byte image and compile the model it holds.
/// `None` on every failure — bad frame, text that disagrees with the
/// entry's key or is not canonical, or a model that does not compile —
/// which the caller treats as a miss.
fn decode_session(bytes: &[u8], expected: ArtifactKey) -> Option<Session> {
    let mut fields = Fields(unframe(bytes, MAGIC, FORMAT_VERSION)?);
    let model_xml = fields.text()?;
    let mcf_xml = fields.text()?;
    fields.finish()?;
    // The file name is trusted for *addressing* only; the content must
    // independently agree with it, or a renamed/substituted artifact
    // could impersonate another model. The store writes the canonical
    // spellings, so the digests recompute directly over the stored
    // text; the fixed-point checks then pin that the stored text really
    // is the canonical serialization of what it parses to (together
    // equivalent to re-running `ArtifactKey::of` on the parsed model
    // and MCF).
    if fnv1a(model_xml.as_bytes()) != expected.model || fnv1a(mcf_xml.as_bytes()) != expected.mcf {
        return None;
    }
    let model = prophet_uml::xmi::model_from_xml(model_xml).ok()?;
    let mcf = McfConfig::from_xml(mcf_xml).ok()?;
    if prophet_uml::xmi::model_to_xml(&model) != model_xml || mcf.to_xml() != mcf_xml {
        return None;
    }
    Session::compile(model, mcf).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_uml::ModelBuilder;

    fn model(name: &str, cost: &str) -> Model {
        let mut b = ModelBuilder::new(name);
        let main = b.main_diagram();
        let i = b.initial(main, "start");
        let a = b.action(main, "Work", cost);
        let f = b.final_node(main, "end");
        b.flow(main, i, a);
        b.flow(main, a, f);
        b.build()
    }

    fn temp_store(tag: &str) -> ArtifactStore {
        let dir =
            std::env::temp_dir().join(format!("prophet-store-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactStore::open(dir).expect("temp store opens")
    }

    #[test]
    fn metrics_checkpoint_roundtrips_and_stays_invisible_to_keys() {
        let store = temp_store("metrics-ckpt");
        let inst = "127.0.0.1:7071";
        assert!(
            store.load_metrics(inst).is_none(),
            "fresh store: no checkpoint"
        );
        let counters = vec![
            ("endpoints.estimate.requests".to_string(), 42u64),
            ("endpoints.estimate.errors".to_string(), 0u64),
            ("endpoints.other.requests".to_string(), u64::MAX),
        ];
        store.save_metrics(inst, &counters).unwrap();
        assert_eq!(store.load_metrics(inst), Some(counters.clone()));
        // The sidecar never shows up as an artifact key, and
        // checkpoint writes never drift the artifact write counters.
        assert!(store.keys().is_empty());
        assert_eq!(store.stats().writes, 0);
        // Overwrites replace, not append.
        let newer = vec![("endpoints.estimate.requests".to_string(), 43u64)];
        store.save_metrics(inst, &newer).unwrap();
        assert_eq!(store.load_metrics(inst), Some(newer.clone()));
        // Checkpoints are per-instance: a second shard sharing the
        // store directory neither sees nor clobbers the first's.
        let other = "127.0.0.1:7072";
        assert!(store.load_metrics(other).is_none());
        store
            .save_metrics(other, &[("endpoints.sweep.requests".to_string(), 9)])
            .unwrap();
        assert_eq!(store.load_metrics(inst), Some(newer));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_metrics_checkpoint_is_a_clean_miss_and_evicted() {
        let store = temp_store("metrics-corrupt");
        let inst = "127.0.0.1:7071";
        store
            .save_metrics(inst, &[("endpoints.check.requests".to_string(), 7)])
            .unwrap();
        let path = store.metrics_path(inst);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            store.load_metrics(inst).is_none(),
            "bit flip reads as a miss"
        );
        assert!(!path.exists(), "corrupt checkpoint is deleted");
        // Truncation and wrong magic are misses too.
        std::fs::write(&path, b"PP").unwrap();
        assert!(store.load_metrics(inst).is_none());
        std::fs::write(&path, b"NOPEnope_nope_nope_nope_").unwrap();
        assert!(store.load_metrics(inst).is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn absurd_lengths_in_a_valid_frame_are_misses() {
        // Checksums only catch damage; a crafted file can carry a valid
        // frame around lengths and counts that point past its end.
        let mut count = u64::MAX.to_le_bytes().to_vec();
        assert_eq!(
            decode_metrics(&frame(METRICS_MAGIC, METRICS_VERSION, &count)),
            None
        );
        count[..8].copy_from_slice(&1u64.to_le_bytes());
        put_field(&mut count, b"name");
        assert_eq!(
            decode_metrics(&frame(METRICS_MAGIC, METRICS_VERSION, &count)),
            None,
            "a counter without its value"
        );
        let store = temp_store("absurd");
        let key = ArtifactKey { model: 1, mcf: 2 };
        let mut payload = u64::MAX.to_le_bytes().to_vec();
        payload.extend_from_slice(b"<model/>");
        std::fs::write(
            store.entry_path(key),
            frame(MAGIC, FORMAT_VERSION, &payload),
        )
        .unwrap();
        assert!(store.load_session(key).is_none());
        assert_eq!(store.stats().evictions, 1);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn key_is_spelled_into_and_parsed_from_file_names() {
        let key = ArtifactKey {
            model: 0x0123_4567_89ab_cdef,
            mcf: 0xfedc_ba98_7654_3210,
        };
        let name = key.file_name();
        assert_eq!(name, "pp-0123456789abcdef-fedcba9876543210.bin");
        assert_eq!(ArtifactKey::from_file_name(&name), Some(key));
        assert_eq!(ArtifactKey::from_file_name("pp-zz.bin"), None);
        assert_eq!(ArtifactKey::from_file_name("unrelated.txt"), None);
    }

    #[test]
    fn save_load_roundtrip_preserves_everything() {
        let store = temp_store("roundtrip");
        let session = Session::new(model("m", "2.0 / P")).unwrap();
        let scenario =
            crate::Scenario::new(prophet_machine::SystemParams::flat_mpi(2, 1)).without_trace();
        let fresh = session.evaluate(&scenario).unwrap();

        let key = store.save_session(&session).unwrap();
        let loaded = store.load_session(key).expect("hit");
        assert_eq!(loaded.program(), session.program());
        assert_eq!(loaded.diagnostics().len(), session.diagnostics().len());
        assert_eq!(loaded.model_xml(), session.model_xml());
        assert_eq!(loaded.mcf().to_xml(), session.mcf().to_xml());

        // Elaborations are not stored: the loaded session elaborates
        // afresh and agrees bit for bit.
        assert_eq!(loaded.retained_bytes(), 0);
        let again = loaded.evaluate(&scenario).unwrap();
        assert_eq!(
            again.predicted_time.to_bits(),
            fresh.predicted_time.to_bits()
        );

        assert_eq!(
            store.stats(),
            StoreStats {
                disk_hits: 1,
                writes: 1,
                ..Default::default()
            }
        );
    }

    #[test]
    fn load_of_absent_key_is_a_plain_miss() {
        let store = temp_store("absent");
        let key = ArtifactKey { model: 1, mcf: 2 };
        assert!(store.load_session(key).is_none());
        assert_eq!(store.stats().disk_misses, 1);
        assert_eq!(store.stats().evictions, 0, "nothing to evict");
    }

    #[test]
    fn compile_stored_hits_compile_the_stored_text() {
        let store = temp_store("hit");
        let m = model("hit", "3.0");
        let mcf = McfConfig::default();
        let s1 = Session::compile_stored(m.clone(), mcf.clone(), Some(&store)).unwrap();
        assert_eq!(store.stats().writes, 1, "miss must write back");

        let s2 = Session::compile_stored(m, mcf, Some(&store)).unwrap();
        assert_eq!(s2.program(), s1.program());
        let stats = store.stats();
        assert_eq!(
            (stats.disk_hits, stats.writes),
            (1, 1),
            "a hit writes nothing"
        );
    }

    #[test]
    fn truncated_entries_are_evicted_and_rewritten() {
        let store = temp_store("trunc");
        let session = Session::new(model("t", "1.0")).unwrap();
        let key = store.save_session(&session).unwrap();
        let path = store.entry_path(key);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        assert!(store.load_session(key).is_none(), "truncated = miss");
        assert!(!path.exists(), "truncated entry must be evicted");
        assert_eq!(store.stats().evictions, 1);

        // The slot re-fills cleanly.
        store.save_session(&session).unwrap();
        assert!(store.load_session(key).is_some());
    }

    #[test]
    fn flipped_payload_byte_fails_the_checksum() {
        let store = temp_store("bitflip");
        let session = Session::new(model("b", "1.0")).unwrap();
        let key = store.save_session(&session).unwrap();
        let path = store.entry_path(key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = 16 + (bytes.len() - 24) / 2; // somewhere inside the payload
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        assert!(store.load_session(key).is_none(), "bit flip = miss");
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn stale_format_version_is_a_miss() {
        let store = temp_store("version");
        let session = Session::new(model("v", "1.0")).unwrap();
        let key = store.save_session(&session).unwrap();
        let path = store.entry_path(key);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        assert!(store.load_session(key).is_none(), "future version = miss");
        assert!(!path.exists(), "stale entry must be evicted");
    }

    #[test]
    fn renamed_entry_cannot_impersonate_another_model() {
        let store = temp_store("rename");
        let a = Session::new(model("a", "1.0")).unwrap();
        let b = Session::new(model("b", "2.0")).unwrap();
        let key_a = store.save_session(&a).unwrap();
        let key_b = ArtifactKey::of(b.model(), b.mcf());
        // Drop model a's artifact into model b's slot.
        std::fs::copy(store.entry_path(key_a), store.entry_path(key_b)).unwrap();
        assert!(
            store.load_session(key_b).is_none(),
            "content digest must disagree with the entry's key"
        );
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn concurrent_opens_of_one_directory_all_succeed() {
        let dir =
            std::env::temp_dir().join(format!("prophet-store-open-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let barrier = std::sync::Barrier::new(16);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        ArtifactStore::open(&dir).map(|_| ())
                    })
                })
                .collect();
            for handle in handles {
                handle
                    .join()
                    .unwrap()
                    .expect("every concurrent open succeeds");
            }
        });
        // Every probe was cleaned up.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_rejects_a_file_path() {
        let path =
            std::env::temp_dir().join(format!("prophet-store-not-a-dir-{}", std::process::id()));
        std::fs::write(&path, b"i am a file").unwrap();
        assert!(ArtifactStore::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    /// Pin an entry's recency to a chosen logical stamp, the way GC
    /// tests control LRU order without sleeping.
    fn stamp(store: &ArtifactStore, key: ArtifactKey, at: u64) {
        std::fs::write(store.access_stamp_path(key), at.to_string()).unwrap();
    }

    #[test]
    fn loads_and_saves_refresh_the_access_stamp() {
        let store = temp_store("atime");
        let session = Session::new(model("a", "1.0")).unwrap();
        let key = store.save_session(&session).unwrap();
        let saved: u64 = std::fs::read_to_string(store.access_stamp_path(key))
            .expect("save writes the stamp sidecar")
            .parse()
            .unwrap();
        stamp(&store, key, 17);
        store.load_session(key).expect("hit");
        let loaded: u64 = std::fs::read_to_string(store.access_stamp_path(key))
            .unwrap()
            .parse()
            .unwrap();
        assert!(
            loaded >= saved,
            "a load must refresh the stamp ({loaded} < {saved})"
        );
        // Sidecars are invisible to key listing and warm-start.
        assert_eq!(store.keys(), vec![key]);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn gc_under_budget_is_a_no_op() {
        let store = temp_store("gc-noop");
        let key = store
            .save_session(&Session::new(model("g", "1.0")).unwrap())
            .unwrap();
        let report = store.gc(u64::MAX);
        assert_eq!(report.entries_scanned, 1);
        assert_eq!(report.lru_evicted + report.corrupt_evicted, 0);
        assert_eq!(report.bytes_reclaimed, 0);
        assert_eq!(report.entries_retained, 1);
        assert!(store.load_session(key).is_some());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn gc_evicts_strictly_least_recently_used_first() {
        let store = temp_store("gc-lru");
        let keys: Vec<ArtifactKey> = (0..4)
            .map(|i| {
                store
                    .save_session(&Session::new(model(&format!("m{i}"), "1.0")).unwrap())
                    .unwrap()
            })
            .collect();
        // Recency order by logical stamps: keys[2] oldest, then [0],
        // [3], [1] — deliberately not save order.
        for (key, at) in [(keys[2], 10), (keys[0], 20), (keys[3], 30), (keys[1], 40)] {
            stamp(&store, key, at);
        }
        let one = std::fs::metadata(store.entry_path(keys[0])).unwrap().len();
        // Budget for two entries: the two *oldest* must go.
        let report = store.gc(2 * one + one / 2);
        assert_eq!(report.lru_evicted, 2, "{report:?}");
        assert_eq!(report.corrupt_evicted, 0);
        assert_eq!(report.entries_retained, 2);
        assert!(report.bytes_retained <= 2 * one + one / 2);
        let survivors = store.keys();
        assert!(!survivors.contains(&keys[2]), "oldest must be evicted");
        assert!(!survivors.contains(&keys[0]), "second-oldest must go too");
        assert!(survivors.contains(&keys[3]) && survivors.contains(&keys[1]));
        // Evicted entries' sidecars are gone with them.
        assert!(!store.access_stamp_path(keys[2]).exists());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn gc_reclaims_corrupt_entries_regardless_of_budget() {
        let store = temp_store("gc-corrupt");
        let good = store
            .save_session(&Session::new(model("good", "1.0")).unwrap())
            .unwrap();
        let bad = store
            .save_session(&Session::new(model("bad", "2.0")).unwrap())
            .unwrap();
        let bad_path = store.entry_path(bad);
        let mut bytes = std::fs::read(&bad_path).unwrap();
        let mid = 16 + (bytes.len() - 24) / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&bad_path, &bytes).unwrap();
        // Budget is unlimited — the corrupt entry still goes.
        let report = store.gc(u64::MAX);
        assert_eq!(report.corrupt_evicted, 1, "{report:?}");
        assert_eq!(report.lru_evicted, 0);
        assert!(report.bytes_reclaimed >= bytes.len() as u64 - 1);
        assert!(!bad_path.exists());
        assert!(store.load_session(good).is_some());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn gc_with_zero_budget_empties_the_store() {
        let store = temp_store("gc-zero");
        for i in 0..3 {
            store
                .save_session(&Session::new(model(&format!("z{i}"), "1.0")).unwrap())
                .unwrap();
        }
        let report = store.gc(0);
        assert_eq!(report.lru_evicted, 3, "{report:?}");
        assert_eq!(report.entries_retained, 0);
        assert_eq!(report.bytes_retained, 0);
        assert!(store.keys().is_empty());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn gc_sweeps_orphaned_stamp_sidecars() {
        let store = temp_store("gc-orphan");
        let key = ArtifactKey { model: 7, mcf: 9 };
        std::fs::write(store.access_stamp_path(key), "12345").unwrap();
        store.gc(u64::MAX);
        assert!(
            !store.access_stamp_path(key).exists(),
            "a stamp without its artifact is swept"
        );
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn keys_lists_exactly_the_store_entries() {
        let store = temp_store("keys");
        assert!(store.keys().is_empty());
        let k1 = store
            .save_session(&Session::new(model("k1", "1.0")).unwrap())
            .unwrap();
        let k2 = store
            .save_session(&Session::new(model("k2", "2.0")).unwrap())
            .unwrap();
        // Unrelated files are ignored.
        std::fs::write(store.dir().join("notes.txt"), b"hi").unwrap();
        let mut expected = vec![k1, k2];
        expected.sort();
        assert_eq!(store.keys(), expected);
    }
}
