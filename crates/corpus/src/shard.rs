//! Sharded, streaming on-disk corpora: generate and read 10k–100k projects
//! at O(shard) peak memory.
//!
//! Layout of a sharded corpus directory:
//!
//! ```text
//! <dir>/
//!   corpus.json            # versioned manifest: seed, shard size, totals,
//!                          # per-shard record counts + checksums
//!   shards/
//!     shard-00000.csh      # fixed-size flat shard of project records
//!     shard-00001.csh
//!     ...
//! ```
//!
//! A shard file (format 2) is flat and stream-readable: an 8-byte magic
//! (format version embedded), a `u32` record count, then the records. All
//! integers are little-endian. A record is a `u32` body length, a `u64`
//! checksum of the body, and the body: the raw bytes of one
//! [`ProjectArtifacts`], as sections.
//!
//! ```text
//! record  = len:u32  checksum:u64  body[len]
//! body    = name  taxon  dialect  versions:u32  (date text)*  git_log
//! name, taxon, dialect, text, git_log = n:u32 bytes[n]   (UTF-8; taxon slug,
//!                                                         empty when unlabelled)
//! date    = year:i32 month:u8 day:u8 hour:u8 minute:u8 second:u8 offset_min:i32
//! ```
//!
//! No byte is escaped, so a reader copies each section once into its owned
//! `String`. Offsets are computable from the prefixes alone, so a reader can
//! skip records without a central index. Both checksums are word-at-a-time
//! (`WordHash`): each record's covers its body and is verified before the
//! record is yielded; the manifest's per-shard checksum covers the magic,
//! the count and every record's stored checksum, so it costs one step per
//! record and still covers every byte of the file. The manifest is what
//! makes a shard file *immutable once published* — rewriting one without
//! updating `corpus.json` is detected on the next read.
//!
//! Writes are crash-safe by construction: shards and the manifest are
//! written to a `.tmp` sibling and renamed into place, and the manifest is
//! written *last*. A generator killed mid-run leaves either stray `.tmp`
//! files or no `corpus.json` at all — never a manifest that points at a
//! half-written shard — and [`CorpusStream::open`] reports the typed
//! [`ShardError::MissingManifest`] instead of reading garbage.
//!
//! Reading is lenient at record granularity and bounded by the file: every
//! record length is checked against the bytes left in the file, and every
//! section length against the bytes left in its record, before anything is
//! allocated. A shard whose header or length framing is broken fails as a
//! whole (typed error), but a record whose checksum or sections are bad
//! yields a per-record [`ShardError::Record`] and iteration continues — one
//! malformed project fails that project, not the corpus (and not the
//! process). A format-1 (JSON record) corpus is refused by its manifest's
//! version with [`ShardError::FormatVersion`]; regenerate it.

use crate::artifacts::ProjectArtifacts;
use crate::generator::{default_workers, generate_ordered, CorpusSpec};
use coevo_ddl::Dialect;
use coevo_heartbeat::{Date, DateTime};
use coevo_taxa::Taxon;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

/// Format version of the sharded corpus layout (manifest + shard files).
/// Bump on any incompatible change; readers reject other versions with a
/// typed error instead of misparsing.
pub const CORPUS_FORMAT_VERSION: u32 = 2;

/// Shard file magic: 7 identifying bytes + the format version byte.
const SHARD_MAGIC: [u8; 8] = *b"COEVOSH\x02";

/// Bytes of a shard file's header: the magic and the `u32` record count.
const SHARD_HEADER: u64 = 12;

/// Bytes before a record's body: its `u32` length and `u64` checksum.
const RECORD_HEADER: u64 = 12;

/// Bytes of an encoded [`DateTime`].
const DATE_BYTES: usize = 13;

/// The manifest file name inside a sharded corpus directory.
pub const MANIFEST_FILE: &str = "corpus.json";

/// Errors of the sharded corpus layer. Every corruption mode a study can
/// meet on disk has a typed variant, so callers demote precisely — a broken
/// record fails one project, a broken shard fails one shard, and only a
/// missing or alien manifest fails the corpus.
#[derive(Debug)]
pub enum ShardError {
    /// Filesystem error, with the path it happened on.
    Io(String, io::Error),
    /// The corpus directory has no readable `corpus.json`.
    MissingManifest(PathBuf),
    /// The manifest failed to (de)serialize.
    Json(String),
    /// The manifest declares an unsupported format version.
    FormatVersion {
        /// The version found in the manifest.
        found: u32,
        /// The version this build reads and writes.
        expected: u32,
    },
    /// A shard file does not start with the shard magic.
    BadMagic(String),
    /// A shard file ended before its declared records did.
    Truncated {
        /// The shard file.
        file: String,
        /// What was being read when the bytes ran out.
        detail: String,
    },
    /// A shard's header and record checksums do not hash to the manifest's
    /// checksum.
    Checksum {
        /// The shard file.
        file: String,
        /// The checksum recorded in the manifest.
        expected: u64,
        /// The checksum of the bytes actually read.
        found: u64,
    },
    /// A shard's record count disagrees with the manifest entry.
    CountMismatch {
        /// The shard file.
        file: String,
        /// Records the manifest entry declares.
        manifest: usize,
        /// Records the shard header declares.
        header: usize,
    },
    /// The manifest's `total_projects` is not the sum of its shards'
    /// project counts.
    TotalMismatch {
        /// The manifest's `total_projects`.
        total: usize,
        /// The sum of its shard entries' `projects`.
        shards: u128,
    },
    /// Two projects in the corpus share a name (the study keys results and
    /// failures by name; duplicates would silently alias).
    DuplicateProject(String),
    /// One record's checksum or sections are bad; the surrounding shard
    /// remains readable.
    Record {
        /// The shard file.
        file: String,
        /// The record's position within the shard.
        index: usize,
        /// Why the payload was rejected.
        detail: String,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(path, e) => write!(f, "{path}: {e}"),
            Self::MissingManifest(dir) => {
                write!(f, "{}: no {MANIFEST_FILE} (not a sharded corpus, or a generation that was killed before finishing)", dir.display())
            }
            Self::Json(e) => write!(f, "json: {e}"),
            Self::FormatVersion { found, expected } => {
                write!(f, "corpus format version {found} (this build reads {expected})")
            }
            Self::BadMagic(file) => write!(f, "{file}: not a shard file (bad magic)"),
            Self::Truncated { file, detail } => write!(f, "{file}: truncated ({detail})"),
            Self::Checksum { file, expected, found } => write!(
                f,
                "{file}: checksum mismatch (manifest {expected:#018x}, file {found:#018x})"
            ),
            Self::CountMismatch { file, manifest, header } => write!(
                f,
                "{file}: record count mismatch (manifest says {manifest}, header says {header})"
            ),
            Self::TotalMismatch { total, shards } => {
                write!(f, "manifest declares {total} projects, its shards {shards}")
            }
            Self::DuplicateProject(name) => write!(f, "duplicate project name {name:?}"),
            Self::Record { file, index, detail } => {
                write!(f, "{file}: record {index}: {detail}")
            }
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(_, e) => Some(e),
            _ => None,
        }
    }
}

/// The versioned manifest of a sharded corpus (`corpus.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusManifest {
    /// The layout format version ([`CORPUS_FORMAT_VERSION`]).
    pub format: u32,
    /// The generator seed, for provenance (0 for hand-assembled corpora).
    pub seed: u64,
    /// The nominal shard size (the last shard may be smaller).
    pub shard_size: usize,
    /// Total project records across all shards.
    pub total_projects: usize,
    /// The shards, in corpus order.
    pub shards: Vec<ShardEntry>,
}

/// One shard of the manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardEntry {
    /// Shard file path, relative to the corpus directory.
    pub file: String,
    /// Global index of the shard's first project. Carried explicitly (not
    /// derived from the entry's position) so reordering manifest entries
    /// permutes *processing* order without changing any project's corpus
    /// position — shard-order permutations yield identical summaries.
    pub start: usize,
    /// Number of project records in the shard.
    pub projects: usize,
    /// The shard checksum: the word-at-a-time hash of the shard's magic,
    /// record count and record checksums (see the module doc).
    pub checksum: u64,
}

fn io_err(path: &Path, e: io::Error) -> ShardError {
    ShardError::Io(path.display().to_string(), e)
}

/// The word-at-a-time checksum of shard format 2. Each step,
/// `state = (state.rotl(26) ^ word) * K` with odd `K`, is a bijection of the
/// state for a fixed word and of the word for a fixed state, so two inputs of
/// equal length that differ in one 8-byte word — a flipped bit or byte —
/// always hash apart. It is an integrity check against
/// accidents, not a cryptographic one, and it is not [`Fnv1a`]
/// (`coevo_ddl::fingerprint`), whose byte-at-a-time values the parse memo's
/// keys and store digests depend on.
///
/// [`Fnv1a`]: coevo_ddl::fingerprint::Fnv1a
pub(crate) struct WordHash(u64);

impl Default for WordHash {
    fn default() -> Self {
        Self(0x243f_6a88_85a3_08d3)
    }
}

impl WordHash {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    /// Mix in one 64-bit word.
    pub(crate) fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(26) ^ w).wrapping_mul(Self::K);
    }

    /// The checksum of `bytes`: its 8-byte words, the zero-padded tail,
    /// then its length. A record's checksum is this over its body.
    pub(crate) fn of(bytes: &[u8]) -> u64 {
        let mut h = Self::default();
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            h.word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        h.word(u64::from_le_bytes(tail));
        h.word(bytes.len() as u64);
        h.finish()
    }

    /// The hash value (a bijective final mix of the state).
    pub(crate) fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 29)
    }
}

/// The running shard checksum after the header: the manifest's checksum
/// adds one [`WordHash::word`] per record checksum to it.
fn shard_hash(count: u32) -> WordHash {
    let mut h = WordHash::default();
    h.word(u64::from_le_bytes(SHARD_MAGIC));
    h.word(u64::from(count));
    h
}

/// Append one record body (see the module doc) to `out`.
fn encode_record(p: &ProjectArtifacts, out: &mut Vec<u8>) -> Result<(), ShardError> {
    let section = |out: &mut Vec<u8>, bytes: &[u8]| -> Result<(), ShardError> {
        out.extend_from_slice(&len_u32(bytes.len(), &p.name)?.to_le_bytes());
        out.extend_from_slice(bytes);
        Ok(())
    };
    section(out, p.name.as_bytes())?;
    section(out, p.taxon.map_or("", Taxon::slug).as_bytes())?;
    section(out, p.dialect.name().as_bytes())?;
    out.extend_from_slice(&len_u32(p.ddl_versions.len(), &p.name)?.to_le_bytes());
    for (date, text) in &p.ddl_versions {
        out.extend_from_slice(&date.date.year.to_le_bytes());
        out.extend_from_slice(&[
            date.date.month,
            date.date.day,
            date.hour,
            date.minute,
            date.second,
        ]);
        out.extend_from_slice(&date.utc_offset_minutes.to_le_bytes());
        section(out, text.as_bytes())?;
    }
    section(out, p.git_log.as_bytes())
}

/// A length or count as the format's `u32`; one that does not fit is
/// refused rather than wrapped.
fn len_u32(len: usize, what: &str) -> Result<u32, ShardError> {
    u32::try_from(len).map_err(|_| {
        let msg = format!("length {len} does not fit the shard format's u32");
        ShardError::Io(what.to_string(), io::Error::new(io::ErrorKind::InvalidInput, msg))
    })
}

/// A streaming writer of the sharded layout: push projects one at a time;
/// each full shard is written, checksummed and atomically renamed into
/// place before the next one starts, so peak memory is O(shard) regardless
/// of corpus size. [`ShardWriter::finish`] flushes the final partial shard
/// and writes the manifest (also atomically, and last).
pub struct ShardWriter {
    dir: PathBuf,
    shard_size: usize,
    seed: u64,
    /// Encoded records of the shard under construction.
    buf: Vec<u8>,
    /// Their checksums, in order.
    record_sums: Vec<u64>,
    /// The record being encoded (reused).
    body: Vec<u8>,
    shards: Vec<ShardEntry>,
    total: usize,
    names: HashSet<String>,
}

impl ShardWriter {
    /// Create `dir` (and its `shards/` subdirectory) and start writing.
    /// `shard_size` is the number of projects per shard (≥ 1).
    pub fn create(dir: &Path, seed: u64, shard_size: usize) -> Result<Self, ShardError> {
        let shard_size = shard_size.max(1);
        fs::create_dir_all(dir.join("shards")).map_err(|e| io_err(dir, e))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            shard_size,
            seed,
            buf: Vec::new(),
            record_sums: Vec::new(),
            body: Vec::new(),
            shards: Vec::new(),
            total: 0,
            names: HashSet::new(),
        })
    }

    /// Append one project record. Duplicate names are rejected with a typed
    /// error — the study keys results by name, so a duplicate would alias.
    pub fn push(&mut self, project: &ProjectArtifacts) -> Result<(), ShardError> {
        if !self.names.insert(project.name.clone()) {
            return Err(ShardError::DuplicateProject(project.name.clone()));
        }
        self.body.clear();
        encode_record(project, &mut self.body)?;
        let sum = WordHash::of(&self.body);
        self.buf.extend_from_slice(&len_u32(self.body.len(), &project.name)?.to_le_bytes());
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf.extend_from_slice(&self.body);
        self.record_sums.push(sum);
        self.total += 1;
        if self.record_sums.len() == self.shard_size {
            self.flush_shard()?;
        }
        Ok(())
    }

    /// Write the current shard to `shards/shard-NNNNN.csh` via a `.tmp`
    /// sibling + rename, record its manifest entry, and start the next one.
    fn flush_shard(&mut self) -> Result<(), ShardError> {
        let records = self.record_sums.len();
        if records == 0 {
            return Ok(());
        }
        let ordinal = self.shards.len();
        let rel = format!("shards/shard-{ordinal:05}.csh");
        let path = self.dir.join(&rel);
        let tmp = self.dir.join(format!("{rel}.tmp"));

        let count = len_u32(records, &rel)?;
        let mut h = shard_hash(count);
        for &sum in &self.record_sums {
            h.word(sum);
        }

        let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        f.write_all(&SHARD_MAGIC)
            .and_then(|()| f.write_all(&count.to_le_bytes()))
            .and_then(|()| f.write_all(&self.buf))
            .and_then(|()| f.sync_all())
            .map_err(|e| io_err(&tmp, e))?;
        drop(f);
        fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;

        self.shards.push(ShardEntry {
            file: rel,
            start: self.total - records,
            projects: records,
            checksum: h.finish(),
        });
        self.buf.clear();
        self.record_sums.clear();
        Ok(())
    }

    /// Flush the final partial shard and write `corpus.json` (atomically,
    /// and after every shard it points at exists on disk).
    pub fn finish(mut self) -> Result<CorpusManifest, ShardError> {
        self.flush_shard()?;
        let manifest = CorpusManifest {
            format: CORPUS_FORMAT_VERSION,
            seed: self.seed,
            shard_size: self.shard_size,
            total_projects: self.total,
            shards: std::mem::take(&mut self.shards),
        };
        save_manifest(&self.dir, &manifest)?;
        Ok(manifest)
    }
}

/// Write `corpus.json` via temp file + fsync + rename. Public so tools (and
/// tests) can rewrite a manifest — e.g. to permute shard processing order.
pub fn save_manifest(dir: &Path, manifest: &CorpusManifest) -> Result<(), ShardError> {
    let json =
        serde_json::to_string_pretty(manifest).map_err(|e| ShardError::Json(e.to_string()))?;
    let path = dir.join(MANIFEST_FILE);
    let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
    let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
    f.write_all(json.as_bytes()).map_err(|e| io_err(&tmp, e))?;
    f.sync_all().map_err(|e| io_err(&tmp, e))?;
    drop(f);
    fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
    Ok(())
}

/// Generate `spec`'s corpus directly into the sharded layout — the corpus
/// is never resident in memory. Projects are generated on every core and
/// written in corpus order by the one [`ShardWriter`], so the bytes on disk
/// do not depend on the core count, and the crash contract is the
/// writer's. This is what `coevo corpus gen` runs.
pub fn generate_sharded(
    dir: &Path,
    spec: &CorpusSpec,
    shard_size: usize,
) -> Result<CorpusManifest, ShardError> {
    write_sharded(dir, spec, shard_size, default_workers())
}

/// [`generate_sharded`] on `workers` generator threads.
fn write_sharded(
    dir: &Path,
    spec: &CorpusSpec,
    shard_size: usize,
    workers: usize,
) -> Result<CorpusManifest, ShardError> {
    let mut writer = ShardWriter::create(dir, spec.seed, shard_size)?;
    generate_ordered(spec, workers, |p| Ok(ProjectArtifacts::from(p)), |p| writer.push(&p))?;
    writer.finish()
}

/// A streaming reader of one shard file: validates the magic, format and
/// record count up front, then reads records in two steps.
///
/// 1. [`ShardReader::next_frame`] is the in-order framing step: a record's
///    length is checked against the file, its body read, and its stored
///    checksum folded into the running shard checksum. It must run
///    serially, since the shard checksum depends on record order.
/// 2. [`Frame::decode`] checks the body against the record checksum and
///    decodes it. It needs nothing from the reader, so frames can be
///    decoded anywhere and in any order.
///
/// After the last frame, [`ShardReader::verify`] compares the shard
/// checksum against the manifest. The [`Iterator`] runs both steps per
/// record and the shard check once at the end — unless a per-record error
/// was already reported, in which case a failing shard checksum would only
/// repeat the finer-grained diagnosis.
pub struct ShardReader {
    file: String,
    reader: io::BufReader<fs::File>,
    /// File bytes not yet read: every record length is checked against it
    /// before anything is allocated.
    left: u64,
    /// Records the header (cross-checked against the manifest) declares.
    records: usize,
    next_index: usize,
    hasher: WordHash,
    expected_checksum: u64,
    /// Set by a framing error: the records after it cannot be found.
    broken: bool,
    /// Iterator state: records that failed to decode, and whether the
    /// shard check has run.
    record_errors: usize,
    verified: bool,
}

/// One framed record: its position, stored checksum and body, read but not
/// yet verified or decoded.
#[derive(Debug)]
pub struct Frame {
    file: String,
    index: usize,
    checksum: u64,
    body: Vec<u8>,
}

impl Frame {
    /// Verify the body against the record checksum, then decode it. A bad
    /// body fails this record only ([`ShardError::Record`]).
    pub fn decode(&self) -> Result<ProjectArtifacts, ShardError> {
        let found = WordHash::of(&self.body);
        let decoded = if found != self.checksum {
            Err(format!(
                "checksum mismatch (record {:#018x}, body {found:#018x})",
                self.checksum
            ))
        } else {
            decode_record(&self.body)
        };
        decoded.map_err(|detail| ShardError::Record {
            file: self.file.clone(),
            index: self.index,
            detail,
        })
    }
}

impl ShardReader {
    /// Open one shard through its manifest entry.
    pub fn open(dir: &Path, entry: &ShardEntry) -> Result<Self, ShardError> {
        let path = dir.join(&entry.file);
        let f = fs::File::open(&path).map_err(|e| io_err(&path, e))?;
        let len = f.metadata().map_err(|e| io_err(&path, e))?.len();
        let truncated =
            |detail: String| ShardError::Truncated { file: entry.file.clone(), detail };
        let mut reader = io::BufReader::new(f);
        let mut header = [0u8; SHARD_HEADER as usize];
        reader.read_exact(&mut header).map_err(|_| truncated("header".into()))?;
        if header[..8] != SHARD_MAGIC {
            return Err(ShardError::BadMagic(entry.file.clone()));
        }
        let count = u32::from_le_bytes(header[8..].try_into().expect("4 bytes"));
        let records = count as usize;
        if records != entry.projects {
            return Err(ShardError::CountMismatch {
                file: entry.file.clone(),
                manifest: entry.projects,
                header: records,
            });
        }
        let left = len.saturating_sub(SHARD_HEADER);
        // Callers size buffers by the count: bound it by the file first.
        if u64::from(count) > left / RECORD_HEADER {
            return Err(truncated(format!("{records} records declared, {left} bytes left")));
        }
        Ok(Self {
            file: entry.file.clone(),
            reader,
            left,
            records,
            next_index: 0,
            hasher: shard_hash(count),
            expected_checksum: entry.checksum,
            broken: false,
            record_errors: 0,
            verified: false,
        })
    }

    /// Records this shard declares.
    pub fn len(&self) -> usize {
        self.records
    }

    /// Whether the shard declares zero records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// The framing step: read the next record's length, stored checksum
    /// and body, in file order. `None` once every declared record has been
    /// framed, or after a framing error, which is fatal for the shard: the
    /// records after a broken frame cannot be found.
    pub fn next_frame(&mut self) -> Option<Result<Frame, ShardError>> {
        if self.broken || self.next_index == self.records {
            return None;
        }
        let frame = self.read_frame();
        self.broken = frame.is_err();
        self.next_index += 1;
        Some(frame)
    }

    fn read_frame(&mut self) -> Result<Frame, ShardError> {
        let index = self.next_index;
        let truncated =
            |detail: String| ShardError::Truncated { file: self.file.clone(), detail };
        let mut head = [0u8; RECORD_HEADER as usize];
        if self.left < RECORD_HEADER || self.reader.read_exact(&mut head).is_err() {
            return Err(truncated(format!("header of record {index}")));
        }
        self.left -= RECORD_HEADER;
        let len = u64::from(u32::from_le_bytes(head[..4].try_into().expect("4 bytes")));
        let checksum = u64::from_le_bytes(head[4..].try_into().expect("8 bytes"));
        if len > self.left {
            return Err(truncated(format!(
                "record {index} declares {len} bytes, {} left",
                self.left
            )));
        }
        let mut body = Vec::with_capacity(len as usize);
        let read = (&mut self.reader).take(len).read_to_end(&mut body);
        if read.map_or(true, |n| n as u64 != len) {
            return Err(truncated(format!("body of record {index}")));
        }
        self.left -= len;
        self.hasher.word(checksum);
        Ok(Frame { file: self.file.clone(), index, checksum, body })
    }

    /// Compare the shard checksum against the manifest. Meaningful once
    /// [`ShardReader::next_frame`] has framed every record; before that the
    /// running checksum covers only a prefix and cannot match.
    pub fn verify(&self) -> Result<(), ShardError> {
        let found = self.hasher.finish();
        if found == self.expected_checksum {
            return Ok(());
        }
        Err(ShardError::Checksum {
            file: self.file.clone(),
            expected: self.expected_checksum,
            found,
        })
    }
}

/// Decode one checksum-verified record body (see the module doc). Every
/// section length is checked against the bytes left in the body before its
/// bytes are copied.
fn decode_record(body: &[u8]) -> Result<ProjectArtifacts, String> {
    let mut r = Sections(body);
    let name = r.text("name")?.to_string();
    let taxon = match r.text("taxon")? {
        "" => None,
        slug => Some(
            Taxon::ALL
                .into_iter()
                .find(|t| t.slug() == slug)
                .ok_or_else(|| format!("unknown taxon {slug:?}"))?,
        ),
    };
    let dialect = r.text("dialect")?;
    let dialect =
        Dialect::from_name(dialect).ok_or_else(|| format!("unknown dialect {dialect:?}"))?;
    let versions = r.u32("version count")? as usize;
    // Each version takes at least its date and a text length.
    if versions > r.0.len() / (DATE_BYTES + 4) {
        return Err(format!(
            "truncated ({versions} versions declared, {} bytes left)",
            r.0.len()
        ));
    }
    let mut ddl_versions = Vec::with_capacity(versions);
    for _ in 0..versions {
        let date = r.date()?;
        ddl_versions.push((date, r.text("version text")?.to_string()));
    }
    let git_log = r.text("git log")?.to_string();
    if !r.0.is_empty() {
        return Err(format!("{} bytes after the git log", r.0.len()));
    }
    Ok(ProjectArtifacts { name, taxon, dialect, ddl_versions, git_log })
}

/// The unread rest of a record body.
struct Sections<'a>(&'a [u8]);

impl<'a> Sections<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if n > self.0.len() {
            return Err(format!(
                "truncated ({what}: {n} bytes declared, {} left)",
                self.0.len()
            ));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    /// A length-prefixed UTF-8 section.
    fn text(&mut self, what: &str) -> Result<&'a str, String> {
        let n = self.u32(what)? as usize;
        std::str::from_utf8(self.take(n, what)?).map_err(|e| format!("{what}: {e}"))
    }

    /// An encoded [`DateTime`], validated as [`DateTime::parse`] would.
    fn date(&mut self) -> Result<DateTime, String> {
        let b = self.take(DATE_BYTES, "version date")?;
        let year = i32::from_le_bytes(b[..4].try_into().expect("4 bytes"));
        let date = Date::new(year, b[4], b[5])
            .and_then(|d| DateTime::new(d, b[6], b[7], b[8]))
            .map_err(|e| format!("bad version date: {e}"))?;
        let utc_offset_minutes = i32::from_le_bytes(b[9..].try_into().expect("4 bytes"));
        Ok(DateTime { utc_offset_minutes, ..date })
    }
}

impl Iterator for ShardReader {
    type Item = Result<ProjectArtifacts, ShardError>;

    /// The next frame, decoded; after the last one, the shard check —
    /// skipped after a framing error, and when record-level corruption was
    /// already diagnosed.
    fn next(&mut self) -> Option<Self::Item> {
        match self.next_frame() {
            Some(Ok(frame)) => {
                let record = frame.decode();
                self.record_errors += usize::from(record.is_err());
                Some(record)
            }
            Some(Err(e)) => Some(Err(e)),
            None if self.broken || self.verified => None,
            None => {
                self.verified = true;
                if self.record_errors > 0 {
                    return None;
                }
                self.verify().err().map(Err)
            }
        }
    }
}

/// An open sharded corpus: the validated manifest plus shard accessors. The
/// streaming replacement for eager corpus loading — callers iterate shards
/// (or records) and never hold more than one shard's projects.
pub struct CorpusStream {
    dir: PathBuf,
    manifest: CorpusManifest,
}

impl CorpusStream {
    /// Open a sharded corpus directory: read and validate `corpus.json`.
    pub fn open(dir: &Path) -> Result<Self, ShardError> {
        let path = dir.join(MANIFEST_FILE);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(ShardError::MissingManifest(dir.to_path_buf()))
            }
            Err(e) => return Err(io_err(&path, e)),
        };
        let manifest: CorpusManifest =
            serde_json::from_str(&text).map_err(|e| ShardError::Json(e.to_string()))?;
        if manifest.format != CORPUS_FORMAT_VERSION {
            return Err(ShardError::FormatVersion {
                found: manifest.format,
                expected: CORPUS_FORMAT_VERSION,
            });
        }
        // Summed wide: forged counts must not wrap into agreement.
        let shards: u128 = manifest.shards.iter().map(|e| e.projects as u128).sum();
        if shards != manifest.total_projects as u128 {
            return Err(ShardError::TotalMismatch { total: manifest.total_projects, shards });
        }
        Ok(Self { dir: dir.to_path_buf(), manifest })
    }

    /// The validated manifest.
    pub fn manifest(&self) -> &CorpusManifest {
        &self.manifest
    }

    /// Total project records the manifest declares.
    pub fn len(&self) -> usize {
        self.manifest.total_projects
    }

    /// Whether the corpus declares zero projects.
    pub fn is_empty(&self) -> bool {
        self.manifest.total_projects == 0
    }

    /// Open one shard for streaming reads.
    pub fn shard_reader(&self, entry: &ShardEntry) -> Result<ShardReader, ShardError> {
        ShardReader::open(&self.dir, entry)
    }

    /// Eagerly load the whole corpus in *global* order (manifest entry order
    /// is ignored; entries are processed by their `start` index), failing on
    /// the first problem — the strict, in-memory counterpart of the
    /// streaming path, kept as its differential oracle. Also re-checks name
    /// uniqueness, since hand-assembled corpora bypass [`ShardWriter`].
    pub fn load_all(&self) -> Result<Vec<ProjectArtifacts>, ShardError> {
        let mut entries: Vec<&ShardEntry> = self.manifest.shards.iter().collect();
        entries.sort_by_key(|e| e.start);
        let mut out = Vec::new();
        let mut names = HashSet::new();
        for entry in entries {
            // Sized by the opened shard, whose count is bounded by its file.
            let reader = self.shard_reader(entry)?;
            out.reserve(reader.len());
            for record in reader {
                let p = record?;
                if !names.insert(p.name.clone()) {
                    return Err(ShardError::DuplicateProject(p.name));
                }
                out.push(p);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_corpus;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("coevo_shard_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_spec(per_taxon: usize) -> CorpusSpec {
        CorpusSpec::paper().with_per_taxon(per_taxon)
    }

    #[test]
    fn generate_sharded_round_trips() {
        let dir = tmpdir("roundtrip");
        let spec = small_spec(2); // 12 projects
        let manifest = generate_sharded(&dir, &spec, 5).unwrap();
        assert_eq!(manifest.total_projects, 12);
        assert_eq!(manifest.shards.len(), 3); // 5 + 5 + 2
        assert_eq!(manifest.shards[2].projects, 2);
        assert_eq!(manifest.shards[1].start, 5);

        let stream = CorpusStream::open(&dir).unwrap();
        let loaded = stream.load_all().unwrap();
        let reference: Vec<ProjectArtifacts> =
            generate_corpus(&spec).iter().map(ProjectArtifacts::from_generated).collect();
        assert_eq!(loaded, reference);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_reader_streams_with_checksum() {
        let dir = tmpdir("reader");
        let spec = small_spec(1);
        let manifest = generate_sharded(&dir, &spec, 4).unwrap();
        let stream = CorpusStream::open(&dir).unwrap();
        let mut n = 0;
        for entry in &manifest.shards {
            for record in stream.shard_reader(entry).unwrap() {
                record.unwrap();
                n += 1;
            }
        }
        assert_eq!(n, 6);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_is_typed() {
        let dir = tmpdir("nomanifest");
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(CorpusStream::open(&dir), Err(ShardError::MissingManifest(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn format_version_mismatch_is_typed() {
        let dir = tmpdir("version");
        generate_sharded(&dir, &small_spec(1), 4).unwrap();
        let mut stream = CorpusStream::open(&dir).unwrap();
        stream.manifest.format = CORPUS_FORMAT_VERSION + 1;
        save_manifest(&dir, &stream.manifest).unwrap();
        assert!(matches!(
            CorpusStream::open(&dir),
            Err(ShardError::FormatVersion { found, expected })
                if found == CORPUS_FORMAT_VERSION + 1 && expected == CORPUS_FORMAT_VERSION
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_shard_is_typed() {
        let dir = tmpdir("truncated");
        let manifest = generate_sharded(&dir, &small_spec(1), 6).unwrap();
        let path = dir.join(&manifest.shards[0].file);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 40]).unwrap();
        let stream = CorpusStream::open(&dir).unwrap();
        let last = stream.shard_reader(&manifest.shards[0]).unwrap().last().unwrap();
        assert!(matches!(last, Err(ShardError::Truncated { .. })), "{last:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Offset of record 0's body: shard header, then its length and
    /// checksum.
    const BODY0: usize = (SHARD_HEADER + RECORD_HEADER) as usize;

    #[test]
    fn checksum_mismatch_is_typed() {
        let dir = tmpdir("checksum");
        let manifest = generate_sharded(&dir, &small_spec(1), 6).unwrap();
        let mut doctored = manifest.clone();
        doctored.shards[0].checksum ^= 1;
        save_manifest(&dir, &doctored).unwrap();
        let stream = CorpusStream::open(&dir).unwrap();
        let results: Vec<_> = stream.shard_reader(&doctored.shards[0]).unwrap().collect();
        // Every record verifies, but the trailing shard check fires.
        assert_eq!(results.len(), 7);
        assert!(results[..6].iter().all(Result::is_ok));
        let last = results.last().unwrap();
        assert!(matches!(last, Err(ShardError::Checksum { .. })), "{last:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn consistently_rewritten_record_fails_the_shard_checksum() {
        // Rewrite record 0's body *and* its stored checksum: the record
        // verifies, the manifest's shard checksum does not.
        let dir = tmpdir("rewrite");
        let manifest = generate_sharded(&dir, &small_spec(1), 6).unwrap();
        let path = dir.join(&manifest.shards[0].file);
        let mut bytes = fs::read(&path).unwrap();
        let len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let name = BODY0 + 4; // first byte of the project name
        bytes[name] = if bytes[name] == b'x' { b'y' } else { b'x' };
        let sum = WordHash::of(&bytes[BODY0..BODY0 + len]);
        bytes[16..24].copy_from_slice(&sum.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let stream = CorpusStream::open(&dir).unwrap();
        let results: Vec<_> = stream.shard_reader(&manifest.shards[0]).unwrap().collect();
        assert!(results[..6].iter().all(Result::is_ok));
        assert!(matches!(results[6], Err(ShardError::Checksum { .. })), "{:?}", results[6]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_fails_that_record_only() {
        let dir = tmpdir("record");
        let manifest = generate_sharded(&dir, &small_spec(1), 6).unwrap();
        let path = dir.join(&manifest.shards[0].file);
        let clean = fs::read(&path).unwrap();
        // Flip one byte of record 0's body, then (separately) of its stored
        // checksum; the framing stays intact either way.
        for pos in [BODY0 + 40, 16] {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x20;
            fs::write(&path, &bytes).unwrap();
            let stream = CorpusStream::open(&dir).unwrap();
            let results: Vec<_> = stream.shard_reader(&manifest.shards[0]).unwrap().collect();
            assert_eq!(results.len(), 6);
            assert!(
                matches!(&results[0], Err(ShardError::Record { index: 0, detail, .. })
                    if detail.starts_with("checksum mismatch")),
                "{:?}",
                results[0]
            );
            // The remaining five records still load (and no shard checksum
            // error is appended — the corruption is already diagnosed).
            for r in &results[1..] {
                r.as_ref().unwrap();
            }
            // The strict loader, by contrast, refuses the corpus.
            assert!(stream.load_all().is_err());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_lengths_are_refused_before_allocating() {
        let dir = tmpdir("hostile");
        let manifest = generate_sharded(&dir, &small_spec(1), 6).unwrap();
        let path = dir.join(&manifest.shards[0].file);
        let clean = fs::read(&path).unwrap();
        let stream = CorpusStream::open(&dir).unwrap();

        // A record length far past the end of the file ends the shard.
        let mut bytes = clean.clone();
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let results: Vec<_> = stream.shard_reader(&manifest.shards[0]).unwrap().collect();
        assert_eq!(results.len(), 1);
        assert!(
            matches!(&results[0], Err(ShardError::Truncated { detail, .. })
                if detail.contains("declares 4294967295 bytes")),
            "{:?}",
            results[0]
        );

        // A section length past the end of its (checksum-valid) record
        // fails that record only.
        let mut bytes = clean.clone();
        let len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        bytes[BODY0..BODY0 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let sum = WordHash::of(&bytes[BODY0..BODY0 + len]);
        bytes[16..24].copy_from_slice(&sum.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let results: Vec<_> = stream.shard_reader(&manifest.shards[0]).unwrap().collect();
        assert!(
            matches!(&results[0], Err(ShardError::Record { index: 0, detail, .. })
                if detail.starts_with("truncated (name: 4294967295 bytes declared")),
            "{:?}",
            results[0]
        );
        assert!(results[1..6].iter().all(Result::is_ok));

        // A record count the file cannot hold is refused at open.
        let mut bytes = clean.clone();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let mut doctored = manifest.clone();
        doctored.shards[0].projects = u32::MAX as usize;
        assert!(matches!(
            stream.shard_reader(&doctored.shards[0]),
            Err(ShardError::Truncated { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn format_1_corpus_is_refused() {
        let dir = tmpdir("v1");
        let mut manifest = generate_sharded(&dir, &small_spec(1), 6).unwrap();
        manifest.format = 1;
        save_manifest(&dir, &manifest).unwrap();
        assert!(matches!(
            CorpusStream::open(&dir),
            Err(ShardError::FormatVersion { found: 1, expected: 2 })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_round_trip_every_field() {
        // No taxon, every dialect, negative and positive offsets, empty and
        // multi-byte texts.
        let dir = tmpdir("fields");
        let base = ProjectArtifacts::from(crate::case_study_project());
        assert_eq!(base.taxon, None);
        let mut w = ShardWriter::create(&dir, 0, 2).unwrap();
        let mut written = Vec::new();
        for (i, dialect) in
            [Dialect::MySql, Dialect::Postgres, Dialect::Generic].into_iter().enumerate()
        {
            let mut p = base.clone();
            p.name = format!("{}-{i}", p.name);
            p.dialect = dialect;
            p.taxon = (i > 0).then_some(Taxon::ALL[i]);
            p.ddl_versions[0].0.utc_offset_minutes = -330;
            p.ddl_versions[0].1 = "-- \u{e9}t\u{e9}\nCREATE TABLE t (a INT);".into();
            p.git_log = if i == 2 { String::new() } else { p.git_log };
            w.push(&p).unwrap();
            written.push(p);
        }
        w.finish().unwrap();
        assert_eq!(CorpusStream::open(&dir).unwrap().load_all().unwrap(), written);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn word_hash_tells_every_single_byte_flip_apart() {
        let bytes: Vec<u8> = (0..61u8).collect();
        let clean = WordHash::of(&bytes);
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 1;
            assert_ne!(WordHash::of(&flipped), clean, "flip at {i}");
        }
        assert_ne!(WordHash::of(&bytes[..60]), clean);
        assert_ne!(WordHash::of(b""), WordHash::of(&[0]));
    }

    #[test]
    fn bad_magic_is_typed() {
        let dir = tmpdir("magic");
        let manifest = generate_sharded(&dir, &small_spec(1), 6).unwrap();
        let path = dir.join(&manifest.shards[0].file);
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] = b'X';
        fs::write(&path, &bytes).unwrap();
        let stream = CorpusStream::open(&dir).unwrap();
        assert!(matches!(
            stream.shard_reader(&manifest.shards[0]),
            Err(ShardError::BadMagic(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn count_mismatch_is_typed() {
        let dir = tmpdir("count");
        let manifest = generate_sharded(&dir, &small_spec(1), 6).unwrap();
        let mut doctored = manifest.clone();
        doctored.shards[0].projects += 1;
        doctored.total_projects += 1; // keep the manifest self-consistent
        save_manifest(&dir, &doctored).unwrap();
        let stream = CorpusStream::open(&dir).unwrap();
        assert!(matches!(
            stream.shard_reader(&stream.manifest().shards[0]),
            Err(ShardError::CountMismatch { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_names_rejected_at_write_and_read() {
        let dir = tmpdir("dup");
        let spec = small_spec(1);
        let p = ProjectArtifacts::from_generated(&generate_corpus(&spec)[0]);
        let mut w = ShardWriter::create(&dir, 0, 8).unwrap();
        w.push(&p).unwrap();
        assert!(matches!(w.push(&p), Err(ShardError::DuplicateProject(_))));
        let _ = fs::remove_dir_all(&dir);

        // Reader-side: hand-assemble a corpus with two one-project shards
        // holding the same name (bypassing the writer's check).
        let dir = tmpdir("dupread");
        let mut w = ShardWriter::create(&dir, 0, 1).unwrap();
        w.push(&p).unwrap();
        let mut manifest = w.finish().unwrap();
        let shard0 = fs::read(dir.join(&manifest.shards[0].file)).unwrap();
        fs::write(dir.join("shards/shard-00001.csh"), &shard0).unwrap();
        let mut second = manifest.shards[0].clone();
        second.file = "shards/shard-00001.csh".into();
        second.start = 1;
        manifest.shards.push(second);
        manifest.total_projects = 2;
        save_manifest(&dir, &manifest).unwrap();
        let stream = CorpusStream::open(&dir).unwrap();
        assert!(matches!(stream.load_all(), Err(ShardError::DuplicateProject(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn forged_total_projects_is_refused_at_open() {
        let dir = tmpdir("total");
        let mut manifest = generate_sharded(&dir, &small_spec(1), 4).unwrap();
        for forged in [7, usize::MAX] {
            manifest.total_projects = forged;
            save_manifest(&dir, &manifest).unwrap();
            assert!(matches!(
                CorpusStream::open(&dir),
                Err(ShardError::TotalMismatch { total, shards: 6 }) if total == forged
            ));
        }
        // Shard counts whose sum wraps a usize do not agree with any total.
        manifest.shards[0].projects = usize::MAX;
        manifest.total_projects = 1;
        save_manifest(&dir, &manifest).unwrap();
        let err = CorpusStream::open(&dir).err().expect("refused");
        assert!(err.to_string().contains("declares 1 projects"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn frames_decode_in_any_order_like_the_iterator() {
        let dir = tmpdir("frames");
        let manifest = generate_sharded(&dir, &small_spec(1), 6).unwrap();
        let path = dir.join(&manifest.shards[0].file);
        let mut bytes = fs::read(&path).unwrap();
        bytes[BODY0 + 40] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        let stream = CorpusStream::open(&dir).unwrap();
        let expected: Vec<_> = stream
            .shard_reader(&manifest.shards[0])
            .unwrap()
            .map(|r| r.map_err(|e| e.to_string()))
            .collect();
        let mut reader = stream.shard_reader(&manifest.shards[0]).unwrap();
        let mut frames = Vec::new();
        while let Some(frame) = reader.next_frame() {
            frames.push(frame.unwrap());
        }
        assert_eq!(frames.len(), 6);
        let mut decoded: Vec<_> =
            frames.iter().rev().map(|f| f.decode().map_err(|e| e.to_string())).collect();
        decoded.reverse();
        assert_eq!(decoded, expected);
        assert!(decoded[0].as_ref().unwrap_err().contains("record 0: checksum mismatch"));
        // Every record's stored checksum is intact, so the shard verifies.
        reader.verify().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_generation_leaves_no_manifest() {
        // Simulate `coevo corpus gen` dying mid-run: the writer flushes
        // complete shards but is dropped before `finish`.
        let dir = tmpdir("killed");
        let spec = small_spec(1);
        let corpus = generate_corpus(&spec);
        let mut w = ShardWriter::create(&dir, spec.seed, 2).unwrap();
        for p in corpus.iter().take(5) {
            w.push(&ProjectArtifacts::from_generated(p)).unwrap();
        }
        drop(w); // killed: no finish(), no corpus.json
        assert!(dir.join("shards/shard-00000.csh").exists());
        assert!(!dir.join(MANIFEST_FILE).exists());
        assert!(matches!(CorpusStream::open(&dir), Err(ShardError::MissingManifest(_))));
        // Re-running generation into the same directory recovers fully.
        let manifest = generate_sharded(&dir, &spec, 2).unwrap();
        assert_eq!(manifest.total_projects, 6);
        assert_eq!(CorpusStream::open(&dir).unwrap().load_all().unwrap().len(), 6);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every file under `dir`, by relative path.
    fn tree(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files =
            vec![(MANIFEST_FILE.to_string(), fs::read(dir.join(MANIFEST_FILE)).unwrap())];
        for e in fs::read_dir(dir.join("shards")).unwrap() {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            files.push((name, fs::read(&path).unwrap()));
        }
        files.sort();
        files
    }

    #[test]
    fn shard_bytes_do_not_depend_on_the_worker_count() {
        let spec = CorpusSpec { seed: 3, ..CorpusSpec::paper().with_total(30) };
        let mut trees = Vec::new();
        for workers in [1, 2, 4, 7] {
            let dir = tmpdir(&format!("workers{workers}"));
            let manifest = write_sharded(&dir, &spec, 4, workers).unwrap();
            assert_eq!((manifest.total_projects, manifest.shards.len()), (30, 8));
            trees.push(tree(&dir));
            let _ = fs::remove_dir_all(&dir);
        }
        for t in &trees[1..] {
            assert!(*t == trees[0]);
        }
    }

    #[test]
    fn an_unwritable_shard_fails_typed_and_leaves_no_manifest() {
        for workers in [1, 2, 4, 7] {
            let dir = tmpdir(&format!("unwritable{workers}"));
            // A directory where the second shard's temporary file goes.
            fs::create_dir_all(dir.join("shards/shard-00001.csh.tmp")).unwrap();
            let err = write_sharded(&dir, &small_spec(2), 4, workers).unwrap_err();
            match &err {
                ShardError::Io(path, _) => {
                    assert!(path.ends_with("shards/shard-00001.csh.tmp"))
                }
                other => panic!("{workers} workers: {other}"),
            }
            assert!(dir.join("shards/shard-00000.csh").exists());
            assert!(!dir.join(MANIFEST_FILE).exists());
            assert!(matches!(CorpusStream::open(&dir), Err(ShardError::MissingManifest(_))));
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn empty_corpus_round_trips() {
        let dir = tmpdir("empty");
        let w = ShardWriter::create(&dir, 0, 8).unwrap();
        let manifest = w.finish().unwrap();
        assert_eq!(manifest.total_projects, 0);
        assert!(manifest.shards.is_empty());
        let stream = CorpusStream::open(&dir).unwrap();
        assert!(stream.is_empty());
        assert!(stream.load_all().unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
