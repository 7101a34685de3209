//! Snapshot format v3: a versioned binary container with per-section
//! CRC32 checksums and optional i8-quantized matrix sections.
//!
//! ## Container layout (DESIGN.md §16)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"SOULSNAP"
//! 8       4     container version (u32 LE, currently 3)
//! 12      4     section count    (u32 LE, 1..=MAX_SECTIONS)
//! 16      28·n  section table: (kind u32, encoding u32, offset u64,
//!               len u64, crc32 u32) per section, little-endian
//! 16+28n  4     CRC32 of bytes [0, 16+28n)   — the header checksum
//! ...           section payloads at the table's offsets
//! ```
//!
//! The reader is **fail-fast by construction**: it reads the 16-byte
//! prelude first and rejects a bad magic or version before touching
//! another byte; it then reads and checksums the table and validates every
//! entry (known kind, known encoding, non-zero length, in-bounds offsets
//! with checked arithmetic, no duplicates, no overlaps, all required
//! sections present) against the file's *actual* size **before allocating
//! a payload buffer**. A corrupted or adversarial header can therefore
//! never cause an over-allocation or a multi-gigabyte parse — the worst
//! case is reading `16 + 28·MAX_SECTIONS + 4` header bytes. Only then
//! does it read every section's bytes, with one read into one buffer,
//! check every section's CRC32, and decode the payloads (DESIGN.md §16).
//!
//! ## Section encodings
//!
//! * `ENC_JSON` — a serde-JSON blob (metadata, vocabulary; also the
//!   `index` section of files written before the IVF index stopped being
//!   persisted, which is checksummed and then ignored).
//! * `ENC_F32` — `rows u64, cols u64` then `rows·cols` `f32` LE values.
//!   Bit-exact: a round-trip reproduces every float bit for bit.
//! * `ENC_QI8` — `rows u64, cols u64`, then the exact `f32` column-mean
//!   row (`cols` values), `rows` `f32` residual dequantization scales,
//!   `rows` `f32` exact original-row norms, then `rows·cols` `i8`
//!   residual values (mean-centered quantization, see
//!   `soulmate_linalg::quant::CenteredQuantizedRows` for the math and why
//!   centering is what keeps clustered embedding matrices rankable). The
//!   loader dequantizes into the ordinary `f32` snapshot fields, so every
//!   downstream consumer is oblivious to quantization.
//! * `ENC_EDGES` — the `backbone` section: `count u64`, then `count`
//!   edges `(u u32, v u32, w f32)` in SW-MST pop order, `u < v`.
//! * `ENC_TOPK` — the `topk` section: `n u64, k u64`, then per author a
//!   prefix length `len u32` and `len` pairs `(id u32, sim f32)`. It held
//!   per-node top-k lifelines, which the graph no longer has: the writer
//!   stores `k = 0` and `n` empty prefixes, and the reader refuses
//!   anything else (DESIGN.md §16).
//!
//! ## Logical schemas
//!
//! Schema 3 (the only one written) carries the cached cut as `backbone`
//! (plus the empty `topk`) and no `x_total`. Schemas 1–2 carried the
//! dense `x_total` instead; the loader checks it as before, builds the cut
//! from it and drops it. Every schema's metadata names `graph_top_k`,
//! and a file whose value is not 0 is refused. `--quantize` applies to
//! the author matrices only, so the cut of a quantized file is the fitted
//! one, bit for bit.
use super::{
    atomic_write, check_no_lifelines, cut_from_dense, CombinerTag, Handles, PipelineSnapshot,
    DENSE_VERSION_MAX, SNAPSHOT_VERSION, SNAPSHOT_VERSION_MIN,
};
use crate::engine::{max_backbone_edges, CachedCut};
use crate::error::CoreError;
use serde::{Deserialize, Serialize};
use soulmate_embedding::Embedding;
use soulmate_graph::Edge;
use soulmate_linalg::{CenteredQuantizedRows, ChunkedRows, Matrix, QuantizedRows, TILE};
use soulmate_text::{TokenizerConfig, Vocabulary};
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Leading bytes of every binary snapshot.
pub const BINARY_MAGIC: [u8; 8] = *b"SOULSNAP";

/// Container format version this module reads and writes.
pub const BINARY_VERSION: u32 = 3;

/// Hard cap on the section count a reader will accept. The writer emits
/// eight sections; the cap bounds the header read for corrupt or
/// adversarial counts.
pub const MAX_SECTIONS: u32 = 64;

/// Prelude bytes: magic + version + section count.
const PRELUDE_LEN: usize = 16;
/// Bytes per section-table entry.
const ENTRY_LEN: usize = 28;

/// Section kinds.
const KIND_META: u32 = 1;
const KIND_VOCAB: u32 = 2;
const KIND_COLLECTIVE: u32 = 3;
const KIND_CENTROIDS: u32 = 4;
const KIND_AUTHOR_CONTENT: u32 = 5;
const KIND_AUTHOR_CONCEPT: u32 = 6;
/// The dense fused matrix of schema 1–2 files; read, never written.
const KIND_X_TOTAL: u32 = 7;
/// A persisted IVF index, written only by earlier releases. The reader
/// still applies every table rule and the checksum to it, then ignores
/// it: the IVF plan builds its index from the snapshot's own matrices.
const KIND_INDEX: u32 = 8;
/// The cut's backbone (schema 3).
const KIND_BACKBONE: u32 = 9;
/// Per-author top-k prefixes (schema 3), always empty.
const KIND_TOPK: u32 = 10;

/// Section kinds every valid snapshot must carry, whatever its schema.
/// On top of these a file carries the cut as either [`KIND_X_TOTAL`]
/// (schema 1–2) or [`KIND_BACKBONE`] + [`KIND_TOPK`] (schema 3);
/// [`KIND_INDEX`] is optional.
const REQUIRED_KINDS: [u32; 6] = [
    KIND_META,
    KIND_VOCAB,
    KIND_COLLECTIVE,
    KIND_CENTROIDS,
    KIND_AUTHOR_CONTENT,
    KIND_AUTHOR_CONCEPT,
];

/// Section payload encodings.
const ENC_JSON: u32 = 0;
const ENC_F32: u32 = 1;
const ENC_QI8: u32 = 2;
const ENC_EDGES: u32 = 3;
const ENC_TOPK: u32 = 4;

/// Bytes per persisted backbone edge: `u u32, v u32, w f32`.
const EDGE_LEN: usize = 12;

/// Human-readable name of a section kind (for `soulmate inspect`).
fn kind_name(kind: u32) -> &'static str {
    match kind {
        KIND_META => "meta",
        KIND_VOCAB => "vocab",
        KIND_COLLECTIVE => "collective",
        KIND_CENTROIDS => "centroids",
        KIND_AUTHOR_CONTENT => "author_content",
        KIND_AUTHOR_CONCEPT => "author_concept",
        KIND_X_TOTAL => "x_total",
        KIND_INDEX => "index",
        KIND_BACKBONE => "backbone",
        KIND_TOPK => "topk",
        _ => "unknown",
    }
}

/// Human-readable name of a payload encoding.
fn encoding_name(encoding: u32) -> &'static str {
    match encoding {
        ENC_JSON => "json",
        ENC_F32 => "f32",
        ENC_QI8 => "qi8",
        ENC_EDGES => "edges",
        ENC_TOPK => "topk",
        _ => "unknown",
    }
}

/// The small scalar/metadata fields of a snapshot, stored as one JSON
/// section (they are a rounding error next to the matrices, and JSON
/// keeps them schema-evolvable exactly like the v1/v2 formats). Unknown
/// keys are ignored, so files that still carry the `fit_metrics` timings
/// earlier writers stored load as before; nothing writes them now, which
/// keeps a model file a function of its data.
#[derive(Serialize, Deserialize)]
struct MetaSection {
    /// Logical snapshot schema version: 3 for what the writer emits,
    /// 1..=2 for files that persisted the dense `x_total`. The
    /// *container* version lives in the prelude and is always
    /// [`BINARY_VERSION`].
    version: u32,
    tokenizer: TokenizerConfig,
    alpha: f32,
    tweet_combiner: CombinerTag,
    graph_min_sim: f32,
    /// Per-node lifelines: the writer stores 0, and a reader refuses
    /// anything else ([`check_no_lifelines`]).
    graph_top_k: usize,
    author_handles: Vec<String>,
    concept_means: Vec<f32>,
    concept_stats: (f32, f32),
    content_stats: (f32, f32),
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — hand-rolled
// because the workspace deliberately carries no compression/checksum
// dependency. Slicing-by-16: sixteen 256-entry tables, built at compile
// time, fold sixteen input bytes into the register per step with sixteen
// independent lookups instead of a chain of sixteen dependent ones; the
// tail of fewer than sixteen bytes goes one byte at a time through the
// first table. About five times the byte-at-a-time speed (DESIGN.md §16).
// ---------------------------------------------------------------------

/// Bytes folded per slicing step.
const CRC_SLICE: usize = 16;

/// `CRC_TABLES[0]` is the classic byte table; `CRC_TABLES[k][b]` is the
/// CRC register after byte `b` is followed by `k` zero bytes, so the byte
/// `k` places before the end of a 16-byte block contributes
/// `CRC_TABLES[k][b]`.
static CRC_TABLES: [[u32; 256]; CRC_SLICE] = crc_tables();

// Evaluated at compile time, where an out-of-range index is a build
// error; every index is bounded by its loop (k < 16, i < 256) or masked
// to 8 bits.
#[allow(clippy::indexing_slicing)]
const fn crc_tables() -> [[u32; 256]; CRC_SLICE] {
    let mut tables = [[0u32; 256]; CRC_SLICE];
    let mut i = 0;
    while i < 256 {
        // i < 256, so it fits u32 exactly.
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < CRC_SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            // Masked to 8 bits, so the index is < 256.
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32 of `bytes` (IEEE; matches zlib's `crc32(0, ...)`). Any length
/// and alignment: the blocks are byte arrays, read little-endian.
// Every table index below is a `u8` widened to `usize` (< 256) into a
// 256-entry table, and every table number is a constant < 16.
#[allow(clippy::indexing_slicing)]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let byte = |b: u8| usize::from(b);
    let mut c = !0u32;
    let (blocks, tail) = bytes.as_chunks::<CRC_SLICE>();
    for block in blocks {
        let [b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] = *block;
        let [x0, x1, x2, x3] = (c ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
        c = t[15][byte(x0)]
            ^ t[14][byte(x1)]
            ^ t[13][byte(x2)]
            ^ t[12][byte(x3)]
            ^ t[11][byte(b4)]
            ^ t[10][byte(b5)]
            ^ t[9][byte(b6)]
            ^ t[8][byte(b7)]
            ^ t[7][byte(b8)]
            ^ t[6][byte(b9)]
            ^ t[5][byte(b10)]
            ^ t[4][byte(b11)]
            ^ t[3][byte(b12)]
            ^ t[2][byte(b13)]
            ^ t[1][byte(b14)]
            ^ t[0][byte(b15)];
    }
    for &b in tail {
        let [low, ..] = c.to_le_bytes();
        c = t[0][byte(low ^ b)] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Little-endian slice reader (all bounds checked, no indexing).
// ---------------------------------------------------------------------

/// Cursor over a byte slice whose every read is bounds-checked and
/// returns [`CoreError::Parse`] on exhaustion — the decode path can never
/// panic on a truncated section.
struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8], what: &'static str) -> ByteReader<'a> {
        ByteReader { buf, pos: 0, what }
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CoreError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| CoreError::Parse(format!("{} section: length overflow", self.what)))?;
        let slice = self.buf.get(self.pos..end).ok_or_else(|| {
            CoreError::Parse(format!(
                "{} section truncated: wanted {} bytes at offset {}, have {}",
                self.what,
                n,
                self.pos,
                self.buf.len()
            ))
        })?;
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, CoreError> {
        let mut a = [0u8; 4];
        a.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(a))
    }

    fn u64(&mut self) -> Result<u64, CoreError> {
        let mut a = [0u8; 8];
        a.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(a))
    }

    /// A `u64` field that must fit in `usize` (row/column counts).
    fn len_u64(&mut self) -> Result<usize, CoreError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| {
            CoreError::Schema(format!(
                "{} section: size {v} exceeds this platform",
                self.what
            ))
        })
    }
}

// ---------------------------------------------------------------------
// Encoders.
// ---------------------------------------------------------------------

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn encode_matrix_f32(m: &Matrix) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + m.rows() * m.cols() * 4);
    push_u64(&mut out, m.rows() as u64);
    push_u64(&mut out, m.cols() as u64);
    for v in m.as_slice() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn encode_matrix_qi8(m: &Matrix) -> Vec<u8> {
    let c = CenteredQuantizedRows::quantize(m);
    let q = c.rows();
    let mut out = Vec::with_capacity(16 + q.cols() * 4 + q.rows() * 8 + q.rows() * q.cols());
    push_u64(&mut out, q.rows() as u64);
    push_u64(&mut out, q.cols() as u64);
    for v in c.mean() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for v in q.scales() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for v in q.norms() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for b in q.as_bytes() {
        out.extend_from_slice(&b.to_le_bytes());
    }
    out
}

/// Densify the centroids for the matrix encoders. Ragged rows are a
/// [`CoreError::Linalg`] via `from_rows`.
fn rows_to_matrix(rows: &[Vec<f32>]) -> Result<Matrix, CoreError> {
    if rows.is_empty() {
        return Ok(Matrix::zeros(0, 0));
    }
    Matrix::from_rows(rows).map_err(CoreError::from)
}

/// A `usize` that must fit the format's `u32` ids and lengths.
fn to_u32(what: &'static str, v: usize) -> Result<u32, CoreError> {
    u32::try_from(v).map_err(|_| CoreError::Invalid(format!("{what} {v} does not fit in u32")))
}

/// The `backbone` payload: the cut's edges in pop order.
fn encode_backbone(cut: &CachedCut) -> Result<Vec<u8>, CoreError> {
    let edges = cut.base_edges();
    let mut out = Vec::with_capacity(8 + edges.len() * EDGE_LEN);
    push_u64(&mut out, edges.len() as u64);
    for e in edges {
        push_u32(&mut out, to_u32("backbone endpoint", e.u)?);
        push_u32(&mut out, to_u32("backbone endpoint", e.v)?);
        out.extend_from_slice(&e.w.to_le_bytes());
    }
    Ok(out)
}

/// The `topk` payload: `n` authors, `k = 0`, and `n` empty prefixes —
/// the layout every earlier schema-3 writer produced for a graph without
/// lifelines, so model files stay byte-identical.
fn encode_topk(n: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + 4 * n);
    push_u64(&mut out, n as u64);
    push_u64(&mut out, 0);
    for _ in 0..n {
        push_u32(&mut out, 0);
    }
    out
}

fn to_json<T: Serialize>(what: &'static str, value: &T) -> Result<Vec<u8>, CoreError> {
    serde_json::to_vec(value)
        .map_err(|e| CoreError::Invalid(format!("{what} serialization failed: {e}")))
}

struct Section {
    kind: u32,
    encoding: u32,
    payload: Vec<u8>,
}

impl Section {
    fn matrix(kind: u32, m: &Matrix, quantize: bool) -> Section {
        if quantize {
            Section {
                kind,
                encoding: ENC_QI8,
                payload: encode_matrix_qi8(m),
            }
        } else {
            Section {
                kind,
                encoding: ENC_F32,
                payload: encode_matrix_f32(m),
            }
        }
    }
}

fn encode_sections(snap: &PipelineSnapshot, quantize: bool) -> Result<Vec<Section>, CoreError> {
    let meta = MetaSection {
        // What the writer emits is schema 3 whatever schema was read.
        version: SNAPSHOT_VERSION,
        tokenizer: snap.tokenizer.clone(),
        alpha: snap.alpha,
        tweet_combiner: snap.tweet_combiner,
        graph_min_sim: snap.graph_min_sim,
        graph_top_k: 0,
        author_handles: snap.author_handles.iter().map(str::to_owned).collect(),
        concept_means: snap.concept_means.clone(),
        concept_stats: snap.concept_stats,
        content_stats: snap.content_stats,
    };
    Ok(vec![
        Section {
            kind: KIND_META,
            encoding: ENC_JSON,
            payload: to_json("snapshot metadata", &meta)?,
        },
        Section {
            kind: KIND_VOCAB,
            encoding: ENC_JSON,
            payload: to_json("vocabulary", &*snap.vocab)?,
        },
        // The collective embedding stays f32 even under --quantize:
        // query tweet vectors are built from these rows, and perturbing
        // the query side would compound with the author-side error.
        Section::matrix(KIND_COLLECTIVE, snap.collective.matrix(), false),
        Section::matrix(KIND_CENTROIDS, &rows_to_matrix(&snap.centroids)?, false),
        // The cut is never quantized: a quantized file serves the fitted
        // cut exactly.
        Section {
            kind: KIND_BACKBONE,
            encoding: ENC_EDGES,
            payload: encode_backbone(&snap.cut)?,
        },
        Section {
            kind: KIND_TOPK,
            encoding: ENC_TOPK,
            payload: encode_topk(snap.cut.n_authors()),
        },
        Section::matrix(
            KIND_AUTHOR_CONTENT,
            &snap.author_content.to_matrix(),
            quantize,
        ),
        Section::matrix(
            KIND_AUTHOR_CONCEPT,
            &snap.author_concept.to_matrix(),
            quantize,
        ),
    ])
}

// ---------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------

impl PipelineSnapshot {
    /// Serialize the snapshot into the v3 binary container at `path` —
    /// the only snapshot format this workspace writes. The write is
    /// atomic (temporary + pid/seq name + rename): concurrent writers to
    /// one path each get their own temporary and the destination only
    /// ever holds a complete snapshot.
    ///
    /// The file is logical schema 3: the cached cut is stored as its
    /// `backbone` section (beside an empty `topk` section), never as a
    /// dense matrix. With `quantize`, the author content/concept matrices
    /// are stored as per-row i8 (`ENC_QI8`); the collective embedding,
    /// the centroids and the cut always stay exact.
    ///
    /// # Errors
    /// [`CoreError::Io`] for filesystem failures, [`CoreError::Invalid`] for
    /// unserializable values or ids beyond `u32`, [`CoreError::Linalg`]
    /// for ragged centroid rows.
    pub fn save_binary(&self, path: &Path, quantize: bool) -> Result<(), CoreError> {
        let start = std::time::Instant::now();
        let sections = encode_sections(self, quantize)?;
        let n = u32::try_from(sections.len())
            .map_err(|_| CoreError::Internal("section count exceeds u32"))?;
        let header_len = PRELUDE_LEN + sections.len() * ENTRY_LEN + 4;
        let mut header = Vec::with_capacity(header_len);
        header.extend_from_slice(&BINARY_MAGIC);
        push_u32(&mut header, BINARY_VERSION);
        push_u32(&mut header, n);
        let mut offset = header_len as u64;
        for s in &sections {
            push_u32(&mut header, s.kind);
            push_u32(&mut header, s.encoding);
            push_u64(&mut header, offset);
            push_u64(&mut header, s.payload.len() as u64);
            push_u32(&mut header, crc32(&s.payload));
            offset += s.payload.len() as u64;
        }
        let header_crc = crc32(&header);
        push_u32(&mut header, header_crc);
        let total_bytes = offset;
        atomic_write(path, |w| {
            w.write_all(&header).map_err(|e| CoreError::Io {
                context: format!("snapshot header write to {} failed", path.display()),
                source: e,
            })?;
            for s in &sections {
                w.write_all(&s.payload).map_err(|e| CoreError::Io {
                    context: format!("snapshot section write to {} failed", path.display()),
                    source: e,
                })?;
            }
            Ok(())
        })?;
        let obs = soulmate_obs::global();
        obs.record_duration("snapshot.save_binary.seconds", start.elapsed());
        obs.incr("snapshot.save_binary.bytes", total_bytes);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------

/// One validated section-table entry.
#[derive(Debug, Clone, Copy)]
struct Entry {
    kind: u32,
    encoding: u32,
    offset: u64,
    len: u64,
    crc: u32,
}

/// Everything [`inspect`] reports about one section without reading it.
#[derive(Debug, Clone, Serialize)]
pub struct SectionInfo {
    /// Numeric section kind.
    pub kind: u32,
    /// Human-readable kind name.
    pub name: &'static str,
    /// Payload encoding name (`json`/`f32`/`qi8`).
    pub encoding: &'static str,
    /// Payload length in bytes.
    pub len: u64,
    /// Stored CRC32 of the payload.
    pub crc: u32,
}

/// Header-level summary of a binary snapshot (`soulmate inspect`).
#[derive(Debug, Clone, Serialize)]
pub struct BinaryInfo {
    /// Container version from the prelude.
    pub container_version: u32,
    /// Total file size in bytes.
    pub file_len: u64,
    /// Validated section table.
    pub sections: Vec<SectionInfo>,
}

/// Read and validate the prelude + section table of an already-open
/// file. Returns the entries and the header length. Fails on magic,
/// version, count, header checksum, or any structural violation of the
/// table — all before any payload byte is read or allocated.
fn read_header(file: &mut File, file_len: u64) -> Result<(Vec<Entry>, usize), CoreError> {
    let mut prelude = [0u8; PRELUDE_LEN];
    file.read_exact(&mut prelude)
        .map_err(|e| CoreError::Parse(format!("binary snapshot shorter than its header: {e}")))?;
    let mut r = ByteReader::new(&prelude, "prelude");
    let magic = r.take(8)?;
    if magic != BINARY_MAGIC {
        return Err(CoreError::Parse(
            "not a binary snapshot (bad magic)".to_string(),
        ));
    }
    let version = r.u32()?;
    if version != BINARY_VERSION {
        // Version gate fires on the 16-byte prelude alone: a wrong-version
        // multi-GB file is rejected right here.
        return Err(CoreError::Schema(format!(
            "unsupported binary snapshot version {version} (expected {BINARY_VERSION})"
        )));
    }
    let count = r.u32()?;
    if count == 0 || count > MAX_SECTIONS {
        return Err(CoreError::Schema(format!(
            "section count {count} out of range 1..={MAX_SECTIONS}"
        )));
    }
    let count_us = count as usize; // count ≤ MAX_SECTIONS = 64, fits usize.
    let table_len = count_us * ENTRY_LEN;
    let header_len = PRELUDE_LEN + table_len + 4;
    if (header_len as u64) > file_len {
        return Err(CoreError::Parse(format!(
            "file too short for its section table ({file_len} < {header_len} bytes)"
        )));
    }
    let mut table = vec![0u8; table_len + 4];
    file.read_exact(&mut table)
        .map_err(|e| CoreError::Parse(format!("section table read failed: {e}")))?;
    let mut r = ByteReader::new(&table, "section table");
    let mut entries = Vec::with_capacity(count_us);
    for _ in 0..count_us {
        entries.push(Entry {
            kind: r.u32()?,
            encoding: r.u32()?,
            offset: r.u64()?,
            len: r.u64()?,
            crc: r.u32()?,
        });
    }
    let stored_crc = r.u32()?;
    // The header CRC covers prelude + table entries (everything before
    // the checksum field itself).
    let mut header_bytes = Vec::with_capacity(PRELUDE_LEN + table_len);
    header_bytes.extend_from_slice(&prelude);
    header_bytes.extend_from_slice(table.get(..table_len).unwrap_or(&[]));
    if crc32(&header_bytes) != stored_crc {
        return Err(CoreError::Parse(
            "header checksum mismatch (corrupted section table)".to_string(),
        ));
    }
    validate_entries(&entries, file_len, header_len as u64)?;
    Ok((entries, header_len))
}

/// Structural validation of the section table against the file's actual
/// size: known kinds and encodings, non-zero lengths, in-bounds offsets
/// (checked arithmetic — an offset+len overflow is corruption, not a
/// panic), no duplicate kinds, no overlapping byte ranges, all required
/// sections present.
fn validate_entries(entries: &[Entry], file_len: u64, header_end: u64) -> Result<(), CoreError> {
    for e in entries {
        let name = kind_name(e.kind);
        if name == "unknown" {
            return Err(CoreError::Schema(format!(
                "unknown section kind {}",
                e.kind
            )));
        }
        let enc_ok = match e.kind {
            KIND_META | KIND_VOCAB | KIND_INDEX => e.encoding == ENC_JSON,
            KIND_COLLECTIVE | KIND_CENTROIDS => e.encoding == ENC_F32,
            KIND_BACKBONE => e.encoding == ENC_EDGES,
            KIND_TOPK => e.encoding == ENC_TOPK,
            _ => e.encoding == ENC_F32 || e.encoding == ENC_QI8,
        };
        if !enc_ok {
            return Err(CoreError::Schema(format!(
                "section {name}: encoding {} not valid for this kind",
                e.encoding
            )));
        }
        if e.len == 0 {
            return Err(CoreError::Schema(format!("section {name} has zero length")));
        }
        if e.offset < header_end {
            return Err(CoreError::Schema(format!(
                "section {name} offset {} overlaps the header",
                e.offset
            )));
        }
        let end = e
            .offset
            .checked_add(e.len)
            .ok_or_else(|| CoreError::Schema(format!("section {name} offset+len overflows")))?;
        if end > file_len {
            return Err(CoreError::Schema(format!(
                "section {name} extends past end of file ({end} > {file_len})"
            )));
        }
    }
    let mut kinds: Vec<u32> = entries.iter().map(|e| e.kind).collect();
    kinds.sort_unstable();
    if kinds.windows(2).any(|w| w.first() == w.last()) {
        return Err(CoreError::Schema("duplicate section kind".to_string()));
    }
    for required in REQUIRED_KINDS {
        if !kinds.contains(&required) {
            return Err(CoreError::Schema(format!(
                "required section {} missing",
                kind_name(required)
            )));
        }
    }
    let has = |kind: u32| kinds.contains(&kind);
    match (has(KIND_X_TOTAL), has(KIND_BACKBONE), has(KIND_TOPK)) {
        (true, false, false) | (false, true, true) => {}
        (true, _, _) => {
            return Err(CoreError::Schema(
                "x_total and a backbone/topk section both present".to_string(),
            ))
        }
        (false, _, _) => {
            return Err(CoreError::Schema(
                "required section x_total, or backbone and topk, missing".to_string(),
            ))
        }
    }
    let mut ranges: Vec<(u64, u64)> = entries.iter().map(|e| (e.offset, e.len)).collect();
    ranges.sort_unstable();
    for w in ranges.windows(2) {
        if let (Some((off_a, len_a)), Some((off_b, _))) = (w.first(), w.last()) {
            // Checked in the loop above: offset+len never overflows here.
            if off_a + len_a > *off_b {
                return Err(CoreError::Schema(
                    "overlapping section byte ranges".to_string(),
                ));
            }
        }
    }
    Ok(())
}

/// Summarize a binary snapshot from its header alone — no payload bytes
/// are read, so inspecting a multi-gigabyte snapshot is O(header).
///
/// # Errors
/// Same header-level conditions as [`load`].
pub fn inspect(path: &Path) -> Result<BinaryInfo, CoreError> {
    let mut file = File::open(path).map_err(|e| CoreError::Io {
        context: format!("cannot open {}", path.display()),
        source: e,
    })?;
    let file_len = file
        .metadata()
        .map_err(|e| CoreError::Io {
            context: format!("cannot stat {}", path.display()),
            source: e,
        })?
        .len();
    let (entries, _) = read_header(&mut file, file_len)?;
    Ok(BinaryInfo {
        container_version: BINARY_VERSION,
        file_len,
        sections: entries
            .iter()
            .map(|e| SectionInfo {
                kind: e.kind,
                name: kind_name(e.kind),
                encoding: encoding_name(e.encoding),
                len: e.len,
                crc: e.crc,
            })
            .collect(),
    })
}

/// Read every section's bytes with one read: the span from the end of
/// the header (where [`read_header`] left the file) to the end of the
/// last section. Called only after the table was validated against the
/// file's real size, so the buffer is bounded by the bytes on disk; it is
/// allocated once and never zero-filled.
fn read_body(file: &mut File, entries: &[Entry], header_len: usize) -> Result<Vec<u8>, CoreError> {
    let header_end = header_len as u64; // usize widens losslessly into u64.
                                        // Every entry ends within the file (validated), so no sum overflows.
    let end = entries
        .iter()
        .map(|e| e.offset + e.len)
        .fold(header_end, u64::max);
    let len = usize::try_from(end - header_end).map_err(|_| {
        CoreError::Schema(format!(
            "section bytes {} exceed this platform",
            end - header_end
        ))
    })?;
    let mut body = Vec::with_capacity(len);
    file.take(end - header_end)
        .read_to_end(&mut body)
        .map_err(|err| CoreError::Io {
            context: "snapshot section read failed".to_string(),
            source: err,
        })?;
    if body.len() != len {
        return Err(CoreError::Parse(format!(
            "snapshot truncated: {len} section bytes after the header, read {}",
            body.len()
        )));
    }
    Ok(body)
}

/// The payload of `e` within `body` (which starts at file offset
/// `header_len`), once its checksum matches.
fn checked_payload<'a>(
    body: &'a [u8],
    header_len: usize,
    e: &Entry,
) -> Result<&'a [u8], CoreError> {
    let name = kind_name(e.kind);
    // Validated: header_len <= offset and offset + len <= the body's end.
    let payload = usize::try_from(e.offset)
        .ok()
        .and_then(|off| off.checked_sub(header_len))
        .zip(usize::try_from(e.len).ok())
        .and_then(|(start, len)| body.get(start..start.checked_add(len)?))
        .ok_or(CoreError::Internal(
            "validated section outside the read bytes",
        ))?;
    if crc32(payload) != e.crc {
        return Err(CoreError::Parse(format!(
            "section {name} checksum mismatch (corrupted payload)"
        )));
    }
    Ok(payload)
}

/// The `rows u64, cols u64` prefix of a matrix section. A zero-width
/// matrix's payload does not grow with its rows, so its row count is
/// bounded by the file instead: no valid file stores more rows than it
/// has section bytes (a vocabulary word, a concept mean and an author
/// each take bytes elsewhere), and a larger claim is refused here before
/// it can size a per-row allocation.
fn matrix_shape<'a>(
    what: &'static str,
    payload: &'a [u8],
    max_rows: usize,
) -> Result<(usize, usize, ByteReader<'a>), CoreError> {
    let mut r = ByteReader::new(payload, what);
    let rows = r.len_u64()?;
    let cols = r.len_u64()?;
    if cols == 0 && rows > max_rows {
        return Err(CoreError::Schema(format!(
            "{what} section: {rows} rows, more than the file's {max_rows} section bytes"
        )));
    }
    Ok((rows, cols, r))
}

/// The `rows·cols` little-endian `f32` words of an `ENC_F32` section,
/// which must fill the rest of the payload exactly.
fn f32_words<'a>(
    what: &'static str,
    mut r: ByteReader<'a>,
    rows: usize,
    cols: usize,
) -> Result<&'a [[u8; 4]], CoreError> {
    let need = rows
        .checked_mul(cols)
        .and_then(|n| n.checked_mul(4))
        .ok_or_else(|| CoreError::Schema(format!("{what} section: {rows}x{cols} overflows")))?;
    if r.remaining() != need {
        return Err(CoreError::Parse(format!(
            "{what} section: {rows}x{cols} needs {need} bytes, has {}",
            r.remaining()
        )));
    }
    Ok(r.take(need)?.as_chunks::<4>().0)
}

/// Little-endian `f32` words as floats, in one pass.
fn le_f32s(words: &[[u8; 4]]) -> Vec<f32> {
    words.iter().map(|w| f32::from_le_bytes(*w)).collect()
}

/// Decode an `ENC_F32` or `ENC_QI8` matrix payload. `ENC_QI8` sections
/// are dequantized into f32 here, so the rest of the workspace never
/// sees a quantized value.
fn decode_matrix(
    what: &'static str,
    encoding: u32,
    payload: &[u8],
    max_rows: usize,
) -> Result<Matrix, CoreError> {
    let (rows, cols, mut r) = matrix_shape(what, payload, max_rows)?;
    match encoding {
        ENC_F32 => {
            let words = f32_words(what, r, rows, cols)?;
            Matrix::from_vec(rows, cols, le_f32s(words)).map_err(CoreError::from)
        }
        ENC_QI8 => {
            let n = rows.checked_mul(cols).ok_or_else(|| {
                CoreError::Schema(format!("{what} section: {rows}x{cols} overflows"))
            })?;
            let sidecar = rows
                .checked_mul(8)
                .and_then(|s| s.checked_add(cols.checked_mul(4)?))
                .ok_or_else(|| {
                    CoreError::Schema(format!("{what} section: sidecar size overflows"))
                })?;
            let need = n
                .checked_add(sidecar)
                .ok_or_else(|| CoreError::Schema(format!("{what} section: byte size overflows")))?;
            if r.remaining() != need {
                return Err(CoreError::Parse(format!(
                    "{what} section: quantized {rows}x{cols} needs {need} bytes, has {}",
                    r.remaining()
                )));
            }
            let mut floats = |count: usize| -> Result<Vec<f32>, CoreError> {
                Ok(le_f32s(r.take(count * 4)?.as_chunks::<4>().0))
            };
            let mean = floats(cols)?;
            let scales = floats(rows)?;
            let norms = floats(rows)?;
            let data = r.take(n)?.iter().map(|&b| i8::from_le_bytes([b])).collect();
            let q = QuantizedRows::from_parts(rows, cols, data, scales, norms)
                .map_err(CoreError::from)?;
            let c = CenteredQuantizedRows::from_parts(mean, q).map_err(CoreError::from)?;
            Ok(c.dequantize())
        }
        other => Err(CoreError::Schema(format!(
            "{what} section: unsupported matrix encoding {other}"
        ))),
    }
}

/// Decode a matrix section into the `Vec<Vec<f32>>` shape used by the
/// centroids and a legacy x_total; `ENC_F32` rows are decoded in place.
fn decode_rows(
    what: &'static str,
    encoding: u32,
    payload: &[u8],
    max_rows: usize,
) -> Result<Vec<Vec<f32>>, CoreError> {
    if encoding != ENC_F32 {
        let m = decode_matrix(what, encoding, payload, max_rows)?;
        return Ok(m.iter_rows().map(<[f32]>::to_vec).collect());
    }
    let (rows, cols, r) = matrix_shape(what, payload, max_rows)?;
    let words = f32_words(what, r, rows, cols)?;
    if cols == 0 {
        return Ok(vec![Vec::new(); rows]);
    }
    Ok(words.chunks(cols).map(le_f32s).collect())
}

/// Decode an author matrix section straight into its row store:
/// `ENC_F32` rows go chunk by chunk from the payload into [`TILE`]-row
/// chunks, with no flat matrix in between; `ENC_QI8` rows are
/// dequantized first.
fn decode_chunked(
    what: &'static str,
    encoding: u32,
    payload: &[u8],
    max_rows: usize,
) -> Result<ChunkedRows, CoreError> {
    if encoding != ENC_F32 {
        return Ok(ChunkedRows::from(&decode_matrix(
            what, encoding, payload, max_rows,
        )?));
    }
    let (rows, cols, r) = matrix_shape(what, payload, max_rows)?;
    let words = f32_words(what, r, rows, cols)?;
    let chunk_len = TILE * cols;
    let chunks = if cols == 0 {
        vec![Vec::new(); rows.div_ceil(TILE)]
    } else {
        words
            .chunks(chunk_len)
            .map(|chunk| {
                // Room for a full chunk, so an ingest grows the tail in place.
                let mut floats = Vec::with_capacity(chunk_len);
                floats.extend(chunk.iter().map(|w| f32::from_le_bytes(*w)));
                floats
            })
            .collect()
    };
    ChunkedRows::from_chunks(rows, cols, chunks).map_err(CoreError::from)
}

/// Decode the `backbone` and `topk` payloads of a schema-3 file into the
/// cut over `n` authors. The edge count is checked against its `n − 1`
/// bound and the payload's exact size before any edge is allocated;
/// [`CachedCut::from_parts`] checks the rest. The `topk` payload must be
/// the empty one the writer stores; nothing is sized from its lengths.
fn decode_cut(
    backbone: &[u8],
    topk: &[u8],
    n: usize,
    min_sim: f32,
) -> Result<CachedCut, CoreError> {
    let mut r = ByteReader::new(backbone, "backbone");
    let count = r.len_u64()?;
    let max_edges = max_backbone_edges(n);
    if count > max_edges {
        return Err(CoreError::Schema(format!(
            "backbone section: {count} edges, more than n-1 = {max_edges}"
        )));
    }
    let need = count
        .checked_mul(EDGE_LEN)
        .ok_or_else(|| CoreError::Schema(format!("backbone section: {count} edges overflow")))?;
    if r.remaining() != need {
        return Err(CoreError::Parse(format!(
            "backbone section: {count} edges need {need} bytes, has {}",
            r.remaining()
        )));
    }
    let edges = r
        .take(need)?
        .as_chunks::<EDGE_LEN>()
        .0
        .iter()
        .map(|&[u0, u1, u2, u3, v0, v1, v2, v3, w0, w1, w2, w3]| Edge {
            // u32 widens losslessly into usize.
            u: u32::from_le_bytes([u0, u1, u2, u3]) as usize,
            v: u32::from_le_bytes([v0, v1, v2, v3]) as usize, // Widening, as above.
            w: f32::from_le_bytes([w0, w1, w2, w3]),
        })
        .collect();

    let mut r = ByteReader::new(topk, "topk");
    let (stored_n, stored_k) = (r.u64()?, r.u64()?);
    if stored_n != n as u64 {
        return Err(CoreError::Schema(format!(
            "topk section: {stored_n} authors, the model has {n}"
        )));
    }
    if stored_k != 0 {
        return Err(CoreError::Schema(format!(
            "topk section: k = {stored_k}, but graph_top_k is 0"
        )));
    }
    for node in 0..n {
        let len = r.u32()?;
        if len != 0 {
            return Err(CoreError::Schema(format!(
                "topk section: node {node} has {len} lifelines, but graph_top_k is 0"
            )));
        }
    }
    if r.remaining() != 0 {
        return Err(CoreError::Parse(format!(
            "topk section: {} trailing bytes",
            r.remaining()
        )));
    }
    CachedCut::from_parts(n, min_sim, edges)
}

fn from_json<T: for<'de> Deserialize<'de>>(
    what: &'static str,
    payload: &[u8],
) -> Result<T, CoreError> {
    serde_json::from_slice(payload)
        .map_err(|e| CoreError::Parse(format!("{what} section does not decode: {e}")))
}

/// Load a v3 binary snapshot.
///
/// Mirrors the JSON loader's contract — the returned snapshot has passed
/// [`PipelineSnapshot::validate`] and its vocabulary index is rebuilt —
/// but fails fast: magic/version on the first 16 bytes, table structure
/// and checksums before any payload allocation, every section checksum
/// before any payload parse. The section bytes are read with one call
/// into one buffer, dropped before the snapshot is assembled. Each stage
/// is timed under `snapshot.load_binary.{read,checksum,decode,assemble}.seconds`.
///
/// # Errors
/// [`CoreError::Io`] when the file cannot be opened or read,
/// [`CoreError::Parse`] for corruption (bad magic, checksum mismatches,
/// truncated sections, undecodable payloads), [`CoreError::Schema`] for
/// structural violations (bad version, bad table, shape mismatches).
pub fn load(path: &Path) -> Result<PipelineSnapshot, CoreError> {
    let start = Instant::now();
    let mut file = File::open(path).map_err(|e| CoreError::Io {
        context: format!("cannot open {}", path.display()),
        source: e,
    })?;
    let file_len = file
        .metadata()
        .map_err(|e| CoreError::Io {
            context: format!("cannot stat {}", path.display()),
            source: e,
        })?
        .len();
    let (entries, header_len) = read_header(&mut file, file_len)?;
    let body = read_body(&mut file, &entries, header_len)?;
    drop(file);
    let read_at = Instant::now();

    let payloads = entries
        .iter()
        .map(|e| checked_payload(&body, header_len, e))
        .collect::<Result<Vec<&[u8]>, CoreError>>()?;
    let checked_at = Instant::now();

    let max_rows = body.len();
    let mut meta: Option<MetaSection> = None;
    let mut vocab = None;
    let mut collective = None;
    let mut centroids = None;
    let mut author_content = None;
    let mut author_concept = None;
    let mut x_total = None;
    let mut backbone = None;
    let mut topk = None;
    for (e, &payload) in entries.iter().zip(&payloads) {
        let enc = e.encoding;
        match e.kind {
            KIND_META => meta = Some(from_json("metadata", payload)?),
            KIND_VOCAB => vocab = Some(from_json("vocabulary", payload)?),
            KIND_COLLECTIVE => {
                collective = Some(decode_matrix("collective", enc, payload, max_rows)?)
            }
            KIND_CENTROIDS => centroids = Some(decode_rows("centroids", enc, payload, max_rows)?),
            KIND_AUTHOR_CONTENT => {
                author_content = Some(decode_chunked("author_content", enc, payload, max_rows)?)
            }
            KIND_AUTHOR_CONCEPT => {
                author_concept = Some(decode_chunked("author_concept", enc, payload, max_rows)?)
            }
            KIND_X_TOTAL => x_total = Some(decode_rows("x_total", enc, payload, max_rows)?),
            // Decoded once the metadata and author count are known.
            KIND_BACKBONE => backbone = Some(payload),
            KIND_TOPK => topk = Some(payload),
            // Checksummed with the rest; the IVF plan rebuilds it.
            KIND_INDEX => {}
            // validate_entries rejected unknown kinds already.
            _ => return Err(CoreError::Internal("unvalidated section kind")),
        }
    }
    let missing = CoreError::Internal("required section missing after validation");
    let meta = meta.ok_or(missing)?;
    if !(SNAPSHOT_VERSION_MIN..=SNAPSHOT_VERSION).contains(&meta.version) {
        return Err(CoreError::Schema(format!(
            "unsupported snapshot schema version {} (expected {SNAPSHOT_VERSION_MIN}..={SNAPSHOT_VERSION})",
            meta.version
        )));
    }
    let author_content =
        author_content.ok_or(CoreError::Internal("author_content section missing"))?;
    check_no_lifelines(meta.graph_top_k)?;
    let n = author_content.rows();
    let min_sim = meta.graph_min_sim;
    // The table holds x_total or backbone + topk, never both
    // (`validate_entries`); the schema must name the one it holds.
    let cut = match (x_total, backbone, topk) {
        (Some(x), None, None) if meta.version <= DENSE_VERSION_MAX => {
            cut_from_dense(&x, n, min_sim)?
        }
        (None, Some(b), Some(t)) if meta.version > DENSE_VERSION_MAX => {
            decode_cut(b, t, n, min_sim)?
        }
        _ => {
            return Err(CoreError::Schema(format!(
                "schema {} does not match the file's cut sections (x_total up to schema {DENSE_VERSION_MAX}, backbone and topk after)",
                meta.version
            )))
        }
    };
    drop(payloads);
    drop(body);
    let decoded_at = Instant::now();

    // The vocabulary's string→id index is skipped by serde.
    let mut vocab: Vocabulary = vocab.ok_or(CoreError::Internal("vocab section missing"))?;
    vocab.rebuild_index();
    let snapshot = PipelineSnapshot {
        version: meta.version,
        vocab: Arc::new(vocab),
        tokenizer: meta.tokenizer,
        collective: Arc::new(Embedding::from_matrix(
            collective.ok_or(CoreError::Internal("collective section missing"))?,
        )),
        centroids: centroids.ok_or(CoreError::Internal("centroids section missing"))?,
        author_content,
        author_concept: author_concept
            .ok_or(CoreError::Internal("author_concept section missing"))?,
        concept_means: meta.concept_means,
        concept_stats: meta.concept_stats,
        content_stats: meta.content_stats,
        cut: Arc::new(cut),
        alpha: meta.alpha,
        tweet_combiner: meta.tweet_combiner,
        graph_min_sim: meta.graph_min_sim,
        author_handles: Handles::from(meta.author_handles),
    };
    snapshot.validate()?;
    let end = Instant::now();
    let obs = soulmate_obs::global();
    obs.record_duration("snapshot.load_binary.read.seconds", read_at - start);
    obs.record_duration(
        "snapshot.load_binary.checksum.seconds",
        checked_at - read_at,
    );
    obs.record_duration(
        "snapshot.load_binary.decode.seconds",
        decoded_at - checked_at,
    );
    obs.record_duration("snapshot.load_binary.assemble.seconds", end - decoded_at);
    obs.record_duration("snapshot.load_binary.seconds", end - start);
    Ok(snapshot)
}

impl PipelineSnapshot {
    /// True when the file at `path` starts with the binary snapshot
    /// magic (used by the format-dispatching loader and the CLI).
    pub(crate) fn sniff_binary(prefix: &[u8]) -> bool {
        prefix.len() >= BINARY_MAGIC.len()
            && prefix.get(..BINARY_MAGIC.len()) == Some(&BINARY_MAGIC)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};
    use soulmate_corpus::{generate, GeneratorConfig, Timestamp};

    fn fitted() -> (soulmate_corpus::Dataset, Pipeline) {
        let d = generate(&GeneratorConfig {
            n_authors: 14,
            n_communities: 4,
            n_concepts: 5,
            entities_per_concept: 8,
            mean_tweets_per_author: 25,
            ..GeneratorConfig::small()
        })
        .unwrap();
        let p = Pipeline::fit(&d, PipelineConfig::fast()).unwrap();
        (d, p)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "soulmate-binsnap-test-{}-{name}",
            std::process::id()
        ));
        p
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 reference values (zlib crc32).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The textbook byte-at-a-time CRC32, bit by bit with no table: the
    /// oracle the sliced implementation must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    /// Table `k`, entry `i`: the register `i` after `k + 1` bytes of
    /// eight shifts each (the byte `i` and `k` zero bytes).
    #[test]
    fn crc32_tables_are_the_byte_table_plus_zero_bytes() {
        let shift8 = |mut c: u32| {
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            c
        };
        for i in 0..256u32 {
            let mut c = i;
            for table in &CRC_TABLES {
                c = shift8(c);
                assert_eq!(table[i as usize], c);
            }
        }
    }

    /// Every length 0..=300 (every block count up to 18 and every tail
    /// length), then longer random buffers, each at every start offset
    /// 0..16 so the blocks straddle every alignment.
    #[test]
    fn prop_crc32_matches_bytewise_oracle() {
        soulmate_check::check(8, |g| {
            let buf = g.vec(300 + 16, |g| g.u8(0..=255));
            for offset in 0..16 {
                for len in 0..=300 {
                    let slice = &buf[offset..offset + len];
                    assert_eq!(
                        crc32(slice),
                        crc32_bytewise(slice),
                        "offset {offset} len {len}"
                    );
                }
            }
        });
        soulmate_check::check(16, |g| {
            let buf = g.vec(301..1 << 16, |g| g.u8(0..=255));
            for offset in 0..16 {
                let slice = &buf[offset..];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset} len {}",
                    slice.len()
                );
            }
        });
    }

    #[test]
    fn binary_roundtrip_is_bit_exact_without_quantization() {
        let (d, p) = fitted();
        let snap = p.snapshot(&[]);
        let path = tmp("roundtrip.bin");
        snap.save_binary(&path, false).unwrap();
        let loaded = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.version, snap.version);
        assert_eq!(loaded.author_handles, snap.author_handles);
        assert_eq!(
            loaded.author_content.to_matrix().as_slice(),
            snap.author_content.to_matrix().as_slice()
        );
        assert_eq!(
            loaded.collective.matrix().as_slice(),
            snap.collective.matrix().as_slice()
        );
        assert_eq!(loaded.cut.base_edges(), snap.cut.base_edges());
        assert_eq!(loaded.centroids, snap.centroids);
        // Served answers are therefore identical, and equal the dense
        // oracle's over the fitted matrix.
        let tweets: Vec<(Timestamp, String)> = d
            .tweets
            .iter()
            .filter(|t| t.author == 3)
            .take(5)
            .map(|t| (t.timestamp, t.text.clone()))
            .collect();
        let want = crate::online::link_query(&p.query_model(), &p.x_total, &tweets).unwrap();
        let got = loaded
            .query_engine(crate::EngineMode::Exact)
            .unwrap()
            .link_query_authors(&[tweets])
            .unwrap()
            .remove(0);
        assert_eq!(want.similarities, got.similarities);
        assert_eq!(want.subgraph, got.subgraph);
    }

    #[test]
    fn quantized_roundtrip_shrinks_and_stays_close() {
        let (_, p) = fitted();
        let snap = p.snapshot(&[]);
        let f32_path = tmp("full.bin");
        let q_path = tmp("quant.bin");
        snap.save_binary(&f32_path, false).unwrap();
        snap.save_binary(&q_path, true).unwrap();
        let f32_len = std::fs::metadata(&f32_path).unwrap().len();
        let q_len = std::fs::metadata(&q_path).unwrap().len();
        assert!(
            q_len < f32_len,
            "quantized file ({q_len}) not smaller than f32 ({q_len} vs {f32_len})"
        );
        let loaded = load(&q_path).unwrap();
        std::fs::remove_file(&f32_path).ok();
        std::fs::remove_file(&q_path).ok();
        // Dequantized values sit within half a *residual* scale step of
        // the source (the quantizer is deterministic, so recomputing it
        // here yields the exact scales the writer used).
        let c = CenteredQuantizedRows::quantize(&snap.author_content.to_matrix());
        for i in 0..snap.author_content.rows() {
            let orig = snap.author_content.row(i);
            let bound = c.rows().scale(i) * 0.5 + 1e-6;
            for (a, b) in orig.iter().zip(loaded.author_content.row(i)) {
                assert!((a - b).abs() <= bound, "row {i}: {a} vs {b}");
            }
        }
        loaded.validate().unwrap();
    }

    #[test]
    fn quantized_save_is_deterministic() {
        let (_, p) = fitted();
        let snap = p.snapshot(&[]);
        let a = tmp("det-a.bin");
        let b = tmp("det-b.bin");
        snap.save_binary(&a, true).unwrap();
        snap.save_binary(&b, true).unwrap();
        let bytes_a = std::fs::read(&a).unwrap();
        let bytes_b = std::fs::read(&b).unwrap();
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
        assert_eq!(bytes_a, bytes_b, "same snapshot must quantize identically");
    }

    #[test]
    fn wrong_version_fails_on_the_prelude_alone() {
        // A huge file with a bad version must be rejected from the first
        // 16 bytes — append megabytes of garbage after a bad prelude and
        // assert the error is the version gate, not a parse of the tail.
        let path = tmp("badversion.bin");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&BINARY_MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.resize(bytes.len() + (1 << 22), 0xAB);
        std::fs::write(&path, &bytes).unwrap();
        let err = load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        match err {
            CoreError::Schema(msg) => assert!(msg.contains("version 99"), "{msg}"),
            other => panic!("expected Schema version error, got {other}"),
        }
    }

    #[test]
    fn bad_magic_and_short_files_fail_cleanly() {
        let path = tmp("badmagic.bin");
        std::fs::write(&path, b"NOTSNAPx\x03\x00\x00\x00\x01\x00\x00\x00").unwrap();
        assert!(matches!(load(&path), Err(CoreError::Parse(_))));
        std::fs::write(&path, b"SOUL").unwrap();
        assert!(matches!(load(&path), Err(CoreError::Parse(_))));
        std::fs::write(&path, b"").unwrap();
        assert!(matches!(load(&path), Err(CoreError::Parse(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inspect_reports_sections_without_reading_payloads() {
        let (_, p) = fitted();
        let snap = p.snapshot(&[]);
        let path = tmp("inspect.bin");
        snap.save_binary(&path, true).unwrap();
        let info = inspect(&path).unwrap();
        assert_eq!(info.container_version, BINARY_VERSION);
        assert_eq!(info.sections.len(), 8);
        let names: Vec<&str> = info.sections.iter().map(|s| s.name).collect();
        assert!(!names.contains(&"x_total"), "{names:?}");
        assert!(names.contains(&"vocab"));
        let encoding = |name: &str| {
            info.sections
                .iter()
                .find(|s| s.name == name)
                .unwrap()
                .encoding
        };
        // --quantize reaches the author matrices, never the cut.
        assert_eq!(encoding("author_content"), "qi8");
        assert_eq!(encoding("backbone"), "edges");
        assert_eq!(encoding("topk"), "topk");
        // Truncate the file to header-only: inspect still works (it reads
        // no payloads), load fails.
        let header_len = PRELUDE_LEN + 8 * ENTRY_LEN + 4;
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..header_len]).unwrap();
        assert!(inspect(&path).is_err(), "table now points past EOF");
        std::fs::remove_file(&path).ok();
    }
}
