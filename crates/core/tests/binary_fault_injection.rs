//! Fault-injection harness for the v3 binary snapshot container.
//!
//! Companion to `fault_injection.rs` (which attacks the JSON format and
//! the engine boundary): every hostile byte pattern here — truncation at
//! every structural boundary, flipped payload and header bytes, offsets
//! past EOF, adversarial lengths, zero-length / overlapping / duplicate /
//! unknown sections — must surface as a typed [`CoreError`], never a
//! panic and never an allocation larger than the file itself. The harness
//! forges corrupted containers by editing the section table and
//! re-sealing the header checksum, exactly as an attacker with a hex
//! editor would. The schema-3 cut sections (`backbone`, `topk`) are
//! forged inside well-formed containers: their payloads are rewritten and
//! every checksum resealed, so only the decoder's own checks stand.

mod common;

use soulmate_core::error::CoreError;
use soulmate_core::online::link_query;
use soulmate_core::pipeline::{Pipeline, PipelineConfig};
use soulmate_core::snapshot::binary::crc32;
use soulmate_core::snapshot::PipelineSnapshot;
use soulmate_core::EngineMode;
use soulmate_corpus::{generate, GeneratorConfig, Timestamp};
use std::path::PathBuf;

/// Container prelude: magic (8) + version (4) + section count (4).
const PRELUDE_LEN: usize = 16;
/// Bytes per section-table entry: kind u32, encoding u32, offset u64,
/// len u64, crc u32.
const ENTRY_LEN: usize = 28;

/// Section kinds of the schema-3 cut.
const KIND_BACKBONE: u32 = 9;
const KIND_TOPK: u32 = 10;

/// Authors in the fitted model.
const N: usize = 14;

fn fitted() -> (soulmate_corpus::Dataset, Pipeline) {
    fitted_with(PipelineConfig::fast())
}

fn fitted_with(config: PipelineConfig) -> (soulmate_corpus::Dataset, Pipeline) {
    let d = generate(&GeneratorConfig {
        n_authors: N,
        n_communities: 3,
        n_concepts: 5,
        entities_per_concept: 8,
        mean_tweets_per_author: 22,
        ..GeneratorConfig::small()
    })
    .unwrap();
    let p = Pipeline::fit(&d, config).unwrap();
    (d, p)
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("soulmate-binfault-{}-{name}", std::process::id()));
    p
}

fn author_tweets(
    d: &soulmate_corpus::Dataset,
    author: u32,
    take: usize,
) -> Vec<(Timestamp, String)> {
    d.tweets
        .iter()
        .filter(|t| t.author == author)
        .take(take)
        .map(|t| (t.timestamp, t.text.clone()))
        .collect()
}

/// An in-memory binary container whose header fields can be forged. Every
/// mutator leaves the header checksum stale; [`Container::reseal`]
/// recomputes it so the corruption under test is the *only* violation the
/// reader sees.
struct Container {
    bytes: Vec<u8>,
}

#[derive(Debug, Clone, Copy)]
struct TableEntry {
    kind: u32,
    encoding: u32,
    offset: u64,
    len: u64,
}

impl Container {
    fn build(quantize: bool) -> Container {
        Container::from_fit(fitted().1, quantize)
    }

    /// A container whose graph is its `top_k` lifelines alone (no fused
    /// similarity clears the threshold), so the backbone holds more than
    /// a spanning tree and every prefix is non-empty.
    fn build_top_k(top_k: usize) -> Container {
        let config = PipelineConfig {
            graph_top_k: top_k,
            graph_min_sim: 10.0,
            ..PipelineConfig::fast()
        };
        Container::from_fit(fitted_with(config).1, false)
    }

    fn from_fit(p: Pipeline, quantize: bool) -> Container {
        let snap = p.snapshot(&[]);
        let path = tmp(if quantize { "build-q.bin" } else { "build.bin" });
        snap.save_binary(&path, quantize).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        Container { bytes }
    }

    fn section_count(&self) -> usize {
        u32::from_le_bytes(self.bytes[12..16].try_into().unwrap()) as usize
    }

    fn header_len(&self) -> usize {
        PRELUDE_LEN + self.section_count() * ENTRY_LEN + 4
    }

    fn entry_at(&self, i: usize) -> usize {
        PRELUDE_LEN + i * ENTRY_LEN
    }

    fn entry(&self, i: usize) -> TableEntry {
        let at = self.entry_at(i);
        TableEntry {
            kind: u32::from_le_bytes(self.bytes[at..at + 4].try_into().unwrap()),
            encoding: u32::from_le_bytes(self.bytes[at + 4..at + 8].try_into().unwrap()),
            offset: u64::from_le_bytes(self.bytes[at + 8..at + 16].try_into().unwrap()),
            len: u64::from_le_bytes(self.bytes[at + 16..at + 24].try_into().unwrap()),
        }
    }

    fn set_kind(&mut self, i: usize, kind: u32) {
        let at = self.entry_at(i);
        self.bytes[at..at + 4].copy_from_slice(&kind.to_le_bytes());
    }

    fn set_encoding(&mut self, i: usize, encoding: u32) {
        let at = self.entry_at(i) + 4;
        self.bytes[at..at + 4].copy_from_slice(&encoding.to_le_bytes());
    }

    fn set_offset(&mut self, i: usize, offset: u64) {
        let at = self.entry_at(i) + 8;
        self.bytes[at..at + 8].copy_from_slice(&offset.to_le_bytes());
    }

    fn set_len(&mut self, i: usize, len: u64) {
        let at = self.entry_at(i) + 16;
        self.bytes[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    fn set_crc(&mut self, i: usize, crc: u32) {
        let at = self.entry_at(i) + 24;
        self.bytes[at..at + 4].copy_from_slice(&crc.to_le_bytes());
    }

    /// Recompute the trailing header checksum over prelude + table, so a
    /// forged table passes the checksum gate and reaches validation.
    fn reseal(&mut self) {
        let hl = self.header_len();
        let crc = crc32(&self.bytes[..hl - 4]);
        self.bytes[hl - 4..hl].copy_from_slice(&crc.to_le_bytes());
    }

    /// The payload of the section of `kind`.
    fn payload(&self, kind: u32) -> Vec<u8> {
        common::split(&self.bytes)
            .into_iter()
            .find(|(k, _, _)| *k == kind)
            .unwrap()
            .2
    }

    /// The same container with the section of `kind` carrying `payload`,
    /// laid out and checksummed afresh.
    fn with_payload(&self, kind: u32, payload: Vec<u8>) -> Container {
        let mut sections = common::split(&self.bytes);
        sections.iter_mut().find(|(k, _, _)| *k == kind).unwrap().2 = payload;
        Container {
            bytes: common::seal(&sections),
        }
    }

    /// Write the (possibly corrupted) bytes and load them through the
    /// sniffing entry point — the exact path `link`/`serve` take.
    fn load(&self, name: &str) -> Result<PipelineSnapshot, CoreError> {
        let path = tmp(name);
        std::fs::write(&path, &self.bytes).unwrap();
        let result = PipelineSnapshot::load(&path);
        std::fs::remove_file(&path).ok();
        result
    }
}

/// Typed-failure assertion: corruption is Parse, structure is Schema —
/// and a panic (the thing under test) fails the harness itself.
fn assert_typed(err: &CoreError, label: &str) {
    assert!(
        matches!(err, CoreError::Parse(_) | CoreError::Schema(_)),
        "{label}: gave {err:?}, expected Parse or Schema"
    );
}

// ---------------------------------------------------------------------
// Byte-level corruption.
// ---------------------------------------------------------------------

#[test]
fn truncation_at_every_structural_boundary_is_a_typed_error() {
    let c = Container::build(false);
    let total = c.bytes.len();
    // Prelude edges, table edges, and each section's start / interior /
    // last byte: every proper prefix must fail with a typed error.
    let mut cuts = vec![
        0,
        1,
        7,
        8,
        12,
        15,
        PRELUDE_LEN,
        c.header_len() - 1,
        c.header_len(),
    ];
    for i in 0..c.section_count() {
        let e = c.entry(i);
        let (off, len) = (e.offset as usize, e.len as usize);
        cuts.extend([off, off + 1, off + len / 2, off + len - 1]);
    }
    for cut in cuts {
        assert!(cut < total, "boundary {cut} is not a proper prefix");
        let truncated = Container {
            bytes: c.bytes[..cut].to_vec(),
        };
        let err = truncated.load("trunc.bin").unwrap_err();
        assert_typed(&err, &format!("truncation at {cut}/{total}"));
    }
    // Control: the untouched bytes load.
    assert!(c.load("trunc-ctl.bin").is_ok());
}

#[test]
fn flipped_payload_bytes_fail_their_section_checksum() {
    let c = Container::build(false);
    for i in 0..c.section_count() {
        let e = c.entry(i);
        let mut forged = Container {
            bytes: c.bytes.clone(),
        };
        // First, middle, and last byte of the payload.
        for delta in [0, e.len as usize / 2, e.len as usize - 1] {
            let at = e.offset as usize + delta;
            forged.bytes[at] ^= 0xFF;
        }
        let err = forged.load("flip.bin").unwrap_err();
        assert!(
            matches!(&err, CoreError::Parse(m) if m.contains("checksum")),
            "section {i}: gave {err:?}, expected a checksum Parse error"
        );
    }
}

#[test]
fn flipped_header_bytes_fail_the_header_checksum_before_any_payload() {
    let c = Container::build(false);
    // Flip one byte per table field span; without a reseal the header
    // checksum catches it before validation or any payload read.
    for at in [
        PRELUDE_LEN,
        PRELUDE_LEN + 5,
        PRELUDE_LEN + 9,
        PRELUDE_LEN + 20,
    ] {
        let mut forged = Container {
            bytes: c.bytes.clone(),
        };
        forged.bytes[at] ^= 0x55;
        let err = forged.load("hdr.bin").unwrap_err();
        assert!(
            matches!(&err, CoreError::Parse(m) if m.contains("header checksum")),
            "byte {at}: gave {err:?}, expected a header-checksum Parse error"
        );
    }
}

// ---------------------------------------------------------------------
// Forged section tables (resealed, so only validation can reject them).
// ---------------------------------------------------------------------

#[test]
fn offsets_past_eof_and_overflowing_extents_are_schema_errors() {
    let base = Container::build(false);
    let file_len = base.bytes.len() as u64;

    let mut forged = Container {
        bytes: base.bytes.clone(),
    };
    forged.set_offset(0, file_len + 1024);
    forged.reseal();
    let err = forged.load("eof.bin").unwrap_err();
    assert!(
        matches!(&err, CoreError::Schema(m) if m.contains("past end of file")),
        "{err:?}"
    );

    // offset + len overflows u64: checked arithmetic, not a wrap-around
    // that would alias back into the file.
    let mut forged = Container {
        bytes: base.bytes.clone(),
    };
    forged.set_offset(1, u64::MAX - 8);
    forged.reseal();
    let err = forged.load("ovf.bin").unwrap_err();
    assert!(
        matches!(&err, CoreError::Schema(m) if m.contains("overflow")),
        "{err:?}"
    );
}

#[test]
fn adversarial_lengths_are_rejected_before_allocation() {
    // A multi-exabyte claimed length must be rejected against the
    // file's actual size before any buffer is sized from it — if the
    // reader ever allocated from the header this test would abort the
    // process, not fail an assertion.
    let base = Container::build(false);
    for huge in [u64::MAX, u64::MAX / 2, 1 << 40] {
        let mut forged = Container {
            bytes: base.bytes.clone(),
        };
        forged.set_len(2, huge);
        forged.reseal();
        let err = forged.load("huge.bin").unwrap_err();
        assert_typed(&err, &format!("claimed length {huge}"));
    }
}

#[test]
fn zero_length_sections_are_schema_errors() {
    let base = Container::build(false);
    for i in 0..base.section_count() {
        let mut forged = Container {
            bytes: base.bytes.clone(),
        };
        forged.set_len(i, 0);
        forged.reseal();
        let err = forged.load("zero.bin").unwrap_err();
        assert!(
            matches!(&err, CoreError::Schema(m) if m.contains("zero length")),
            "section {i}: {err:?}"
        );
    }
}

#[test]
fn overlapping_sections_are_schema_errors() {
    let base = Container::build(false);
    // Move section 1 onto section 0's byte range.
    let mut forged = Container {
        bytes: base.bytes.clone(),
    };
    forged.set_offset(1, base.entry(0).offset);
    forged.reseal();
    let err = forged.load("overlap.bin").unwrap_err();
    assert!(
        matches!(&err, CoreError::Schema(m) if m.contains("overlap")),
        "{err:?}"
    );

    // A one-byte intrusion is an overlap too.
    let e0 = base.entry(0);
    let mut forged = Container {
        bytes: base.bytes.clone(),
    };
    forged.set_offset(1, e0.offset + e0.len - 1);
    forged.reseal();
    let err = forged.load("overlap1.bin").unwrap_err();
    assert_typed(&err, "one-byte overlap");
}

#[test]
fn unknown_duplicate_and_mis_encoded_kinds_are_schema_errors() {
    let base = Container::build(false);

    let mut forged = Container {
        bytes: base.bytes.clone(),
    };
    forged.set_kind(0, 99);
    forged.reseal();
    let err = forged.load("kind.bin").unwrap_err();
    assert!(
        matches!(&err, CoreError::Schema(m) if m.contains("unknown section kind")),
        "{err:?}"
    );

    // Two sections claiming the same kind.
    let mut forged = Container {
        bytes: base.bytes.clone(),
    };
    let dup = base.entry(1).kind;
    let enc = base.entry(1).encoding;
    forged.set_kind(0, dup);
    forged.set_encoding(0, enc);
    forged.reseal();
    let err = forged.load("dup.bin").unwrap_err();
    assert!(
        matches!(&err, CoreError::Schema(m) if m.contains("duplicate")),
        "{err:?}"
    );

    // A JSON-only kind carrying a matrix encoding.
    let mut forged = Container {
        bytes: base.bytes.clone(),
    };
    forged.set_encoding(0, 1); // meta must be ENC_JSON
    forged.reseal();
    let err = forged.load("enc.bin").unwrap_err();
    assert!(
        matches!(&err, CoreError::Schema(m) if m.contains("encoding")),
        "{err:?}"
    );
}

#[test]
fn missing_required_sections_are_schema_errors() {
    let base = Container::build(false);
    // Relabel the last required section as the optional index kind (with
    // its required JSON encoding, so the per-entry check passes and the
    // completeness check is what fires).
    let last = base.section_count() - 1;
    let mut forged = Container {
        bytes: base.bytes.clone(),
    };
    forged.set_kind(last, 8); // KIND_INDEX
    forged.set_encoding(last, 0); // ENC_JSON
    forged.reseal();
    let err = forged.load("missing.bin").unwrap_err();
    assert!(
        matches!(&err, CoreError::Schema(m) if m.contains("required section")),
        "{err:?}"
    );
}

#[test]
fn shrunken_matrix_payloads_fail_the_exact_size_check() {
    // Shrink the tail section by one byte *and* fix up both checksums:
    // the only remaining defence is the decoder's exact remaining-bytes
    // check against the rows/cols it parsed — for quantized sections
    // that arithmetic is the checked rows*8 + cols*4 sidecar math.
    for quantize in [false, true] {
        let base = Container::build(quantize);
        let tail = (0..base.section_count())
            .max_by_key(|&i| base.entry(i).offset)
            .unwrap();
        let e = base.entry(tail);
        let mut forged = Container {
            bytes: base.bytes.clone(),
        };
        forged.bytes.truncate((e.offset + e.len - 1) as usize);
        forged.set_len(tail, e.len - 1);
        let payload = &forged.bytes[e.offset as usize..(e.offset + e.len - 1) as usize].to_vec();
        forged.set_crc(tail, crc32(payload));
        forged.reseal();
        let err = forged.load("shrunk.bin").unwrap_err();
        assert!(
            matches!(&err, CoreError::Parse(m) if m.contains("bytes")),
            "quantize={quantize}: {err:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Schema-3 cut sections: forged payloads inside sealed containers.
// ---------------------------------------------------------------------

/// A persisted backbone edge: `(u, v, w)`.
type RawEdge = (u32, u32, f32);

fn edges_of(payload: &[u8]) -> Vec<RawEdge> {
    payload[8..]
        .chunks_exact(12)
        .map(|c| {
            (
                u32::from_le_bytes(c[0..4].try_into().unwrap()),
                u32::from_le_bytes(c[4..8].try_into().unwrap()),
                f32::from_le_bytes(c[8..12].try_into().unwrap()),
            )
        })
        .collect()
}

/// A backbone payload claiming `count` edges and holding `edges`.
fn edges_payload(count: u64, edges: &[RawEdge]) -> Vec<u8> {
    let mut out = count.to_le_bytes().to_vec();
    for &(u, v, w) in edges {
        out.extend_from_slice(&u.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

/// Every author's persisted prefix: `(id, sim)` pairs, strongest first.
type Prefixes = Vec<Vec<(u32, f32)>>;

/// The per-author prefixes of a `topk` payload, and its stored `k`.
fn prefixes_of(payload: &[u8]) -> (u64, Prefixes) {
    let word = |at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
    let n = u64::from_le_bytes(payload[0..8].try_into().unwrap());
    let k = u64::from_le_bytes(payload[8..16].try_into().unwrap());
    let mut at = 16;
    let mut prefixes = Vec::new();
    for _ in 0..n {
        let len = word(at) as usize;
        at += 4;
        let prefix = (0..len)
            .map(|i| (word(at + 8 * i), f32::from_bits(word(at + 8 * i + 4))))
            .collect();
        at += 8 * len;
        prefixes.push(prefix);
    }
    assert_eq!(at, payload.len(), "the whole payload parsed");
    (k, prefixes)
}

fn topk_payload(k: u64, prefixes: &[Vec<(u32, f32)>]) -> Vec<u8> {
    let mut out = (prefixes.len() as u64).to_le_bytes().to_vec();
    out.extend_from_slice(&k.to_le_bytes());
    for prefix in prefixes {
        out.extend_from_slice(&(prefix.len() as u32).to_le_bytes());
        for &(id, sim) in prefix {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&sim.to_le_bytes());
        }
    }
    out
}

#[test]
fn forged_backbones_are_typed_errors() {
    const K: usize = 2;
    let base = Container::build_top_k(K);
    assert!(base.load("bb-ctl.bin").is_ok(), "the control loads");
    let edges = edges_of(&base.payload(KIND_BACKBONE));
    assert!(
        edges.len() > N - 1,
        "the top-k fit keeps lifelines beyond the spanning tree"
    );
    let bound = (N - 1) + N * K;
    let n = N as u32;

    let forge = |mutate: &dyn Fn(&mut Vec<RawEdge>)| -> Vec<u8> {
        let mut e = edges.clone();
        mutate(&mut e);
        edges_payload(e.len() as u64, &e)
    };
    let weakest = edges.last().unwrap().2;
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("endpoint >= n", forge(&|e| e[0].1 = n)),
        ("endpoint far out of range", forge(&|e| e[0].0 = u32::MAX)),
        ("self-loop", forge(&|e| e[0].1 = e[0].0)),
        (
            "endpoints reversed",
            forge(&|e| e[0] = (e[0].1, e[0].0, e[0].2)),
        ),
        ("out of pop order", forge(&|e| e.swap(0, 1))),
        ("duplicated edge", forge(&|e| e.insert(1, e[0]))),
        (
            // The same pair again, weaker than every edge, keeps the pop
            // order: only the pair check can catch it.
            "duplicated pair, new weight",
            forge(&|e| e.push((e[0].0, e[0].1, weakest - 1.0))),
        ),
        ("NaN weight", forge(&|e| e[0].2 = f32::NAN)),
        ("+inf weight", forge(&|e| e[0].2 = f32::INFINITY)),
        (
            "-inf weight",
            forge(&|e| e.last_mut().unwrap().2 = f32::NEG_INFINITY),
        ),
        (
            "more than (n-1)+n*k edges",
            forge(&|e| {
                let extra = e[0];
                e.resize(bound + 1, extra);
            }),
        ),
        // A huge claimed count over a short payload is refused by the
        // bound before anything is sized from it.
        ("claimed count u64::MAX", edges_payload(u64::MAX, &edges)),
        (
            "claimed count past the payload",
            edges_payload(edges.len() as u64 + 1, &edges),
        ),
        ("one byte short", {
            let mut p = forge(&|_| {});
            p.pop();
            p
        }),
    ];
    // Control: re-sealing the untouched payload loads.
    let same = base.with_payload(KIND_BACKBONE, base.payload(KIND_BACKBONE));
    assert!(same.load("bb-same.bin").is_ok());
    for (label, payload) in cases {
        let err = base
            .with_payload(KIND_BACKBONE, payload)
            .load("bb.bin")
            .unwrap_err();
        assert_class(&err, label);
    }
}

/// Payload-size mismatches are corruption (`Parse`); everything else a
/// forged cut section can get wrong is structure (`Schema`).
fn assert_class(err: &CoreError, label: &str) {
    let parse = label.contains("byte") || label.contains("past the payload");
    assert!(
        if parse {
            matches!(err, CoreError::Parse(_))
        } else {
            matches!(err, CoreError::Schema(_))
        },
        "{label}: gave {err:?}"
    );
}

#[test]
fn forged_topk_prefixes_are_typed_errors() {
    const K: usize = 2;
    let base = Container::build_top_k(K);
    let (k, prefixes) = prefixes_of(&base.payload(KIND_TOPK));
    assert_eq!(k, K as u64);
    assert!(prefixes.iter().all(|p| p.len() == K));
    let n = N as u32;

    let forge = |mutate: &dyn Fn(&mut Prefixes)| -> Vec<u8> {
        let mut p = prefixes.clone();
        mutate(&mut p);
        topk_payload(k, &p)
    };
    let cases: Vec<(&str, Vec<u8>)> = vec![
        (
            "prefix longer than top_k",
            forge(&|p| {
                let weakest = p[0][K - 1].1;
                p[0].push((13, weakest - 1.0));
            }),
        ),
        (
            "prefix shorter than top_k",
            forge(&|p| {
                p[3].pop();
            }),
        ),
        ("prefix id >= n", forge(&|p| p[0][0].0 = n)),
        (
            "prefix id far out of range",
            forge(&|p| p[5][1].0 = u32::MAX),
        ),
        ("prefix names its own node", forge(&|p| p[2][0].0 = 2)),
        ("prefix repeats an id", forge(&|p| p[0][1].0 = p[0][0].0)),
        ("prefix out of rank order", forge(&|p| p[0].swap(0, 1))),
        ("NaN similarity", forge(&|p| p[1][0].1 = f32::NAN)),
        ("+inf similarity", forge(&|p| p[1][0].1 = f32::INFINITY)),
        (
            "one author short",
            forge(&|p| {
                p.pop();
            }),
        ),
        ("one author too many", forge(&|p| p.push(p[0].clone()))),
        (
            "k disagrees with the metadata",
            topk_payload(k + 1, &prefixes),
        ),
        ("trailing byte", {
            let mut t = forge(&|_| {});
            t.push(0);
            t
        }),
        ("one byte short", {
            let mut t = forge(&|_| {});
            t.pop();
            t
        }),
    ];
    let same = base.with_payload(KIND_TOPK, base.payload(KIND_TOPK));
    assert!(same.load("topk-same.bin").is_ok());
    for (label, payload) in cases {
        let err = base
            .with_payload(KIND_TOPK, payload)
            .load("topk.bin")
            .unwrap_err();
        assert_class(&err, label);
    }
}

#[test]
fn hostile_top_k_never_sizes_an_allocation() {
    // A metadata top_k of u64::MAX lifts the (n-1)+n*k edge bound and
    // the prefix-length bound to nothing; the decoder must still size
    // every buffer from the bytes actually present.
    let base = Container::build(false);
    let meta = String::from_utf8(base.payload(1)).unwrap();
    assert!(meta.contains("\"graph_top_k\":0"), "{meta}");
    let hostile = meta.replace(
        "\"graph_top_k\":0",
        &format!("\"graph_top_k\":{}", u64::MAX),
    );
    let huge = base.with_payload(1, hostile.into_bytes());
    // Control: the metadata parses, and the k = 0 prefixes no longer fit.
    let err = huge.load("huge-k.bin").unwrap_err();
    assert!(
        matches!(&err, CoreError::Schema(m) if m.contains("top")),
        "{err:?}"
    );
    // An edge count whose byte size overflows.
    let err = huge
        .with_payload(KIND_BACKBONE, edges_payload(u64::MAX, &[]))
        .load("huge-count.bin")
        .unwrap_err();
    assert_typed(&err, "edge count u64::MAX under k = u64::MAX");
    // A prefix claiming u32::MAX entries over an empty tail.
    let mut topk = (N as u64).to_le_bytes().to_vec();
    topk.extend_from_slice(&u64::MAX.to_le_bytes());
    topk.extend_from_slice(&u32::MAX.to_le_bytes());
    let err = huge
        .with_payload(KIND_TOPK, topk)
        .load("huge-prefix.bin")
        .unwrap_err();
    assert!(matches!(err, CoreError::Parse(_)), "{err:?}");
}

#[test]
fn schema_and_cut_sections_must_agree() {
    let base = Container::build(false);
    // A schema-3 file relabelled as schema 2 claims a dense x_total it
    // does not carry.
    let meta = String::from_utf8(base.payload(1)).unwrap();
    assert!(meta.contains("\"version\":3"), "{meta}");
    let relabelled = base.with_payload(
        1,
        meta.replace("\"version\":3", "\"version\":2").into_bytes(),
    );
    let err = relabelled.load("schema.bin").unwrap_err();
    assert!(
        matches!(&err, CoreError::Schema(m) if m.contains("schema 2")),
        "{err:?}"
    );
    // Dropping the topk section leaves half a cut.
    let mut sections = common::split(&base.bytes);
    sections.retain(|(kind, _, _)| *kind != KIND_TOPK);
    let half = Container {
        bytes: common::seal(&sections),
    };
    let err = half.load("half.bin").unwrap_err();
    assert!(
        matches!(&err, CoreError::Schema(m) if m.contains("backbone and topk")),
        "{err:?}"
    );
}

// ---------------------------------------------------------------------
// The control arm: valid containers pass through unchanged.
// ---------------------------------------------------------------------

#[test]
fn valid_binary_roundtrip_serves_bit_for_bit() {
    let (d, p) = fitted();
    let snap = p.snapshot(&[]);
    let path = tmp("control.bin");
    snap.save_binary(&path, false).unwrap();
    let loaded = PipelineSnapshot::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let engine = loaded.query_engine(EngineMode::Exact).unwrap();
    for author in [0u32, 5, 9] {
        let tweets = author_tweets(&d, author, 6);
        let want = link_query(&p.query_model(), &p.x_total, &tweets).unwrap();
        let got = engine.link_query_authors(&[tweets]).unwrap().remove(0);
        assert_eq!(want.similarities, got.similarities, "author {author}");
        assert_eq!(want.subgraph, got.subgraph, "author {author}");
    }
}

#[test]
fn valid_quantized_container_loads_and_serves() {
    let (d, p) = fitted();
    let snap = p.snapshot(&[]);
    let path = tmp("control-q.bin");
    snap.save_binary(&path, true).unwrap();
    let loaded = PipelineSnapshot::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // Quantization perturbs values, so no bit-parity claim here — but
    // the dequantized snapshot must validate, build an engine, and serve
    // well-formed outcomes.
    let engine = loaded.query_engine(EngineMode::Exact).unwrap();
    let outcome = engine
        .link_query_authors(&[author_tweets(&d, 3, 6)])
        .unwrap()
        .remove(0);
    assert_eq!(outcome.similarities.len(), N);
    assert!(outcome.similarities.iter().all(|s| s.is_finite()));
    assert!(!outcome.subgraph.is_empty());
}
