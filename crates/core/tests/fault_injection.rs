//! Fault-injection harness for the serving path
//! (snapshot → engine → query).
//!
//! Every hostile input here — truncated bytes, corrupted fields, NaN/Inf
//! similarity rows, zero-dimensional embeddings, out-of-range ids,
//! unknown words — must surface as a typed [`CoreError`], never a panic.
//! And the harness itself must be inert: a valid snapshot passed through
//! it still serves bit-for-bit identically to the pipeline it came from.
//! Corruptions of the dense `x_total` go through the legacy read paths
//! (v2 JSON, schema-2 container), the only files that still carry one.

mod common;

use soulmate_core::engine::CachedCut;
use soulmate_core::error::CoreError;
use soulmate_core::online::link_query;
use soulmate_core::pipeline::{Pipeline, PipelineConfig};
use soulmate_core::snapshot::PipelineSnapshot;
use soulmate_core::EngineMode;
use soulmate_corpus::{generate, GeneratorConfig, Timestamp};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn fitted() -> (soulmate_corpus::Dataset, Pipeline) {
    let d = generate(&GeneratorConfig {
        n_authors: 14,
        n_communities: 3,
        n_concepts: 5,
        entities_per_concept: 8,
        mean_tweets_per_author: 22,
        ..GeneratorConfig::small()
    })
    .unwrap();
    let p = Pipeline::fit(&d, PipelineConfig::fast()).unwrap();
    (d, p)
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("soulmate-fault-{}-{name}", std::process::id()));
    p
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Text of the committed legacy v2 JSON snapshot: the JSON-read fault
/// cases corrupt real bytes an earlier release wrote.
fn v2_fixture_text() -> String {
    std::fs::read_to_string(fixture("v2_index.json")).unwrap()
}

/// A fresh number per call, so parallel tests write distinct files.
fn next_file() -> usize {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Section kind of the dense matrix in schema 1–2 containers.
const KIND_X_TOTAL: u32 = 7;

/// Section kind of the cut's backbone in schema-3 containers.
const KIND_BACKBONE: u32 = 9;

/// Load the committed v2 JSON fixture after `edit` changed the rows of
/// its dense `x_total` — the legacy JSON read path — returning the error.
fn json_x_total_error(edit: impl FnOnce(&mut Vec<serde_json::Value>)) -> CoreError {
    let mut doc: serde_json::Value = serde_json::from_str(&v2_fixture_text()).unwrap();
    let rows = doc
        .get_mut("x_total")
        .and_then(serde_json::Value::as_array_mut)
        .unwrap();
    edit(rows);
    let path = tmp(&format!("legacy-x-{}.json", next_file()));
    std::fs::write(&path, serde_json::to_string(&doc).unwrap()).unwrap();
    let err = PipelineSnapshot::load(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    err
}

/// Load the committed schema-2 container after `edit` changed its dense
/// `x_total` section (re-encoded as an f32 matrix, checksums resealed) —
/// the legacy binary read path — returning the error.
fn binary_x_total_error(edit: impl FnOnce(&mut Vec<Vec<f32>>)) -> CoreError {
    let bytes = std::fs::read(fixture("v3_f32_index.bin")).unwrap();
    let mut sections = common::split(&bytes);
    let (_, _, payload) = sections
        .iter_mut()
        .find(|(kind, _, _)| *kind == KIND_X_TOTAL)
        .unwrap();
    let cols = u64::from_le_bytes(payload[8..16].try_into().unwrap()) as usize;
    let values: Vec<f32> = payload[16..]
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let mut rows: Vec<Vec<f32>> = values.chunks(cols).map(<[f32]>::to_vec).collect();
    edit(&mut rows);
    assert!(
        rows.iter().all(|r| r.len() == cols),
        "a matrix section is rectangular"
    );
    let mut encoded = Vec::new();
    encoded.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    encoded.extend_from_slice(&(cols as u64).to_le_bytes());
    for v in rows.iter().flatten() {
        encoded.extend_from_slice(&v.to_le_bytes());
    }
    *payload = encoded;
    let path = tmp(&format!("legacy-x-{}.bin", next_file()));
    std::fs::write(&path, common::seal(&sections)).unwrap();
    let err = PipelineSnapshot::load(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    err
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

// ---------------------------------------------------------------------
// Byte-level corruption: truncation at many offsets.
// ---------------------------------------------------------------------

#[test]
fn truncated_snapshot_bytes_are_parse_errors_not_panics() {
    let path = tmp("truncate.json");
    let bytes = v2_fixture_text().into_bytes();
    assert!(bytes.len() > 64, "snapshot suspiciously small");

    // Cut the file at the start, inside the header, mid-body, and one
    // byte short of valid — every prefix must fail as Parse, not panic.
    let cuts = [0, 1, 16, bytes.len() / 4, bytes.len() / 2, bytes.len() - 1];
    for cut in cuts {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = PipelineSnapshot::load(&path).unwrap_err();
        assert!(
            matches!(err, CoreError::Parse(_)),
            "truncation at {cut}/{} gave {err:?}, expected Parse",
            bytes.len()
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn garbage_bytes_are_parse_errors() {
    let path = tmp("garbage.json");
    for garbage in [
        &b"\x00\x01\x02\xff\xfe binary junk"[..],
        b"[1, 2, 3]",
        b"{\"version\": 1}",
        b"null",
    ] {
        std::fs::write(&path, garbage).unwrap();
        let err = PipelineSnapshot::load(&path).unwrap_err();
        assert!(
            matches!(err, CoreError::Parse(_)),
            "garbage {garbage:?} gave {err:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------
// Field-level corruption: structurally valid file, inconsistent model.
// ---------------------------------------------------------------------

/// Save a mutated snapshot and load it back, returning the load error.
fn load_error_of(mutate: impl FnOnce(&mut PipelineSnapshot)) -> CoreError {
    let (_, p) = fitted();
    let mut snap = p.snapshot(&[]);
    mutate(&mut snap);
    let path = tmp("field-corrupt.bin");
    snap.save_binary(&path, false).unwrap();
    let err = PipelineSnapshot::load(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    err
}

#[test]
fn unsupported_version_is_schema_error() {
    // The writer always stamps the current schema, so the bad version is
    // forged into the metadata section of a written container.
    let (_, p) = fitted();
    let path = tmp("version-meta.bin");
    p.snapshot(&[]).save_binary(&path, false).unwrap();
    let mut sections = common::split(&std::fs::read(&path).unwrap());
    let meta = &mut sections[0].2;
    let text = String::from_utf8(meta.clone()).unwrap();
    assert!(text.contains("\"version\":3"), "{text}");
    *meta = text.replace("\"version\":3", "\"version\":99").into_bytes();
    std::fs::write(&path, common::seal(&sections)).unwrap();
    let err = PipelineSnapshot::load(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(matches!(err, CoreError::Schema(_)), "{err:?}");
    assert!(err.to_string().contains("version"), "{err}");
}

#[test]
fn version_field_corrupted_on_disk_is_schema_error() {
    // Corrupt the serialized bytes directly, not the struct: the file
    // stays well-formed JSON but carries a version we never wrote.
    let path = tmp("version-bytes.json");
    let text = v2_fixture_text();
    assert!(text.contains("\"version\":2"), "serialized layout changed");
    std::fs::write(&path, text.replace("\"version\":2", "\"version\":7")).unwrap();
    let err = PipelineSnapshot::load(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(matches!(err, CoreError::Schema(_)), "{err:?}");
}

#[test]
fn json_load_runs_validation() {
    // A hand-edited legacy file: well-formed JSON whose alpha is out of
    // range. The JSON reader must reject it through `validate`.
    let path = tmp("alpha-edit.json");
    let text = v2_fixture_text();
    assert!(text.contains("\"alpha\":0.6,"), "serialized layout changed");
    std::fs::write(&path, text.replace("\"alpha\":0.6,", "\"alpha\":3.0,")).unwrap();
    let err = PipelineSnapshot::load(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(&err, CoreError::Schema(m) if m.contains("alpha")),
        "{err:?}"
    );
}

/// One in-memory corruption of a snapshot.
type Mutation = Box<dyn FnOnce(&mut PipelineSnapshot)>;

#[test]
fn shape_corruptions_are_schema_errors() {
    // Each mutation breaks one cross-reference the serving path indexes.
    let cases: Vec<(&str, Mutation)> = vec![
        (
            "handle popped",
            Box::new(|s: &mut PipelineSnapshot| {
                s.author_handles.pop();
            }),
        ),
        (
            "centroid popped",
            Box::new(|s: &mut PipelineSnapshot| {
                s.centroids.pop();
            }),
        ),
        (
            "alpha out of range",
            Box::new(|s: &mut PipelineSnapshot| {
                s.alpha = 3.0;
            }),
        ),
        (
            "concept means popped",
            Box::new(|s: &mut PipelineSnapshot| {
                s.concept_means.pop();
            }),
        ),
        (
            "content std zero",
            Box::new(|s: &mut PipelineSnapshot| {
                s.content_stats = (0.0, 0.0);
            }),
        ),
        (
            "concept std negative",
            Box::new(|s: &mut PipelineSnapshot| {
                s.concept_stats = (0.1, -1.0);
            }),
        ),
    ];
    for (label, mutate) in cases {
        let err = load_error_of(mutate);
        assert!(
            matches!(err, CoreError::Schema(_)),
            "{label}: gave {err:?}, expected Schema"
        );
    }
    // Ragged rows cannot be encoded as a dense matrix section at all, so
    // this goes straight to the gate `load` runs.
    let (_, p) = fitted();
    let mut ragged_centroid = p.snapshot(&[]);
    if let Some(c) = ragged_centroid.centroids.first_mut() {
        c.push(0.0);
    }
    let err = ragged_centroid.validate().unwrap_err();
    assert!(
        matches!(err, CoreError::Schema(_)),
        "centroid dim changed: gave {err:?}, expected Schema"
    );
}

#[test]
fn legacy_x_total_shape_corruptions_are_schema_errors() {
    // The files that still persist the dense matrix get it checked at
    // load, before the cut is built from it: a popped row in either
    // legacy format, and a ragged row (only JSON can even express one).
    let cases = [
        (
            "json x_total row popped",
            json_x_total_error(|rows| {
                rows.pop();
            }),
        ),
        (
            "binary x_total row popped",
            binary_x_total_error(|rows| {
                rows.pop();
            }),
        ),
        (
            "json x_total ragged",
            json_x_total_error(|rows| {
                rows[0].as_array_mut().unwrap().pop();
            }),
        ),
    ];
    for (label, err) in cases {
        assert!(
            matches!(&err, CoreError::Schema(m) if m.contains("x_total")),
            "{label}: gave {err:?}, expected an x_total Schema error"
        );
    }
}

#[test]
fn legacy_non_finite_x_total_is_a_schema_error() {
    // NaN has no JSON literal, so the schema-2 container carries it; an
    // out-of-range JSON literal rounds to ±inf as an f32.
    let err = binary_x_total_error(|rows| rows[1][2] = f32::NAN);
    assert!(matches!(err, CoreError::Schema(_)), "{err:?}");
    assert!(err.to_string().contains("x_total[1][2]"), "{err}");
    for (label, err) in [
        (
            "binary +inf",
            binary_x_total_error(|rows| rows[0][1] = f32::INFINITY),
        ),
        (
            "binary -inf",
            binary_x_total_error(|rows| rows[0][1] = f32::NEG_INFINITY),
        ),
        (
            "json +inf",
            json_x_total_error(|rows| {
                rows[0].as_array_mut().unwrap()[1] = serde_json::Value::from(1e39f64);
            }),
        ),
    ] {
        assert!(
            matches!(&err, CoreError::Schema(m) if m.contains("x_total[0][1]")),
            "{label}: gave {err:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Non-finite values: rejected at the boundary, tolerated in the kernels.
// ---------------------------------------------------------------------

#[test]
fn non_finite_fields_fail_validation() {
    // These model in-process corruption: validate() is the same gate
    // load() runs, and it must catch every non-finite value the graph
    // cut or the standardization would otherwise consume.
    let (_, p) = fitted();

    let mut snap = p.snapshot(&[]);
    snap.graph_min_sim = f32::NAN;
    assert!(snap.validate().is_err());

    let mut snap = p.snapshot(&[]);
    snap.concept_stats = (f32::NAN, 1.0);
    assert!(snap.validate().is_err());

    let mut snap = p.snapshot(&[]);
    if let Some(m) = snap.concept_means.first_mut() {
        *m = f32::NEG_INFINITY;
    }
    assert!(snap.validate().is_err());
}

#[test]
fn nan_and_inf_similarity_rows_never_panic_the_cut() {
    // The cut layer itself must stay total even on rows validation never
    // saw (e.g. a bug upstream): NaN/Inf entries degrade to dropped or
    // extreme edges, never to a panic.
    let x = vec![
        vec![1.0, 0.4, f32::NAN],
        vec![0.4, 1.0, f32::INFINITY],
        vec![f32::NAN, f32::INFINITY, 1.0],
    ];
    let cut = CachedCut::new(&x, 0.2, 2).unwrap();
    for sims in [
        vec![f32::NAN, f32::NAN, f32::NAN],
        vec![f32::INFINITY, f32::NEG_INFINITY, 0.5],
        vec![0.9, f32::NAN, f32::INFINITY],
    ] {
        let forest = cut.cut_with_query_component(&sims).unwrap().0;
        // The query node always exists and every node is in a component.
        let covered: usize = forest.components().iter().map(Vec::len).sum();
        assert_eq!(covered, 4);
        assert!(forest.query_subgraph(3).is_some());
        // No non-finite edge weight may survive into the forest.
        assert!(forest.edges().iter().all(|e| e.w.is_finite()));
    }
}

#[test]
fn mis_sized_similarity_rows_are_invalid_errors() {
    let x = vec![vec![1.0, 0.3], vec![0.3, 1.0]];
    let cut = CachedCut::new(&x, 0.0, 1).unwrap();
    for bad in [0usize, 1, 3, 64] {
        let sims = vec![0.5; bad];
        let err = cut.cut_with_query_component(&sims).unwrap_err();
        assert!(
            matches!(err, CoreError::Invalid(_)),
            "row length {bad} gave {err:?}"
        );
    }
    // Ragged base matrices are typed errors too.
    let ragged = vec![vec![1.0, 0.3], vec![0.3]];
    assert!(CachedCut::new(&ragged, 0.0, 1).is_err());
}

// ---------------------------------------------------------------------
// Degenerate models: zero-dim embeddings, unknown words, empty queries.
// ---------------------------------------------------------------------

#[test]
fn zero_dim_embedding_is_schema_error() {
    let (_, p) = fitted();
    let mut snap = p.snapshot(&[]);
    let vocab_len = snap.vocab.len();
    snap.collective = Arc::new(soulmate_embedding::Embedding::from_matrix(
        soulmate_linalg::Matrix::zeros(vocab_len, 0),
    ));
    let err = snap.validate().unwrap_err();
    assert!(matches!(err, CoreError::Schema(_)), "{err:?}");
}

#[test]
fn vocab_embedding_row_mismatch_is_schema_error() {
    let (_, p) = fitted();
    let mut snap = p.snapshot(&[]);
    let dim = snap.collective.dim();
    // One embedding row too few: an in-vocabulary word id would read a
    // vector that belongs to no word.
    snap.collective = Arc::new(soulmate_embedding::Embedding::from_matrix(
        soulmate_linalg::Matrix::zeros(snap.vocab.len().saturating_sub(1), dim),
    ));
    let err = snap.validate().unwrap_err();
    assert!(matches!(err, CoreError::Schema(_)), "{err:?}");
    assert!(err.to_string().contains("vocabulary"), "{err}");
}

#[test]
fn unknown_words_and_empty_queries_are_invalid_errors() {
    let (_, p) = fitted();
    let snap = p.snapshot(&[]);
    let engine = snap.query_engine(EngineMode::Exact).unwrap();

    // No tweets at all.
    let err = engine.link_query_authors(&[Vec::new()]).unwrap_err();
    assert!(matches!(err, CoreError::Invalid(_)), "{err:?}");

    // Tweets whose every token is out of vocabulary.
    let oov = vec![
        (Timestamp(0), "zzqqxy wvutsr plmokn".to_string()),
        (Timestamp(10), "qqq zzz xxx".to_string()),
    ];
    let err = engine.link_query_authors(&[oov]).unwrap_err();
    assert!(matches!(err, CoreError::Invalid(_)), "{err:?}");

    // Empty strings / whitespace only.
    let blank = vec![
        (Timestamp(0), "   ".to_string()),
        (Timestamp(5), String::new()),
    ];
    assert!(engine.link_query_authors(&[blank]).is_err());

    // A batch containing one bad member fails as a whole — typed.
    let good = vec![(Timestamp(0), "anything".to_string())];
    let out = engine.link_query_authors(&[good, Vec::new()]);
    assert!(out.is_err());
}

// ---------------------------------------------------------------------
// The control arm: valid inputs pass through unchanged.
// ---------------------------------------------------------------------

#[test]
fn valid_snapshot_roundtrip_serves_bit_for_bit() {
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
        assert_eq!(want.subgraph_avg_weight, got.subgraph_avg_weight);
    }
}

#[test]
fn cyclic_forest_backbone_is_a_schema_error() {
    // The committed schema-3 fixture has no lifelines (top_k = 0), so
    // its backbone must be a forest: the output-sensitive cut reads the
    // query's component off the forest's adjacency. Forge a cycle that
    // every other check passes: drop the weakest edge (staying within
    // the n - 1 bound), then close a cycle inside one tree with a new
    // pair weaker than every edge (staying in pop order, no pair twice).
    let bytes = std::fs::read(fixture("v3_schema3.bin")).unwrap();
    let mut sections = common::split(&bytes);
    let (_, _, payload) = sections
        .iter_mut()
        .find(|(kind, _, _)| *kind == KIND_BACKBONE)
        .unwrap();
    let mut edges: Vec<(u32, u32, f32)> = payload[8..]
        .chunks_exact(12)
        .map(|c| {
            (
                u32::from_le_bytes(c[0..4].try_into().unwrap()),
                u32::from_le_bytes(c[4..8].try_into().unwrap()),
                f32::from_le_bytes(c[8..12].try_into().unwrap()),
            )
        })
        .collect();
    let weakest = edges.pop().unwrap().2;
    // A path a - b - c through two kept edges; (a, c) closes a triangle.
    let (a, b) = (edges[0].0, edges[0].1);
    let &(x, y, _) = edges[1..]
        .iter()
        .find(|&&(x, y, _)| (x == a || x == b || y == a || y == b) && (x, y) != (a, b))
        .expect("two backbone edges share a node");
    let shared = if x == a || x == b { x } else { y };
    let far = if shared == x { y } else { x };
    let near = if shared == a { b } else { a };
    let pair = (near.min(far), near.max(far));
    assert!(
        edges.iter().all(|&(u, v, _)| (u, v) != pair),
        "the closing pair is new"
    );
    edges.push((pair.0, pair.1, weakest - 1.0));
    let mut forged = (edges.len() as u64).to_le_bytes().to_vec();
    for &(u, v, w) in &edges {
        forged.extend_from_slice(&u.to_le_bytes());
        forged.extend_from_slice(&v.to_le_bytes());
        forged.extend_from_slice(&w.to_le_bytes());
    }
    *payload = forged;
    let path = tmp(&format!("cyclic-{}.bin", next_file()));
    std::fs::write(&path, common::seal(&sections)).unwrap();
    let err = PipelineSnapshot::load(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(&err, CoreError::Schema(m) if m.contains("closes a cycle")),
        "{err:?}"
    );
}
