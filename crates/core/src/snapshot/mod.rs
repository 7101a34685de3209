//! Pipeline persistence: save a fitted offline model and serve online
//! queries from it without retraining.
//!
//! The paper's deployment story ("the language model is already generated
//! in the offline phase") implies the offline artifacts outlive a process.
//! [`PipelineSnapshot`] captures exactly the state the online phase needs —
//! vocabulary, collective embedding, concept centroids, author vectors and
//! the cached graph cut over the fused similarity matrix (its backbone and
//! top-k prefixes, `O(n + n·k)` instead of the `n²` matrix) — and writes
//! it as one v3 binary container ([`PipelineSnapshot::save_binary`]). The
//! v1/v2 JSON files and schema-2 containers of earlier releases, which
//! persisted the dense matrix, are only read ([`PipelineSnapshot::load`]
//! builds their cut and drops the matrix) and migrated by re-saving. A
//! loaded snapshot's [`PipelineSnapshot::query_engine`] answers
//! identically to the pipeline it came from.

pub mod binary;
mod handles;

pub use handles::Handles;

use crate::engine::CachedCut;
use crate::error::CoreError;
use crate::online::QueryModel;
use crate::pipeline::Pipeline;
use crate::tweetvec::Combiner;
use serde::{Deserialize, Serialize};
use soulmate_embedding::Embedding;
use soulmate_linalg::{ChunkedRows, Matrix};
use soulmate_text::{TokenizerConfig, Vocabulary};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

/// Serializable `Combiner` mirror (the tweet combiner is the only enum
/// configuration the online phase needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CombinerTag {
    /// Element-wise sum.
    Sum,
    /// Element-wise average.
    Avg,
}

impl From<Combiner> for CombinerTag {
    fn from(c: Combiner) -> Self {
        match c {
            Combiner::Sum => CombinerTag::Sum,
            Combiner::Avg => CombinerTag::Avg,
        }
    }
}

impl From<CombinerTag> for Combiner {
    fn from(t: CombinerTag) -> Self {
        match t {
            CombinerTag::Sum => Combiner::Sum,
            CombinerTag::Avg => Combiner::Avg,
        }
    }
}

/// The persisted offline model. The only writer is
/// [`PipelineSnapshot::save_binary`]; [`PipelineSnapshot::load`] also
/// reads the files of earlier releases.
#[derive(Debug, Clone)]
pub struct PipelineSnapshot {
    /// Logical schema the snapshot was read as (1–2 for files that
    /// persisted the dense `x_total`); the writer always emits
    /// [`SNAPSHOT_VERSION`].
    pub version: u32,
    /// Offline vocabulary. Frozen between refits, so every generation
    /// grown from this snapshot by a delta ingest shares it.
    pub vocab: Arc<Vocabulary>,
    /// Tokenizer settings the vocabulary was built with.
    pub tokenizer: TokenizerConfig,
    /// Collective word vectors `V^C`, shared like the vocabulary.
    pub collective: Arc<Embedding>,
    /// Concept centroids in tweet-vector space.
    pub centroids: Vec<Vec<f32>>,
    /// Author content vectors. Chunked, so generations grown from this
    /// snapshot by a delta ingest share every full chunk of rows.
    pub author_content: ChunkedRows,
    /// Author concept vectors, chunked like `author_content`.
    pub author_concept: ChunkedRows,
    /// Population means of the concept profiles (online centering).
    pub concept_means: Vec<f32>,
    /// Off-diagonal (mean, std) of `X^Concept` (fusion standardization).
    pub concept_stats: (f32, f32),
    /// Off-diagonal (mean, std) of `X^Content` (fusion standardization).
    pub content_stats: (f32, f32),
    /// The cached graph cut over the fused author similarity matrix
    /// `X^Total-α`: its backbone and each author's top-k prefix. Every
    /// engine built from the snapshot shares it, so a serving generation
    /// holds one copy and no `n²` state.
    pub cut: Arc<CachedCut>,
    /// Concept impact ratio α.
    pub alpha: f32,
    /// Word→tweet combiner.
    pub tweet_combiner: CombinerTag,
    /// Graph sparsification: minimum similarity.
    pub graph_min_sim: f32,
    /// Graph sparsification: per-node lifelines.
    pub graph_top_k: usize,
    /// Author display handles, index-aligned with the vectors.
    pub author_handles: Handles,
    /// Fit-stage metrics summary captured when the snapshot was taken:
    /// `(histogram name, total seconds)` per `stage.*` histogram in the
    /// process-global [`soulmate_obs`] registry, sorted by name. Absent
    /// in pre-observability snapshots (defaults to empty) — purely
    /// informational, never validated.
    pub fit_metrics: Vec<(String, f64)>,
}

/// A v1/v2 JSON snapshot as earlier releases wrote it: the fields of
/// [`PipelineSnapshot`] with the dense `x_total` where the cut is now.
#[derive(Deserialize)]
struct JsonSnapshot {
    version: u32,
    vocab: Vocabulary,
    tokenizer: TokenizerConfig,
    collective: Embedding,
    centroids: Vec<Vec<f32>>,
    author_content: Matrix,
    author_concept: Matrix,
    #[serde(default)]
    concept_means: Vec<f32>,
    #[serde(default = "default_stats")]
    concept_stats: (f32, f32),
    #[serde(default = "default_stats")]
    content_stats: (f32, f32),
    x_total: Vec<Vec<f32>>,
    alpha: f32,
    tweet_combiner: CombinerTag,
    graph_min_sim: f32,
    graph_top_k: usize,
    author_handles: Vec<String>,
    #[serde(default)]
    fit_metrics: Vec<(String, f64)>,
}

/// Current logical snapshot schema version, stored in the v3 container's
/// metadata section. Schema 3 persists the cached cut (`backbone` and
/// `topk` sections) instead of the dense `x_total`.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Newest schema that persisted the dense `x_total`: every JSON file
/// (v2 files could also carry a persisted IVF index, ignored on load —
/// the IVF plan builds its index from the snapshot's own matrices) and
/// the containers written before schema 3.
pub const DENSE_VERSION_MAX: u32 = 2;

/// Oldest snapshot format [`PipelineSnapshot::load`] still accepts.
pub const SNAPSHOT_VERSION_MIN: u32 = 1;

/// The cut of a schema 1–2 file, which persisted the dense `X^Total-α`
/// that no generation keeps: check the matrix as those releases did
/// (`n × n` over the `n` authors, every entry finite), then build the
/// cut from it. The caller drops the matrix.
///
/// # Errors
/// [`CoreError::Schema`] naming the first shape or finiteness violation.
pub(crate) fn cut_from_dense(
    x_total: &[Vec<f32>],
    n: usize,
    min_sim: f32,
    top_k: usize,
) -> Result<CachedCut, CoreError> {
    if x_total.len() != n || x_total.iter().any(|r| r.len() != n) {
        return Err(CoreError::Schema("x_total is not n x n".into()));
    }
    if let Some((i, j)) = x_total
        .iter()
        .enumerate()
        .find_map(|(i, row)| row.iter().position(|v| !v.is_finite()).map(|j| (i, j)))
    {
        return Err(CoreError::Schema(format!(
            "x_total[{i}][{j}] is not finite"
        )));
    }
    CachedCut::new(x_total, min_sim, top_k)
}

/// Serde default for missing standardization stats (identity transform).
fn default_stats() -> (f32, f32) {
    (0.0, 1.0)
}

/// Atomic-write helper for the snapshot writer: the bytes go to
/// a temporary file in the target directory, are flushed to the end
/// (buffered-writer errors are *propagated*, not swallowed by a drop),
/// and the temporary is renamed over `path` only on success — a crash or
/// a full disk never leaves a truncated snapshot behind.
///
/// The temporary name carries the process id *and* a process-global
/// sequence number, so concurrent saves to the same path — two CLI
/// processes, or two threads of one serving process (the background
/// refit story) — each write their own temporary and the destination
/// only ever receives complete files. With a fixed temp name the writers
/// raced on the same file and could cross-publish or delete each other's
/// half-written bytes.
pub(crate) fn atomic_write(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), CoreError>,
) -> Result<(), CoreError> {
    static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let file_name = path.file_name().ok_or_else(|| {
        CoreError::Invalid(format!("snapshot path {} has no file name", path.display()))
    })?;
    let mut tmp = path.to_path_buf();
    tmp.set_file_name(format!(
        ".{}.tmp-{}-{}",
        file_name.to_string_lossy(),
        std::process::id(),
        SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let run = || -> Result<(), CoreError> {
        let file = File::create(&tmp).map_err(|e| CoreError::Io {
            context: format!("cannot create {}", tmp.display()),
            source: e,
        })?;
        let mut writer = BufWriter::new(file);
        write(&mut writer)?;
        writer.flush().map_err(|e| CoreError::Io {
            context: format!("snapshot write to {} failed", tmp.display()),
            source: e,
        })?;
        std::fs::rename(&tmp, path).map_err(|e| CoreError::Io {
            context: format!("cannot move snapshot into {}", path.display()),
            source: e,
        })
    };
    let result = run();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// Bytes of file prefix the loader reads to decide the format and peek
/// the JSON version field. `{"version":4294967295,` is 23 bytes; 32
/// leaves slack.
const SNIFF_LEN: usize = 32;

/// Cheaply extract the claimed `version` from a JSON snapshot's leading
/// bytes, without parsing the document. The JSON writer of earlier
/// releases emitted struct fields in declaration order with `version`
/// first, so every JSON snapshot it wrote starts exactly
/// `{"version":<digits>`. Returns `None` when the prefix doesn't match
/// that shape (hand-edited or foreign files fall back to the full
/// parse, which applies the same gate after decoding).
fn peek_json_version(prefix: &[u8]) -> Option<u64> {
    let rest = prefix.strip_prefix(b"{\"version\":")?;
    let digits = rest.iter().position(|b| !b.is_ascii_digit())?;
    if digits == 0 {
        return None;
    }
    let text = std::str::from_utf8(rest.get(..digits)?).ok()?;
    text.parse::<u64>().ok()
}

impl Pipeline {
    /// Capture the online-serving state of this fitted pipeline, building
    /// the cached cut from `x_total` (`O(n²)`, once).
    ///
    /// `author_handles` labels the rows (pass the dataset's handles, or an
    /// empty slice to auto-number).
    pub fn snapshot(&self, author_handles: &[String]) -> PipelineSnapshot {
        let (min_sim, top_k) = (self.config.graph_min_sim, self.config.graph_top_k);
        // `fit` always produces a square matrix. If the public field was
        // made ragged, the snapshot gets a cut over no authors, which
        // `validate` (and so every load) rejects.
        let cut = CachedCut::new(&self.x_total, min_sim, top_k)
            .unwrap_or_else(|_| CachedCut::empty(min_sim, top_k));
        let handles = if author_handles.len() == self.n_authors() {
            author_handles.iter().collect()
        } else {
            (0..self.n_authors())
                .map(|a| format!("author{a:04}"))
                .collect()
        };
        PipelineSnapshot {
            version: SNAPSHOT_VERSION,
            vocab: Arc::new(self.corpus.vocab.clone()),
            tokenizer: self.config.tokenizer.clone(),
            collective: Arc::new(self.collective.clone()),
            centroids: self.concepts.centroids.clone(),
            author_content: ChunkedRows::from(&self.author_content),
            author_concept: ChunkedRows::from(&self.author_concept),
            concept_means: self.concept_means.clone(),
            concept_stats: self.concept_stats,
            content_stats: self.content_stats,
            cut: Arc::new(cut),
            alpha: self.config.alpha,
            tweet_combiner: self.config.tweet_combiner.into(),
            graph_min_sim: min_sim,
            graph_top_k: top_k,
            author_handles: handles,
            fit_metrics: stage_seconds_summary(),
        }
    }
}

/// Total seconds per `stage.*` histogram in the global metrics registry
/// (empty when nothing was instrumented, e.g. hand-built snapshots).
/// Sorted by name — `MetricsRegistry::names` is already ordered.
fn stage_seconds_summary() -> Vec<(String, f64)> {
    let obs = soulmate_obs::global();
    obs.names()
        .into_iter()
        .filter(|n| n.starts_with("stage."))
        .filter_map(|n| obs.histogram(&n).map(|h| (n, h.sum)))
        .collect()
}

impl PipelineSnapshot {
    /// Number of authors in the snapshot.
    pub fn n_authors(&self) -> usize {
        self.author_content.rows()
    }

    /// Read a snapshot: a v3 binary container written by
    /// [`PipelineSnapshot::save_binary`], or a v1/v2 JSON file written by
    /// an earlier release. The format is detected from the file's first
    /// bytes, so every caller (CLI `serve`/`link`, the server's startup
    /// load) transparently accepts both; re-saving migrates a JSON file.
    /// Files that persisted the dense `x_total` (every JSON file, and
    /// schema-2 containers) get their cut built at load, and the matrix
    /// is dropped.
    ///
    /// Fail-fast contract: the version gate runs **before** the full
    /// parse in both formats. Binary files are gated on their 16-byte
    /// prelude ([`binary::load`]); JSON files have their leading
    /// `{"version":N` peeked from the first `SNIFF_LEN` (32) bytes, so a
    /// wrong-version multi-gigabyte file is rejected without
    /// deserializing (and allocating) the whole document.
    ///
    /// # Errors
    /// [`CoreError::Io`] when the file cannot be opened,
    /// [`CoreError::Parse`] when its bytes do not decode (truncation,
    /// corruption, not-JSON), and [`CoreError::Schema`] when the decoded
    /// contents are inconsistent or carry an unsupported version.
    pub fn load(path: &Path) -> Result<PipelineSnapshot, CoreError> {
        let start = std::time::Instant::now();
        let mut file = File::open(path).map_err(|e| CoreError::Io {
            context: format!("cannot open {}", path.display()),
            source: e,
        })?;
        let mut sniff = [0u8; SNIFF_LEN];
        let mut got = 0usize;
        while got < SNIFF_LEN {
            let slot = sniff
                .get_mut(got..)
                .ok_or(CoreError::Internal("sniff window out of range"))?;
            let read = file.read(slot).map_err(|e| CoreError::Io {
                context: format!("cannot read {}", path.display()),
                source: e,
            })?;
            if read == 0 {
                break;
            }
            got += read;
        }
        let prefix = sniff.get(..got).unwrap_or(&[]);
        if Self::sniff_binary(prefix) {
            drop(file);
            return binary::load(path);
        }
        if let Some(claimed) = peek_json_version(prefix) {
            let supported = u64::from(SNAPSHOT_VERSION_MIN)..=u64::from(DENSE_VERSION_MAX);
            if !supported.contains(&claimed) {
                // Rejected from the first bytes: the rest of the file —
                // possibly gigabytes — is never parsed or allocated.
                return Err(CoreError::Schema(format!(
                    "unsupported snapshot version {claimed} (expected {SNAPSHOT_VERSION_MIN}..={DENSE_VERSION_MAX})"
                )));
            }
        }
        file.seek(SeekFrom::Start(0)).map_err(|e| CoreError::Io {
            context: format!("cannot rewind {}", path.display()),
            source: e,
        })?;
        let json: JsonSnapshot = serde_json::from_reader(BufReader::new(file))
            .map_err(|e| CoreError::Parse(e.to_string()))?;
        if !(SNAPSHOT_VERSION_MIN..=DENSE_VERSION_MAX).contains(&json.version) {
            return Err(CoreError::Schema(format!(
                "unsupported snapshot version {} (expected {SNAPSHOT_VERSION_MIN}..={DENSE_VERSION_MAX})",
                json.version
            )));
        }
        let cut = cut_from_dense(
            &json.x_total,
            json.author_content.rows(),
            json.graph_min_sim,
            json.graph_top_k,
        )?;
        // The vocabulary's string→id index is skipped by serde.
        let mut vocab = json.vocab;
        vocab.rebuild_index();
        let snapshot = PipelineSnapshot {
            version: json.version,
            vocab: Arc::new(vocab),
            tokenizer: json.tokenizer,
            collective: Arc::new(json.collective),
            centroids: json.centroids,
            author_content: ChunkedRows::from(&json.author_content),
            author_concept: ChunkedRows::from(&json.author_concept),
            concept_means: json.concept_means,
            concept_stats: json.concept_stats,
            content_stats: json.content_stats,
            cut: Arc::new(cut),
            alpha: json.alpha,
            tweet_combiner: json.tweet_combiner,
            graph_min_sim: json.graph_min_sim,
            graph_top_k: json.graph_top_k,
            author_handles: Handles::from(json.author_handles),
            fit_metrics: json.fit_metrics,
        };
        snapshot.validate()?;
        soulmate_obs::global().record_duration("snapshot.load.seconds", start.elapsed());
        Ok(snapshot)
    }

    /// Cross-check internal shapes and value sanity (called on load;
    /// public for callers constructing snapshots by hand).
    ///
    /// Everything the serving path later indexes or divides by is checked
    /// here — dimensions, cross-references (vocabulary vs. embedding),
    /// and finiteness of every weight that reaches the graph cut — so a
    /// snapshot that validates can be served without any panic risk.
    ///
    /// # Errors
    /// [`CoreError::Schema`] describing the first inconsistency found.
    pub fn validate(&self) -> Result<(), CoreError> {
        let schema = |msg: String| Err(CoreError::Schema(msg));
        let n = self.author_content.rows();
        if self.author_concept.rows() != n {
            return schema("author concept/content row counts differ".into());
        }
        if self.cut.n_authors() != n {
            return schema(format!(
                "cut covers {} authors, the model has {n}",
                self.cut.n_authors()
            ));
        }
        if self.cut.top_k() != self.graph_top_k
            || self.cut.min_similarity().to_bits() != self.graph_min_sim.to_bits()
        {
            return schema(format!(
                "cut built with min_sim {} and top_k {}, the model says {} and {}",
                self.cut.min_similarity(),
                self.cut.top_k(),
                self.graph_min_sim,
                self.graph_top_k
            ));
        }
        if self.author_handles.len() != n {
            return schema("author handle count mismatch".into());
        }
        if self.author_concept.cols() != self.centroids.len() {
            return schema("concept vector width != centroid count".into());
        }
        if self.concept_means.len() != self.centroids.len() {
            return schema("concept means width != centroid count".into());
        }
        if self
            .centroids
            .iter()
            .any(|c| c.len() != self.collective.dim())
        {
            return schema("centroid dimension != embedding dimension".into());
        }
        if !(0.0..=1.0).contains(&self.alpha) {
            return schema(format!("alpha {} out of range", self.alpha));
        }
        // Word ids produced by the vocabulary index the embedding rows, so
        // the two tables must agree — otherwise an in-vocabulary word id
        // would read a vector that belongs to no word (or none at all).
        if self.vocab.len() != self.collective.len() {
            return schema(format!(
                "vocabulary has {} words but the collective embedding has {} rows",
                self.vocab.len(),
                self.collective.len()
            ));
        }
        // A populated model with a zero-dimensional embedding cannot form
        // any content vector; reject it rather than serve empty rows.
        if n > 0 && self.collective.dim() == 0 {
            return schema("collective embedding dimension is zero".into());
        }
        if self.author_content.cols() != self.collective.dim() {
            return schema(format!(
                "author content width {} != embedding dimension {}",
                self.author_content.cols(),
                self.collective.dim()
            ));
        }
        // The fusion standardization divides by these stds and the graph
        // cut compares against these weights; any non-finite value here
        // would propagate NaN into every served similarity row.
        for (name, (mean, std)) in [
            ("concept_stats", self.concept_stats),
            ("content_stats", self.content_stats),
        ] {
            if !mean.is_finite() || !std.is_finite() {
                return schema(format!("{name} ({mean}, {std}) is not finite"));
            }
            if std <= 0.0 {
                return schema(format!("{name} std {std} must be positive"));
            }
        }
        if !self.graph_min_sim.is_finite() {
            return schema(format!(
                "graph_min_sim {} is not finite",
                self.graph_min_sim
            ));
        }
        if self.concept_means.iter().any(|v| !v.is_finite()) {
            return schema("concept_means contains a non-finite entry".into());
        }
        Ok(())
    }

    /// The [`QueryModel`] view over this snapshot.
    pub fn query_model(&self) -> QueryModel<'_> {
        QueryModel {
            vocab: &self.vocab,
            tokenizer: &self.tokenizer,
            collective: &self.collective,
            centroids: &self.centroids,
            author_content: &self.author_content,
            author_concept: &self.author_concept,
            concept_means: &self.concept_means,
            concept_stats: self.concept_stats,
            content_stats: self.content_stats,
            alpha: self.alpha,
            tweet_combiner: self.tweet_combiner.into(),
            graph_min_sim: self.graph_min_sim,
            graph_top_k: self.graph_top_k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::link_query;
    use crate::pipeline::PipelineConfig;
    use soulmate_corpus::{generate, GeneratorConfig, Timestamp};

    fn fitted() -> (soulmate_corpus::Dataset, Pipeline) {
        let d = generate(&GeneratorConfig {
            n_authors: 16,
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
            "soulmate-snapshot-test-{}-{name}",
            std::process::id()
        ));
        p
    }

    /// Bytes of a committed legacy v2 JSON snapshot (tests/fixtures).
    fn v2_fixture_bytes() -> Vec<u8> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v2_index.json");
        std::fs::read(path).unwrap()
    }

    #[test]
    fn snapshot_roundtrips_through_disk() {
        let (d, p) = fitted();
        let handles: Vec<String> = d.authors.iter().map(|a| a.handle.clone()).collect();
        let snap = p.snapshot(&handles);
        let path = tmp("roundtrip.bin");
        snap.save_binary(&path, false).unwrap();
        let loaded = PipelineSnapshot::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.n_authors(), p.n_authors());
        assert_eq!(loaded.author_handles, Handles::from(handles));
        assert_eq!(loaded.cut.base_edges(), snap.cut.base_edges());
        assert_eq!(
            loaded.collective.matrix().as_slice(),
            p.collective.matrix().as_slice()
        );
    }

    #[test]
    fn loaded_snapshot_answers_queries_like_the_pipeline() {
        let (d, p) = fitted();
        let snap = p.snapshot(&[]);
        let path = tmp("query.bin");
        snap.save_binary(&path, false).unwrap();
        let loaded = PipelineSnapshot::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let tweets: Vec<(Timestamp, String)> = d
            .tweets
            .iter()
            .filter(|t| t.author == 2)
            .take(6)
            .map(|t| (t.timestamp, t.text.clone()))
            .collect();
        let from_pipeline = link_query(&p.query_model(), &p.x_total, &tweets).unwrap();
        let from_snapshot = loaded
            .query_engine(crate::EngineMode::Exact)
            .unwrap()
            .link_query_authors(&[tweets])
            .unwrap()
            .remove(0);
        assert_eq!(from_pipeline.subgraph, from_snapshot.subgraph);
        assert_eq!(from_pipeline.similarities, from_snapshot.similarities);
    }

    #[test]
    fn save_into_missing_directory_errors_and_leaves_no_temp() {
        let (_, p) = fitted();
        let snap = p.snapshot(&[]);
        let dir = tmp("no-such-dir");
        let target = dir.join("snap.bin");
        let err = snap.save_binary(&target, false);
        assert!(err.is_err(), "save into a missing directory must fail");
        assert!(!target.exists());
        // A bare file name with no parent is also rejected cleanly
        // (root path has no file name).
        assert!(snap.save_binary(Path::new("/"), false).is_err());
    }

    #[test]
    fn save_onto_directory_errors_and_cleans_up_temp() {
        let (_, p) = fitted();
        let snap = p.snapshot(&[]);
        let dir = tmp("is-a-directory");
        std::fs::create_dir_all(&dir).unwrap();
        // The rename step fails; the temp file written next to the target
        // must be cleaned up.
        assert!(snap.save_binary(&dir, false).is_err());
        let parent = dir.parent().unwrap();
        let strays: Vec<_> = std::fs::read_dir(parent)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains("is-a-directory") && n.contains(".tmp-"))
            .collect();
        assert!(
            strays.is_empty(),
            "stray temp files left behind: {strays:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_saves_to_one_path_leave_a_valid_snapshot() {
        // Regression: the temp name used to be keyed on the process id
        // alone, so two threads of one process (the server's background
        // refit writing while a CLI-style save runs) shared one temp file
        // and could rename each other's half-written bytes into place.
        // Each save now gets a unique temp; whatever the rename race
        // publishes must be one writer's *complete* snapshot.
        let (_, p) = fitted();
        let mut a = p.snapshot(&[]);
        a.author_handles = (0..p.n_authors()).map(|i| format!("aa{i:04}")).collect();
        let mut b = p.snapshot(&[]);
        b.author_handles = (0..p.n_authors()).map(|i| format!("bb{i:04}")).collect();
        let path = tmp("concurrent.bin");
        std::thread::scope(|s| {
            for snap in [&a, &b] {
                s.spawn(|| {
                    for _ in 0..8 {
                        snap.save_binary(&path, false).unwrap();
                    }
                });
            }
        });
        let loaded = PipelineSnapshot::load(&path).unwrap();
        let first = loaded.author_handles.get(0).unwrap();
        assert!(
            loaded.author_handles == a.author_handles || loaded.author_handles == b.author_handles,
            "published snapshot is neither writer's (first handle {first})"
        );
        // No stray temp siblings survive the crossfire.
        let parent = path.parent().unwrap();
        let strays: Vec<String> = std::fs::read_dir(parent)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains("concurrent.bin") && n.contains(".tmp-"))
            .collect();
        assert!(strays.is_empty(), "stray temp files: {strays:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_embeds_fit_stage_metrics() {
        let (_, p) = fitted();
        let snap = p.snapshot(&[]);
        assert!(
            snap.fit_metrics
                .iter()
                .any(|(n, _)| n == "stage.fit.seconds"),
            "fit stage timings missing from snapshot: {:?}",
            snap.fit_metrics.iter().map(|(n, _)| n).collect::<Vec<_>>()
        );
        assert!(snap
            .fit_metrics
            .iter()
            .all(|(_, v)| v.is_finite() && *v >= 0.0));
    }

    #[test]
    fn mismatched_handles_auto_number() {
        let (_, p) = fitted();
        let snap = p.snapshot(&["just-one".to_string()]);
        assert_eq!(snap.author_handles.len(), p.n_authors());
        assert!(snap.author_handles.get(0).unwrap().starts_with("author"));
    }

    #[test]
    fn validate_catches_shape_corruption() {
        let (_, p) = fitted();
        let mut snap = p.snapshot(&[]);
        snap.author_handles.pop();
        assert!(snap.validate().is_err());

        let mut snap2 = p.snapshot(&[]);
        snap2.alpha = 3.0;
        assert!(snap2.validate().is_err());

        let mut snap3 = p.snapshot(&[]);
        snap3.centroids.pop();
        assert!(snap3.validate().is_err());
    }

    #[test]
    fn snapshot_without_index_rebuilds_on_demand() {
        let (_, p) = fitted();
        let snap = p.snapshot(&[]);
        let engine = snap
            .query_engine(crate::EngineMode::Ivf { nprobe: 0 })
            .unwrap();
        let built = engine.index().expect("the IVF plan builds its index");
        let mut want = p.query_engine(crate::EngineMode::Exact).unwrap();
        want.build_index(&soulmate_retrieval::IvfConfig::default())
            .unwrap();
        assert_eq!(built.n_centroids(), want.index().unwrap().n_centroids());
    }

    #[test]
    fn peek_json_version_parses_only_the_canonical_prefix() {
        assert_eq!(peek_json_version(b"{\"version\":2,\"vocab\":"), Some(2));
        assert_eq!(peek_json_version(b"{\"version\":99}"), Some(99));
        // Non-canonical shapes defer to the full parse.
        assert_eq!(peek_json_version(b"{ \"version\": 2 }"), None);
        assert_eq!(peek_json_version(b"{\"vocab\":{},\"version\":2}"), None);
        assert_eq!(peek_json_version(b"{\"version\":"), None);
        assert_eq!(peek_json_version(b"{\"version\":x"), None);
        assert_eq!(peek_json_version(b""), None);
        // A number still running at the end of the sniff window is
        // incomplete — don't trust a truncated read of it.
        assert_eq!(peek_json_version(b"{\"version\":123456"), None);
    }

    #[test]
    fn oversized_bad_version_json_fails_before_full_parse() {
        // Regression: the loader used to deserialize the entire document
        // before the version gate, burning full parse time and allocation
        // on a file it was always going to reject. The tail here is
        // *invalid* JSON — if the loader ever parsed past the version
        // field it would report Parse, not Schema.
        let path = tmp("oversized-badversion.json");
        let mut bytes = b"{\"version\":99,".to_vec();
        bytes.resize(8 << 20, b'x');
        std::fs::write(&path, &bytes).unwrap();
        let err = PipelineSnapshot::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        match err {
            CoreError::Schema(msg) => {
                assert!(msg.contains("version 99"), "unexpected message: {msg}")
            }
            other => panic!("expected fast Schema rejection, got {other}"),
        }
    }

    #[test]
    fn load_rejects_wrong_version_and_garbage() {
        let bytes = v2_fixture_bytes();
        let path = tmp("badversion.json");
        // The on-disk version corrupted to an unsupported one.
        let text = String::from_utf8(bytes).unwrap();
        let bad = text.replacen("{\"version\":2,", "{\"version\":99,", 1);
        assert_ne!(bad, text, "fixture starts with its version");
        std::fs::write(&path, bad).unwrap();
        assert!(matches!(
            PipelineSnapshot::load(&path),
            Err(CoreError::Schema(_))
        ));
        std::fs::write(&path, "{not json").unwrap();
        assert!(matches!(
            PipelineSnapshot::load(&path),
            Err(CoreError::Parse(_))
        ));
        std::fs::remove_file(&path).ok();
        assert!(PipelineSnapshot::load(Path::new("/definitely/missing.json")).is_err());
    }
}
