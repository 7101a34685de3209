//! Incremental ingestion and generation-based serving.
//!
//! The paper's premise is a *stream*: new authors and tweets keep
//! arriving, and the multi-aspect embedding must track them. A full
//! [`Pipeline::fit`] per batch is the correct but unaffordable answer
//! (superlinear in corpus size); this module provides the production
//! split:
//!
//! * **Delta path** ([`EngineGeneration::ingest`]) — new authors are
//!   vectorized against the *frozen* offline model (the same
//!   `vectorize_query` the query path uses, so an
//!   ingested author's vectors are bit-identical to what a query with
//!   the same tweets would compute), appended to the author rows and
//!   handles, and spliced into the cached graph cut via
//!   [`crate::engine::CachedCut::insert_author`] — `O(n·d + n log n)`
//!   per author instead of a refit. No generation holds the `n²`
//!   `X^Total`, so none is copied or grown, and the frozen vocabulary
//!   and collective embedding are shared by every generation grown from
//!   one fit. Under the frozen-embedding contract the delta-updated
//!   engine answers queries **bit-identically** to an engine whose cut is
//!   rebuilt with [`crate::engine::CachedCut::new`] over the grown dense
//!   matrix (pinned by a property test); only a full refit can change the
//!   embedding itself.
//! * **Refit path** ([`RefitManager`]) — the existing
//!   [`Trigger`] (Section 4.2.1) counts arriving tweets and schedules a
//!   full [`Pipeline::fit`] over the grown dataset as a background job;
//!   the resulting snapshot is persisted through the atomic temp+rename
//!   v3 binary writer and becomes the next serving generation.
//! * **Hot swap** ([`EngineCell`]) — generations are owned,
//!   `Arc`-swappable engine states. Workers clone the current generation
//!   per request (five reference-count bumps) and the publisher replaces
//!   the slot under a mutex held for nanoseconds, so a refit lands with
//!   zero dropped or blocked requests and every in-flight request keeps
//!   serving from one consistent generation.
//!
//! ## Staleness bound (what "approximate until refit" means)
//!
//! Between refits the collective embedding, concept centroids, fusion
//! stats and vocabulary are frozen. An ingested author's vectors are
//! exactly what the offline pipeline would compute *given those frozen
//! resources*; what drifts is the resources themselves (new vocabulary is
//! OOV, concept structure may shift). The [`Trigger`] interval is
//! therefore the staleness bound: at most `interval` tweets are ever
//! composed against a stale embedding before a refit folds them in. An
//! attached IVF index is *detached* on ingest (its centroid assignment
//! predates the new rows; counted in `ingest.index_detached`) and
//! rebuilt at the next refit — the IVF plan transparently falls back to
//! the exact path meanwhile (counted in `engine.ivf.fallbacks`).
//! Quantized state is rebuilt inline (deterministic, `O(n·d)`).

use crate::engine::{CachedCut, EngineMode, EngineParts, QueryEngine};
use crate::error::CoreError;
use crate::online::{fused_row_from_dots, vectorize_query, Trigger};
use crate::pipeline::{Pipeline, PipelineConfig};
use crate::snapshot::PipelineSnapshot;
use soulmate_corpus::{Author, Dataset, Timestamp, Tweet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// One new author to ingest: a display handle plus their tweets.
#[derive(Debug, Clone)]
pub struct IngestBatch {
    /// Display handle for the new author.
    pub handle: String,
    /// The author's tweets (timestamps in corpus minutes).
    pub tweets: Vec<(Timestamp, String)>,
}

/// What one ingested author became.
#[derive(Debug, Clone)]
pub struct IngestOutcome {
    /// The author's row index in the grown model.
    pub author_index: usize,
    /// The handle as stored.
    pub handle: String,
    /// Tweets that contributed (the whole batch; empty-vocabulary tweets
    /// drop out during vectorization but still count as arrivals).
    pub n_tweets: usize,
}

/// An owned, swappable serving state: a [`PipelineSnapshot`] plus the
/// engine's derived structures, every heavy piece behind an `Arc` — the
/// snapshot's cut *is* the engine's, so a generation keeps one copy.
///
/// [`QueryEngine`] borrows its model, which is the right shape for a CLI
/// one-shot but cannot be swapped under a running server (the workers'
/// borrows pin it). A generation *owns* the snapshot and holds the
/// derived parts (`EngineParts`) by `Arc`, so
/// [`EngineGeneration::engine`] hands out a borrowed engine view in a
/// few reference-count bumps — build once, serve forever, drop when the
/// last in-flight request finishes.
#[derive(Debug)]
pub struct EngineGeneration {
    snapshot: PipelineSnapshot,
    parts: EngineParts,
}

impl EngineGeneration {
    /// Build a generation serving `mode` from an owned snapshot.
    ///
    /// # Errors
    /// Same conditions as [`PipelineSnapshot::query_engine`].
    pub fn from_snapshot(
        snapshot: PipelineSnapshot,
        mode: EngineMode,
    ) -> Result<EngineGeneration, CoreError> {
        let parts = snapshot.query_engine(mode)?.parts().clone();
        Ok(EngineGeneration { snapshot, parts })
    }

    /// A borrowed engine view over this generation — cheap enough to
    /// call per request.
    pub fn engine(&self) -> QueryEngine<'_> {
        QueryEngine::from_parts(self.snapshot.query_model(), self.parts.clone())
    }

    /// The generation's snapshot (e.g. for persisting after ingest).
    pub fn snapshot(&self) -> &PipelineSnapshot {
        &self.snapshot
    }

    /// The serving mode this generation was built with.
    pub fn mode(&self) -> EngineMode {
        self.parts.mode
    }

    /// Number of authors served.
    pub fn n_authors(&self) -> usize {
        self.snapshot.author_handles.len()
    }

    /// Delta-ingest new authors against the frozen offline model,
    /// returning a **new** generation (this one is untouched — in-flight
    /// requests keep their consistent view; publish the result through
    /// an [`EngineCell`]).
    ///
    /// Per author: vectorize with the query-path machinery, compute the
    /// fused similarity row against the current rows (the query path's
    /// chunk-wise scoring + `fused_row_from_dots`, bit-identical to a
    /// query's row), grow the author rows and handles, and splice the new
    /// edges into the cached cut — `O(n·d + n log n)`, nothing `n²`. The
    /// quantized state is rebuilt (deterministic); an IVF index is
    /// detached until the next refit. The new generation shares the
    /// frozen vocabulary and collective embedding with this one, and every
    /// full chunk of its author rows; it copies the packed handles and at
    /// most one tail chunk (`TILE − 1` rows) per matrix, and the insert
    /// builds the grown cut's backbone afresh.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] when `batches` is empty or any author has
    /// no tweets / no in-vocabulary token — the batch fails as a whole
    /// before any state is published, so a partial ingest can never be
    /// observed.
    pub fn ingest(
        &self,
        batches: &[IngestBatch],
    ) -> Result<(EngineGeneration, Vec<IngestOutcome>), CoreError> {
        if batches.is_empty() {
            return Err(CoreError::Invalid("empty ingest batch".into()));
        }
        let obs = soulmate_obs::global();
        let start = std::time::Instant::now();

        // The vocabulary and collective embedding are `Arc`s and the
        // author rows are chunked: these clones copy the handles and a
        // few chunk pointers, and the pushes below copy at most one tail
        // chunk per matrix. Every full chunk stays shared with `self`.
        let mut snapshot = self.snapshot.clone();
        let mut content_rows = (*self.parts.content_rows).clone();
        let mut concept_rows = (*self.parts.concept_rows).clone();
        let mut grown: Option<CachedCut> = None;
        let mut outcomes = Vec::with_capacity(batches.len());
        let mut total_tweets = 0u64;

        for batch in batches {
            let q = vectorize_query(&snapshot.query_model(), &batch.tweets)?;
            let n = content_rows.rows();

            // The new author's fused similarity row against every
            // existing author — the scoring call and fusion the query
            // path runs, so the new (existing, new) entries of X^Total are
            // bitwise the scores a query with these tweets would report.
            let (content_dots, concept_dots) = content_rows
                .dots(&[&q.content_unit])
                .pop()
                .zip(concept_rows.dots(&[&q.concept_centered_unit]).pop())
                .ok_or(CoreError::Internal("one dot row per query"))?;
            let sims = fused_row_from_dots(&snapshot.query_model(), &content_dots, &concept_dots);

            // Grow the snapshot's raw vectors and handles.
            snapshot.author_content.push_row(&q.content)?;
            snapshot.author_concept.push_row(&q.concept)?;
            snapshot.author_handles.push(&batch.handle);

            // Grow the engine's unit rows by the query's own unit vectors,
            // which the engine build computes the same way from the raw
            // rows, then splice the new author's edges into the cut.
            content_rows.push_row(&q.content_unit)?;
            concept_rows.push_row(&q.concept_centered_unit)?;
            match grown.as_mut() {
                Some(cut) => cut.insert_author(&sims)?,
                None => grown = Some(self.parts.cut.with_author(&sims)?),
            }

            total_tweets += batch.tweets.len() as u64;
            outcomes.push(IngestOutcome {
                author_index: n,
                handle: batch.handle.clone(),
                n_tweets: batch.tweets.len(),
            });
        }

        let cut = Arc::new(grown.ok_or(CoreError::Internal("a non-empty batch grows the cut"))?);
        snapshot.cut = Arc::clone(&cut);
        let mut parts = EngineParts {
            content_rows: Arc::new(content_rows),
            concept_rows: Arc::new(concept_rows),
            cut,
            index: None,
            quant: None,
            mode: self.parts.mode,
        };
        if self.parts.index.is_some() {
            // The coarse centroids predate the new rows; a stale index
            // must never route a query, so it is dropped (the IVF plan
            // falls back to exact) and rebuilt by the next refit.
            obs.incr("ingest.index_detached", 1);
        }
        if self.parts.quant.is_some() {
            // Rebuild through the engine mutator so the quantized state
            // is byte-identical to a fresh `enable_quant` on the grown
            // rows (quantization is deterministic).
            let mut tmp = QueryEngine::from_parts(snapshot.query_model(), parts.clone());
            tmp.enable_quant();
            parts = tmp.parts().clone();
        }

        obs.incr("ingest.batches", 1);
        obs.incr("ingest.authors", batches.len() as u64);
        obs.incr("ingest.tweets", total_tweets);
        obs.record_duration("ingest.delta.seconds", start.elapsed());

        Ok((EngineGeneration { snapshot, parts }, outcomes))
    }
}

/// The swap point between the serving workers and the
/// ingest/refit publishers: a mutex-guarded `Arc` slot plus a
/// monotonically increasing generation counter.
///
/// Readers call [`EngineCell::current`] once per request — lock, clone
/// the `Arc`, unlock (nanoseconds; the lock is never held across any
/// engine work) — so every request is served from exactly one
/// generation, and a publish never blocks or drops a request: old
/// generations stay alive until their last in-flight request drops its
/// `Arc`.
#[derive(Debug)]
pub struct EngineCell {
    slot: Mutex<Arc<EngineGeneration>>,
    generation: AtomicU64,
}

impl EngineCell {
    /// Wrap the initial generation (generation number 0).
    pub fn new(initial: EngineGeneration) -> EngineCell {
        let obs = soulmate_obs::global();
        obs.set_gauge("serve.generation", 0.0);
        EngineCell {
            slot: Mutex::new(Arc::new(initial)),
            generation: AtomicU64::new(0),
        }
    }

    /// The current generation. Each call is one lock + `Arc` clone.
    pub fn current(&self) -> Arc<EngineGeneration> {
        // A poisoned lock only means a publisher panicked *between*
        // assignments; the slot always holds a complete generation, so
        // serving continues on whatever is present.
        Arc::clone(&self.slot.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// The current generation number (0-based; bumped per publish).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Atomically swap in a new generation; returns its number.
    ///
    /// The observable swap pause — how long a concurrent
    /// [`EngineCell::current`] can be made to wait — is the duration the
    /// lock is held here, recorded as `serve.swap.seconds`.
    pub fn publish(&self, next: EngineGeneration) -> u64 {
        let obs = soulmate_obs::global();
        let number = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        let start = std::time::Instant::now();
        {
            let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
            *slot = Arc::new(next);
        }
        obs.record_duration("serve.swap.seconds", start.elapsed());
        obs.set_gauge("serve.generation", number as f64);
        number
    }
}

/// The background-refit coordinator: owns the growing dataset, the
/// pipeline configuration and the rebuild [`Trigger`], and runs full
/// [`Pipeline::fit`] refits over the grown corpus.
///
/// [`RefitManager::absorb`] is called on every ingest (cheap, under a
/// short lock); when it reports the trigger fired, the caller schedules
/// [`RefitManager::refit`] on a background thread — the dataset is
/// cloned under the lock and the (minutes-long at scale) fit runs
/// outside it, so ingestion and serving continue throughout.
#[derive(Debug)]
pub struct RefitManager {
    config: PipelineConfig,
    mode: EngineMode,
    /// Where refit snapshots are persisted (v3 binary, atomic
    /// temp+rename), `None` to keep generations in memory only.
    out_path: Option<PathBuf>,
    inner: Mutex<RefitInner>,
}

#[derive(Debug)]
struct RefitInner {
    dataset: Dataset,
    trigger: Trigger,
}

impl RefitManager {
    /// Coordinate refits over `dataset` with the given fit config and
    /// trigger interval (`Trigger::new(0)` never fires — delta-only
    /// deployments use exactly that).
    pub fn new(
        dataset: Dataset,
        config: PipelineConfig,
        trigger: Trigger,
        mode: EngineMode,
        out_path: Option<PathBuf>,
    ) -> RefitManager {
        RefitManager {
            config,
            mode,
            out_path,
            inner: Mutex::new(RefitInner { dataset, trigger }),
        }
    }

    /// Fold an ingested batch into the growing dataset and notify the
    /// trigger with the tweet arrivals. Returns `true` when a refit is
    /// due. (The eval-only ground-truth arrays are not extended — the
    /// fit reads only the lexicon; linking precision for ingested
    /// authors is a query-time question.)
    pub fn absorb(&self, batches: &[IngestBatch]) -> bool {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut new_tweets = 0usize;
        for batch in batches {
            // Dataset invariant: `authors[i].id == i`, `tweets[i].id == i`.
            // Author/tweet counts stay far below u32::MAX in any corpus
            // this system serves; saturate rather than wrap regardless.
            let author_id = u32::try_from(inner.dataset.authors.len()).unwrap_or(u32::MAX);
            inner.dataset.authors.push(Author {
                id: author_id,
                handle: batch.handle.clone(),
            });
            for (timestamp, text) in &batch.tweets {
                let tweet_id = u32::try_from(inner.dataset.tweets.len()).unwrap_or(u32::MAX);
                inner.dataset.tweets.push(Tweet {
                    id: tweet_id,
                    author: author_id,
                    timestamp: *timestamp,
                    text: text.clone(),
                    popularity: 0,
                });
                new_tweets += 1;
            }
        }
        inner.trigger.notify(new_tweets)
    }

    /// Tweets accumulated toward the next trigger firing.
    pub fn pending(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .trigger
            .pending()
    }

    /// How many refits the trigger has signalled so far.
    pub fn times_fired(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .trigger
            .times_fired()
    }

    /// Run one full refit over the grown dataset: clone the dataset
    /// under the lock, [`Pipeline::fit`] outside it, persist the fresh
    /// snapshot (when configured) through the atomic v3 binary writer,
    /// and build the next generation. The caller publishes the result
    /// through an [`EngineCell`].
    ///
    /// # Errors
    /// Same conditions as [`Pipeline::fit`] /
    /// [`EngineGeneration::from_snapshot`], plus I/O errors from the
    /// snapshot writer.
    pub fn refit(&self) -> Result<EngineGeneration, CoreError> {
        let obs = soulmate_obs::global();
        let start = std::time::Instant::now();
        let dataset = self
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .dataset
            .clone();
        let pipeline = Pipeline::fit(&dataset, self.config.clone())?;
        let handles: Vec<String> = dataset.authors.iter().map(|a| a.handle.clone()).collect();
        let snapshot = pipeline.snapshot(&handles);
        if let Some(path) = &self.out_path {
            snapshot.save_binary(path, false)?;
        }
        let generation = EngineGeneration::from_snapshot(snapshot, self.mode)?;
        obs.incr("serve.refits", 1);
        obs.record_duration("refit.seconds", start.elapsed());
        Ok(generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CachedCut;
    use crate::online::QueryOutcome;
    use crate::pipeline::PipelineConfig;
    use crate::similarity::center_rows;
    use soulmate_check::check;
    use soulmate_corpus::{generate, GeneratorConfig};
    use soulmate_linalg::kernels::NormalizedRows;
    use soulmate_linalg::{dot, ChunkedRows, TILE};

    fn fitted() -> (Dataset, Pipeline) {
        let d = generate(&GeneratorConfig {
            n_authors: 18,
            n_communities: 4,
            n_concepts: 6,
            entities_per_concept: 10,
            mean_tweets_per_author: 30,
            ..GeneratorConfig::small()
        })
        .unwrap();
        let p = Pipeline::fit(&d, PipelineConfig::fast()).unwrap();
        (d, p)
    }

    type Shared = (Dataset, PipelineSnapshot, Vec<Vec<f32>>);

    static FIT_SHARED: std::sync::OnceLock<Shared> = std::sync::OnceLock::new();

    /// One fitted snapshot, and the fit's dense `x_total` for the
    /// references, shared across property-test cases — fitting dominates
    /// the case body by orders of magnitude.
    fn fitted_shared() -> (
        &'static Dataset,
        &'static PipelineSnapshot,
        &'static [Vec<f32>],
    ) {
        let (d, snapshot, x_total) = FIT_SHARED.get_or_init(|| {
            let (d, p) = fitted();
            let handles: Vec<String> = d.authors.iter().map(|a| a.handle.clone()).collect();
            let snapshot = p.snapshot(&handles);
            (d, snapshot, p.x_total)
        });
        (d, snapshot, x_total)
    }

    /// The grown dense `X^Total` a refit under the frozen model would
    /// cut: the fitted `x_total` bordered by each ingested author's fused
    /// row against every earlier author, scored from the grown author
    /// matrices with the query path's unit-dot + fusion sequence.
    fn grown_dense(x_total: &[Vec<f32>], snap: &PipelineSnapshot) -> Vec<Vec<f32>> {
        let model = snap.query_model();
        let content = NormalizedRows::from_matrix(&snap.author_content.to_matrix());
        let concept = NormalizedRows::from_matrix(&center_rows(
            &snap.author_concept.to_matrix(),
            &snap.concept_means,
        ));
        let mut x = x_total.to_vec();
        for m in x.len()..snap.n_authors() {
            let dots = |rows: &NormalizedRows| -> Vec<f32> {
                (0..m)
                    .map(|a| dot(rows.unit_row(m), rows.unit_row(a)))
                    .collect()
            };
            let row = fused_row_from_dots(&model, &dots(&content), &dots(&concept));
            for (r, &s) in x.iter_mut().zip(&row) {
                r.push(s);
            }
            let mut own = row;
            own.push(1.0); // the diagonal, which the cut never reads
            x.push(own);
        }
        x
    }

    /// The reference a delta generation must answer like: an engine over
    /// its model whose cut is rebuilt by [`CachedCut::new`] over the grown
    /// dense matrix.
    fn rebuilt_engine<'a>(
        generation: &'a EngineGeneration,
        x_total: &[Vec<f32>],
    ) -> QueryEngine<'a> {
        let snap = generation.snapshot();
        let cut = CachedCut::new(&grown_dense(x_total, snap), snap.graph_min_sim).unwrap();
        QueryEngine::new(snap.query_model(), Arc::new(cut)).unwrap()
    }

    fn author_tweets(d: &Dataset, author: u32, take: usize) -> Vec<(Timestamp, String)> {
        d.tweets
            .iter()
            .filter(|t| t.author == author)
            .take(take)
            .map(|t| (t.timestamp, t.text.clone()))
            .collect()
    }

    /// One query through the engine's single query method.
    fn link_one(engine: &QueryEngine<'_>, tweets: &[(Timestamp, String)]) -> QueryOutcome {
        engine
            .link_query_authors(&[tweets.to_vec()])
            .unwrap()
            .remove(0)
    }

    fn batch(d: &Dataset, author: u32, take: usize, handle: &str) -> IngestBatch {
        IngestBatch {
            handle: handle.to_string(),
            tweets: author_tweets(d, author, take),
        }
    }

    /// The delta-vs-refit contract, engine level: after N delta inserts
    /// the generation's engine must answer `link_query_authors`
    /// **bit-identically** to a from-scratch engine over the grown model
    /// whose cut `CachedCut::new` rebuilds from the grown dense matrix —
    /// similarities, subgraphs and average weights all exact. What stays
    /// approximate until a real refit is only the frozen embedding
    /// itself; given the frozen resources, delta and rebuild are the same
    /// function.
    #[test]
    fn delta_ingest_matches_from_scratch_engine_on_grown_snapshot() {
        let (d, snapshot, x_total) = fitted_shared();
        let gen0 = EngineGeneration::from_snapshot(snapshot.clone(), EngineMode::Exact).unwrap();
        let n0 = gen0.n_authors();

        let batches = vec![
            batch(d, 2, 9, "ingest-a"),
            batch(d, 11, 5, "ingest-b"),
            batch(d, 7, 12, "ingest-c"),
        ];
        let (gen1, outcomes) = gen0.ingest(&batches).unwrap();
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0].author_index, n0);
        assert_eq!(outcomes[2].author_index, n0 + 2);
        assert_eq!(gen1.n_authors(), n0 + 3);
        assert_eq!(gen0.n_authors(), n0, "source generation is untouched");
        assert_eq!(gen1.snapshot().author_handles.get(n0), Some("ingest-a"));

        let fresh = rebuilt_engine(&gen1, x_total);
        let delta = gen1.engine();
        assert_eq!(fresh.cut().base_edges(), delta.cut().base_edges());
        let queries: Vec<Vec<(Timestamp, String)>> = [0u32, 5, 9, 13]
            .iter()
            .map(|&a| author_tweets(d, a, 7))
            .collect();
        let want = fresh.link_query_authors(&queries).unwrap();
        let got = delta.link_query_authors(&queries).unwrap();
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.query_index, g.query_index);
            assert_eq!(w.similarities, g.similarities);
            assert_eq!(w.subgraph, g.subgraph);
            assert_eq!(w.subgraph_avg_weight, g.subgraph_avg_weight);
        }
    }

    /// Random ingest sequences (random source authors, tweet counts,
    /// batch splits) keep the delta engine bit-identical to the
    /// from-scratch engine on the grown snapshot — including when the
    /// ingested author is a near-duplicate of an existing one (ties
    /// in the ranking prefixes).
    #[test]
    fn prop_delta_vs_refit_equivalence() {
        check(8, |g| {
            let sources = g.vec(1..5, |g| (g.u32(0..18), g.usize(3..12)));
            let query_author = g.u32(0..18);

            let (d, snapshot, x_total) = fitted_shared();
            let gen0 =
                EngineGeneration::from_snapshot(snapshot.clone(), EngineMode::Exact).unwrap();
            let batches: Vec<IngestBatch> = sources
                .iter()
                .enumerate()
                .map(|(i, &(a, take))| batch(d, a, take, &format!("new-{i}")))
                .collect();
            let (gen1, _) = gen0.ingest(&batches).unwrap();
            assert_eq!(gen1.n_authors(), gen0.n_authors() + batches.len());

            let fresh = rebuilt_engine(&gen1, x_total);
            let tweets = author_tweets(d, query_author, 6);
            let want = link_one(&fresh, &tweets);
            let got = link_one(&gen1.engine(), &tweets);
            assert_eq!(want.query_index, got.query_index);
            assert_eq!(&want.similarities, &got.similarities);
            assert_eq!(&want.subgraph, &got.subgraph);
            assert_eq!(want.subgraph_avg_weight, got.subgraph_avg_weight);
        });
    }

    /// Single-author ingest chains that start at `TILE − 1`, `TILE` and
    /// `TILE + 1` authors — the tail chunk one row short of full, full,
    /// and just opened — keep the delta engine bit-identical to the
    /// rebuilt engine after every step.
    #[test]
    fn chained_ingests_across_chunk_boundaries_match_rebuilt_engine() {
        let (d, snapshot, x_total) = fitted_shared();
        let gen0 = EngineGeneration::from_snapshot(snapshot.clone(), EngineMode::Exact).unwrap();
        let tweets = author_tweets(d, 5, 7);
        for start in [TILE - 1, TILE, TILE + 1] {
            let (mut generation, _) = gen0
                .ingest(&grow_batches(d, gen0.n_authors(), start))
                .unwrap();
            assert_eq!(generation.n_authors(), start);
            for step in 0..3u32 {
                let handle = format!("chain-{start}-{step}");
                let (next, _) = generation
                    .ingest(&[batch(d, (step * 7 + 3) % 18, 8, &handle)])
                    .unwrap();
                generation = next;
                let fresh = rebuilt_engine(&generation, x_total);
                let delta = generation.engine();
                assert_eq!(fresh.cut().base_edges(), delta.cut().base_edges());
                let (want, got) = (link_one(&fresh, &tweets), link_one(&delta, &tweets));
                assert_eq!(want.similarities, got.similarities, "{handle}");
                assert_eq!(want.subgraph, got.subgraph, "{handle}");
                assert_eq!(want.subgraph_avg_weight, got.subgraph_avg_weight);
            }
        }
    }

    /// One new author per index in `from..to`, each with six tweets of a
    /// dataset author (cycling through them).
    fn grow_batches(d: &Dataset, from: usize, to: usize) -> Vec<IngestBatch> {
        (from..to)
            .map(|i| batch(d, (i % 18) as u32, 6, &format!("grow-{i}")))
            .collect()
    }

    /// The four row stores a generation holds: the snapshot's raw content
    /// and concept rows and the engine's unit rows.
    fn row_stores(generation: &EngineGeneration) -> [&ChunkedRows; 4] {
        [
            &generation.snapshot.author_content,
            &generation.snapshot.author_concept,
            &generation.parts.content_rows,
            &generation.parts.concept_rows,
        ]
    }

    /// A delta ingest copies only what grows: every generation in a
    /// chain shares the first one's vocabulary and collective embedding,
    /// and each single-author ingest shares every full chunk of its
    /// parent's rows, owning at most one chunk per matrix. A retired
    /// generation releases its references, so the strong counts equal the
    /// number of live generations.
    #[test]
    fn generations_share_frozen_state_and_retired_ones_are_freed() {
        let (d, shared, _) = fitted_shared();
        // Fresh `Arc`s, so no other test's generations are counted.
        let mut snapshot = shared.clone();
        snapshot.vocab = Arc::new((*shared.vocab).clone());
        snapshot.collective = Arc::new((*shared.collective).clone());
        let vocab = Arc::downgrade(&snapshot.vocab);
        let collective = Arc::downgrade(&snapshot.collective);

        let gen0 = EngineGeneration::from_snapshot(snapshot, EngineMode::Exact).unwrap();
        // Up to one row short of a full chunk, then across the boundary
        // one author at a time.
        let (base, _) = gen0
            .ingest(&grow_batches(d, gen0.n_authors(), TILE - 1))
            .unwrap();
        let mut chain = vec![base];
        for (i, source) in [1u32, 4, 9].into_iter().enumerate() {
            let parent = &chain[i];
            let (child, _) = parent
                .ingest(&[batch(d, source, 6, &format!("chain-{i}"))])
                .unwrap();
            for (p, c) in row_stores(parent).into_iter().zip(row_stores(&child)) {
                assert_eq!(c.rows(), p.rows() + 1);
                for full in 0..p.rows() / TILE {
                    assert!(Arc::ptr_eq(&p.chunks()[full], &c.chunks()[full]));
                }
                let owned = c.chunks().iter().filter(|ch| Arc::strong_count(ch) == 1);
                assert!(owned.count() <= 1, "ingest {i} owns more than its tail");
            }
            chain.push(child);
        }
        let first = gen0.snapshot();
        for generation in &chain {
            assert!(Arc::ptr_eq(&generation.snapshot().vocab, &first.vocab));
            assert!(Arc::ptr_eq(
                &generation.snapshot().collective,
                &first.collective
            ));
        }
        assert_eq!(vocab.strong_count(), 5);
        assert_eq!(collective.strong_count(), 5);
        let last = &chain[3];
        assert_eq!(last.n_authors(), TILE + 2);
        assert_eq!(
            last.snapshot().author_handles.get(TILE + 1),
            Some("chain-2")
        );

        // The first full chunk of each matrix was filled by the ingest
        // into `chain[1]` and is read by it and both later generations.
        let full_chunks: Vec<_> = row_stores(last)
            .into_iter()
            .map(|rows| Arc::downgrade(&rows.chunks()[0]))
            .collect();
        assert!(full_chunks.iter().all(|w| w.strong_count() == 3));
        let last = chain.pop().unwrap();
        drop((gen0, chain));
        assert_eq!(vocab.strong_count(), 1);
        assert_eq!(collective.strong_count(), 1);
        assert!(full_chunks.iter().all(|w| w.strong_count() == 1));
        drop(last);
        assert!(vocab.upgrade().is_none() && collective.upgrade().is_none());
        assert!(full_chunks.iter().all(|w| w.upgrade().is_none()));
    }

    #[test]
    fn quant_generation_rebuilds_quant_state_on_ingest() {
        let (d, snapshot, _) = fitted_shared();
        let gen0 =
            EngineGeneration::from_snapshot(snapshot.clone(), EngineMode::Quant { rerank: 0 })
                .unwrap();
        assert!(gen0.engine().quant_enabled());
        let (gen1, _) = gen0.ingest(&[batch(d, 3, 8, "q-new")]).unwrap();
        assert!(gen1.engine().quant_enabled(), "mode survives the delta");

        // The rebuilt quantized state serves exactly like a fresh
        // quantized engine over the grown snapshot.
        let fresh = gen1
            .snapshot()
            .query_engine(EngineMode::Quant { rerank: 0 })
            .unwrap();
        let tweets = author_tweets(d, 8, 6);
        let want = link_one(&fresh, &tweets);
        let got = link_one(&gen1.engine(), &tweets);
        assert_eq!(want.similarities, got.similarities);
        assert_eq!(want.subgraph, got.subgraph);
    }

    #[test]
    fn ivf_generation_detaches_index_on_ingest() {
        let (d, snapshot, _) = fitted_shared();
        let gen0 = EngineGeneration::from_snapshot(snapshot.clone(), EngineMode::Ivf { nprobe: 0 })
            .unwrap();
        assert!(gen0.engine().index().is_some());
        let (gen1, _) = gen0.ingest(&[batch(d, 6, 8, "ivf-new")]).unwrap();
        assert!(
            gen1.engine().index().is_none(),
            "stale index must not route queries over the grown model"
        );
        assert_eq!(gen1.mode(), EngineMode::Ivf { nprobe: 0 });
        // The IVF plan still answers (exact fallback), correctly.
        let tweets = author_tweets(d, 1, 6);
        let want = link_one(&gen1.engine().with_mode(EngineMode::Exact), &tweets);
        let got = link_one(&gen1.engine(), &tweets);
        assert_eq!(want.similarities, got.similarities);
    }

    #[test]
    fn ingest_rejects_empty_and_unvectorizable_batches() {
        let (_, snapshot, _) = fitted_shared();
        let gen0 = EngineGeneration::from_snapshot(snapshot.clone(), EngineMode::Exact).unwrap();
        assert!(matches!(gen0.ingest(&[]), Err(CoreError::Invalid(_))));
        let no_tweets = IngestBatch {
            handle: "empty".into(),
            tweets: vec![],
        };
        assert!(gen0.ingest(&[no_tweets]).is_err());
        let oov = IngestBatch {
            handle: "oov".into(),
            tweets: vec![(Timestamp(0), "zzzzqqqq xxxxyyyy".into())],
        };
        assert!(gen0.ingest(&[oov]).is_err());
    }

    #[test]
    fn engine_cell_swaps_generations_atomically() {
        let (d, snapshot, _) = fitted_shared();
        let gen0 = EngineGeneration::from_snapshot(snapshot.clone(), EngineMode::Exact).unwrap();
        let n0 = gen0.n_authors();
        let cell = EngineCell::new(gen0);
        assert_eq!(cell.generation(), 0);

        let held = cell.current(); // an in-flight request's view
        let (gen1, _) = held.ingest(&[batch(d, 4, 8, "swap-new")]).unwrap();
        assert_eq!(cell.publish(gen1), 1);
        assert_eq!(cell.generation(), 1);
        // The in-flight view still serves the old, consistent state...
        assert_eq!(held.n_authors(), n0);
        // ...while new requests see the published generation.
        assert_eq!(cell.current().n_authors(), n0 + 1);
    }

    #[test]
    fn zero_interval_trigger_never_fires_through_refit_manager() {
        let (d, _, _) = fitted_shared();
        let manager = RefitManager::new(
            d.clone(),
            PipelineConfig::fast(),
            Trigger::new(0),
            EngineMode::Exact,
            None,
        );
        for i in 0..50 {
            assert!(
                !manager.absorb(&[batch(d, i % 18, 10, &format!("t-{i}"))]),
                "interval=0 must never schedule a refit"
            );
        }
        assert_eq!(manager.times_fired(), 0);
        assert_eq!(manager.pending(), 0, "interval=0 accumulates nothing");
    }

    #[test]
    fn refit_manager_fires_on_interval_and_refits_grown_dataset() {
        let (d, _, _) = fitted_shared();
        let n0 = d.authors.len();
        let manager = RefitManager::new(
            d.clone(),
            PipelineConfig::fast(),
            Trigger::new(12),
            EngineMode::Exact,
            None,
        );
        // 8 tweets: below the interval — no firing yet.
        assert!(!manager.absorb(&[batch(d, 0, 8, "r-0")]));
        assert_eq!(manager.pending(), 8);
        // 8 more crosses 12 with overshoot 4.
        assert!(manager.absorb(&[batch(d, 1, 8, "r-1")]));
        assert_eq!(manager.pending(), 4);
        assert_eq!(manager.times_fired(), 1);

        let gen = manager.refit().unwrap();
        assert_eq!(gen.n_authors(), n0 + 2, "refit sees the grown dataset");
        assert_eq!(gen.mode(), EngineMode::Exact);
        // The refit generation serves (its embedding is fresh, so only
        // behaviourally checked — not bit-compared against the delta).
        let out = link_one(&gen.engine(), &author_tweets(d, 2, 6));
        assert_eq!(out.query_index, n0 + 2);
    }

    #[test]
    fn refit_persists_snapshot_via_binary_writer() {
        let (d, _, _) = fitted_shared();
        let mut path = std::env::temp_dir();
        path.push(format!("soulmate-refit-test-{}.bin", std::process::id()));
        let manager = RefitManager::new(
            d.clone(),
            PipelineConfig::fast(),
            Trigger::new(1),
            EngineMode::Exact,
            Some(path.clone()),
        );
        assert!(manager.absorb(&[batch(d, 5, 4, "persist-me")]));
        let gen = manager.refit().unwrap();
        let loaded = PipelineSnapshot::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.author_handles, gen.snapshot().author_handles);
        assert_eq!(loaded.author_handles.iter().last(), Some("persist-me"));
    }
}
