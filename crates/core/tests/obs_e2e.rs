//! End-to-end observability coverage: one `Pipeline::fit` plus one
//! [`QueryEngine`] query must leave the expected stage timings and
//! serving-path metrics in the process-global registry.
//!
//! The registry is shared across every test in the process, so all
//! assertions are presence / monotone-growth checks, never exact totals —
//! except for the binary loader's histograms, which only
//! `binary_load_stages_split_the_load` records in this process.

use soulmate_core::{EngineMode, Pipeline, PipelineConfig, PipelineSnapshot};
use soulmate_corpus::{generate, GeneratorConfig, Timestamp};
use std::path::Path;

#[test]
fn fit_and_query_populate_expected_metric_names() {
    let obs = soulmate_obs::global();
    let queries_before = obs.counter("engine.queries");

    let dataset = generate(&GeneratorConfig {
        n_authors: 14,
        n_communities: 3,
        n_concepts: 4,
        entities_per_concept: 8,
        mean_tweets_per_author: 20,
        ..GeneratorConfig::small()
    })
    .unwrap();
    let pipeline = Pipeline::fit(&dataset, PipelineConfig::fast()).unwrap();

    // Every fit stage span recorded its histogram.
    let expected_stages = [
        "stage.fit.seconds",
        "stage.fit.encode.seconds",
        "stage.fit.analogy_suite.seconds",
        "stage.fit.tcbow.seconds",
        "stage.fit.collective.seconds",
        "stage.fit.tweet_vectors.seconds",
        "stage.fit.concepts.seconds",
        "stage.fit.author_vectors.seconds",
        "stage.fit.similarity.seconds",
        "stage.fit.fusion.seconds",
    ];
    for name in expected_stages {
        let h = obs
            .histogram(name)
            .unwrap_or_else(|| panic!("histogram {name} missing after fit"));
        assert!(h.count >= 1, "{name} recorded no samples");
        assert!(h.sum >= 0.0 && h.sum.is_finite());
    }

    // Worker-thread and kernel metrics from the fit.
    assert!(obs.counter("fit.runs") >= 1);
    assert!(obs.counter("tcbow.slabs_trained") >= 1);
    assert!(obs.histogram("tcbow.slab_train.seconds").is_some());
    assert!(obs.histogram("similarity.matrix.seconds").is_some());
    assert!(obs.counter("kernels.gram.calls") + obs.counter("kernels.gram_par.calls") >= 1);

    // One engine query populates the serving-path metrics.
    let engine = pipeline.query_engine(EngineMode::Exact).unwrap();
    let tweets: Vec<(Timestamp, String)> = dataset
        .tweets
        .iter()
        .filter(|t| t.author == 1)
        .take(5)
        .map(|t| (t.timestamp, t.text.clone()))
        .collect();
    engine.link_query_authors(&[tweets]).unwrap();

    assert!(obs.histogram("engine.build.seconds").is_some());
    let latency = obs
        .histogram("engine.query.seconds")
        .expect("per-query latency histogram");
    assert!(latency.count >= 1);
    assert!(obs.counter("engine.queries") > queries_before);
    // The cut counts the edges it examines.
    assert!(obs.counter("engine.edges_examined") >= 1);
}

#[test]
fn binary_load_stages_split_the_load() {
    let obs = soulmate_obs::global();
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v3_schema3.bin");
    let loads = 3;
    for _ in 0..loads {
        PipelineSnapshot::load(&fixture).unwrap();
    }
    let total = obs
        .histogram("snapshot.load_binary.seconds")
        .expect("binary load histogram");
    assert_eq!(total.count, loads);
    let mut stage_sum = 0.0;
    for stage in ["read", "checksum", "decode", "assemble"] {
        let h = obs
            .histogram(&format!("snapshot.load_binary.{stage}.seconds"))
            .unwrap_or_else(|| panic!("stage {stage} missing"));
        assert_eq!(h.count, loads, "{stage}");
        assert!(h.sum >= 0.0 && h.sum.is_finite(), "{stage}");
        stage_sum += h.sum;
    }
    // Disjoint spans of one load: together no longer than the load
    // (up to float rounding of the per-stage seconds).
    assert!(
        stage_sum <= total.sum * (1.0 + 1e-9),
        "stages {stage_sum} s > load {} s",
        total.sum
    );
}
