//! Workspace integration tests: the full SoulMate pipeline across crates.

use soulmate::core::author_similarity;
use soulmate::prelude::*;

fn dataset() -> Dataset {
    generate(&GeneratorConfig {
        n_authors: 24,
        n_communities: 4,
        mean_tweets_per_author: 30,
        ..GeneratorConfig::small()
    })
    .expect("valid config")
}

#[test]
fn full_pipeline_end_to_end() {
    let d = dataset();
    let p = Pipeline::fit(&d, PipelineConfig::fast()).expect("fit");

    // Offline artifacts are shape-consistent.
    assert_eq!(p.n_authors(), d.n_authors());
    assert_eq!(p.tweet_vectors.rows(), p.corpus.tweets.len());
    assert!(p.concepts.n_concepts() > 0);

    // Graph cut covers every author.
    let forest = p.subgraphs().expect("cut");
    let covered: usize = forest.components().iter().map(Vec::len).sum();
    assert_eq!(covered, d.n_authors());

    // Online phase works from the same fitted state.
    let query: Vec<(Timestamp, String)> = d
        .tweets
        .iter()
        .filter(|t| t.author == 1)
        .take(6)
        .map(|t| (t.timestamp, t.text.clone()))
        .collect();
    let outcome = p
        .query_engine(EngineMode::Exact)
        .expect("engine")
        .link_query_authors(&[query])
        .expect("query")
        .remove(0);
    assert!(outcome.subgraph.contains(&outcome.query_index));
}

#[test]
fn pipeline_is_deterministic_across_fits() {
    let d = dataset();
    let a = Pipeline::fit(&d, PipelineConfig::fast()).expect("fit a");
    let b = Pipeline::fit(&d, PipelineConfig::fast()).expect("fit b");
    assert_eq!(a.x_total, b.x_total);
    assert_eq!(
        a.collective.matrix().as_slice(),
        b.collective.matrix().as_slice()
    );
}

/// TCBOW trains its slab models on worker threads; how many must not
/// change the model. Fits with one and with four threads save model files
/// with the same bytes.
#[test]
fn fits_with_one_and_four_tcbow_threads_save_identical_model_files() {
    let d = dataset();
    let save = |threads: usize| -> Vec<u8> {
        let mut config = PipelineConfig::fast();
        config.tcbow.threads = threads;
        let p = Pipeline::fit(&d, config).expect("fit");
        let path = std::env::temp_dir().join(format!(
            "soulmate-tcbow-threads-{threads}-{}.bin",
            std::process::id()
        ));
        p.snapshot(&[]).save_binary(&path, false).expect("save");
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        bytes
    };
    let one = save(1);
    let four = save(4);
    assert!(
        one == four,
        "fits with 1 and 4 TCBOW threads saved different model files ({} vs {} bytes)",
        one.len(),
        four.len()
    );
}

#[test]
fn all_baselines_produce_valid_similarity_matrices() {
    let d = dataset();
    let p = Pipeline::fit(&d, PipelineConfig::fast()).expect("fit");
    let ctx = p.baseline_context().expect("comparator trains");
    let n = p.n_authors();
    for method in [
        Method::SoulMateConcept,
        Method::SoulMateContent,
        Method::SoulMateJoint { alpha: 0.6 },
        Method::TemporalCollective { zeta: 5 },
        Method::CbowEnriched { zeta: 5 },
        Method::DocumentVector,
        Method::ExactMatching,
    ] {
        let sim = author_similarity(&ctx, method).expect("method computes");
        assert_eq!(sim.len(), n, "{} wrong size", method.name());
        for (i, row) in sim.iter().enumerate() {
            assert_eq!(row.len(), n);
            for (j, &s) in row.iter().enumerate() {
                assert!(s.is_finite(), "{}[{i}][{j}] not finite", method.name());
                assert!(
                    (sim[j][i] - s).abs() < 1e-5,
                    "{} not symmetric at ({i},{j})",
                    method.name()
                );
            }
        }
        // Each baseline's matrix must feed the graph cut without error.
        let forest = p.subgraphs_for(&sim).expect("cut");
        assert_eq!(forest.components().iter().map(Vec::len).sum::<usize>(), n);
    }
}

#[test]
#[allow(clippy::needless_range_loop)] // mirrored (i,j)/(j,i) access
fn joint_similarity_interpolates_between_standardized_parts() {
    use soulmate::core::similarity::standardize_offdiagonal;
    let d = dataset();
    let p = Pipeline::fit(&d, PipelineConfig::fast()).expect("fit");
    let ctx = p.baseline_context().expect("comparator trains");
    let concept = author_similarity(&ctx, Method::SoulMateConcept).unwrap();
    let content = author_similarity(&ctx, Method::SoulMateContent).unwrap();
    let joint = author_similarity(&ctx, Method::SoulMateJoint { alpha: 0.6 }).unwrap();
    // The fusion standardizes both views (common scale) before Eq 17.
    let zc = standardize_offdiagonal(&concept, p.concept_stats.0, p.concept_stats.1);
    let zt = standardize_offdiagonal(&content, p.content_stats.0, p.content_stats.1);
    for i in 0..p.n_authors() {
        for j in 0..p.n_authors() {
            if i == j {
                continue;
            }
            let expect = 0.6 * zc[i][j] + 0.4 * zt[i][j];
            assert!(
                (joint[i][j] - expect).abs() < 1e-4,
                "({i},{j}): {} vs {expect}",
                joint[i][j]
            );
        }
    }
    // The pipeline's own fused matrix is the same recipe, exactly.
    let fitted = author_similarity(
        &ctx,
        Method::SoulMateJoint {
            alpha: p.config.alpha,
        },
    )
    .unwrap();
    assert_eq!(fitted, p.x_total);
}
