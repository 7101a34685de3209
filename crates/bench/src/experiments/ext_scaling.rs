//! Extension — efficiency scaling: offline fit time and online query
//! latency as the author count grows.
//!
//! The paper motivates the offline/online split with "our online author
//! linking framework must handle millions of the short-text contents";
//! this experiment measures both sides of the split across corpus sizes.

use crate::args::ExpArgs;
use crate::setup::{default_dataset, default_pipeline_config};
use soulmate_core::{link_query, Pipeline};
use soulmate_corpus::Timestamp;
use soulmate_eval::TextTable;
use std::time::Instant;

/// Run the experiment and return the report.
pub fn run(args: &ExpArgs) -> String {
    let mut table = TextTable::new([
        "authors",
        "tweets",
        "vocab",
        "slab models",
        "offline fit",
        "online query",
    ]);
    for scale in [0.25f32, 0.5, 1.0] {
        let sized = ExpArgs {
            // truncating the scaled f32 count is intended; .max(10) keeps it sane
            authors: ((args.authors as f32 * scale) as usize).max(10),
            ..args.clone()
        };
        let dataset = default_dataset(&sized);
        let start = Instant::now();
        let pipeline =
            Pipeline::fit(&dataset, default_pipeline_config(&sized)).expect("pipeline fits");
        let fit_time = start.elapsed();

        // Online latency: a cold-start query with 5 tweets, averaged.
        let query: Vec<(Timestamp, String)> = dataset
            .tweets
            .iter()
            .take(5)
            .map(|t| (t.timestamp, t.text.clone()))
            .collect();
        let runs = 20;
        let start = Instant::now();
        for _ in 0..runs {
            link_query(&pipeline.query_model(), &pipeline.x_total, &query).expect("query links");
        }
        let query_time = start.elapsed() / runs;

        table.row([
            sized.authors.to_string(),
            dataset.n_tweets().to_string(),
            pipeline.corpus.vocab.len().to_string(),
            pipeline.temporal.slab_index().total_slabs().to_string(),
            format!("{:.1}s", fit_time.as_secs_f32()),
            format!("{:.1}ms", query_time.as_secs_f64() * 1000.0),
        ]);
    }

    let mut out = String::new();
    out.push_str("Extension — offline/online scaling with corpus size\n\n");
    out.push_str(&table.render());
    out.push_str(
        "\nThe offline fit grows with the corpus (slab training dominates);\n\
         the online query stays in the low milliseconds because it only\n\
         touches precomputed vectors — the paper's architectural argument\n\
         for the offline/online split.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "fits full pipelines; run with `cargo test --release -- --ignored`"]
    fn report_scales_three_sizes() {
        let args = ExpArgs {
            authors: 24,
            tweets_per_author: 15,
            concepts: 4,
            dim: 10,
            epochs: 1,
            ..Default::default()
        };
        let report = run(&args);
        assert!(report.contains("offline fit"));
        assert!(report.contains("online query"));
        assert!(report.lines().filter(|l| l.contains("ms")).count() >= 3);
    }
}
