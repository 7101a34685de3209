//! Library backing the `soulmate` CLI binary. Command logic lives here so
//! it can be unit-tested without spawning processes.

// 100% safe Rust; soulmate-lint's `no-unsafe` rule double-checks this
// guarantee at the token level.
#![forbid(unsafe_code)]
// The no-panic guarantee of the serving path (DESIGN.md §12): every
// failure — bad flags, unreadable files, corrupt snapshots — must surface
// as a typed `CliError` that `main` prints as `error: <cause>` with a
// non-zero exit, never as a backtrace. Tests are exempt.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use soulmate_bench::ExpArgs;
use soulmate_core::{
    EngineCell, EngineGeneration, EngineMode, IngestBatch, Pipeline, PipelineSnapshot,
    RefitManager, Trigger,
};
use soulmate_corpus::{generate, io as corpus_io, GeneratorConfig, Timestamp};
use soulmate_graph::swmst_from_sorted;
use soulmate_temporal::{similarity_grid, slabs_from_grid, Facet};
use soulmate_text::TokenizerConfig;
use std::fmt;
use std::io::{Read, Write};
use std::path::Path;

mod flags;
pub use flags::Flags;

/// CLI failure modes.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation; the message is the usage text.
    Usage(String),
    /// A command failed while executing.
    Failed(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Failed(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

const USAGE: &str = "soulmate — short-text author linking (SoulMate reproduction)

USAGE:
  soulmate generate  --out <data.json> [--authors N] [--tweets N] [--concepts N] [--seed N]
  soulmate fit       --data <data.json> --out <model.bin> [--dim N] [--epochs N] [--alpha X]
                     [--seed N] [--metrics <metrics.json>] [--stats]
  soulmate subgraphs --model <model.bin> [--top N]
  soulmate link      --model <model.bin> --tweets <tweets.txt> [--multi]
                     [--ivf [--nprobe N]] [--metrics <metrics.json>] [--stats]
  soulmate serve     --model <model.bin> [--port N] [--host H] [--threads N]
                     [--queue N] [--max-body BYTES] [--ivf [--nprobe N]]
                     [--refit-data <data.json> --refit-interval N
                     [--snapshot-out <model.bin>] [--dim N] [--epochs N] [--seed N]]
  soulmate ingest    --model <model> --tweets <tweets.txt> --out <model.bin>
                     [--handles a,b,c]
  soulmate convert   --model <model> --out <model.bin> [--quantize]
  soulmate inspect   --model <model> [--json]
  soulmate slabs     --data <data.json> [--threshold X]
  soulmate eval      --data <data.json> [--dim N] [--epochs N] [--seed N] [--k N]
  soulmate experiment <id> [--authors N] [--tweets N] [--seed N] [--dim N] [--epochs N]
  soulmate stats     [--json]

`generate --tweets N` sets the mean number of tweets per author (default
60), not the corpus total.

`--metrics <path>` dumps the process metrics registry (stage timings,
query latency histograms, kernel block counters) as JSON after the
command finishes; `fit --stats` / `link --stats` and the `stats` command
print the same registry as a table (stats: `--json` for JSON).

The tweets file for `link` holds one tweet per line; an optional leading
`<minute-of-year><TAB>` sets the timestamp (defaults to minute 0). With
`--multi`, blank lines split the file into one tweet group per query
author and the whole batch is served from one precomputed engine. With
`--ivf`, candidates are retrieved through an IVF index built at load
time and only candidates are scored exactly; `--nprobe N` widens the
probe (0 or absent = index default) and is only meaningful with `--ivf`.

`fit`, `ingest` and `convert` write the v3 binary format; `convert`
migrates any readable snapshot, legacy v1/v2 JSON included (DESIGN.md
§16). The input format and version are detected
automatically, `--quantize` stores the author matrices as per-row i8
(a storage encoding: the loader turns them back into `f32` rows, and
every query plan serves a quantized file like any other).
`inspect` prints a binary snapshot's validated section table from the
header alone — no payload byte is read — and summarizes legacy JSON
snapshots (`--json` for machine-readable output in both cases).

`serve` loads the snapshot once and answers `link` queries over HTTP
until `POST /shutdown` (DESIGN.md §15): NDJSON queries on POST /link,
new authors on POST /ingest (delta-composed against the frozen
embedding and hot-swapped in, DESIGN.md §17), metrics JSON on GET
/metrics, liveness on GET /healthz. Defaults: port 7878, loopback host,
4 threads, queue depth 64, 1 MiB body cap. With `--refit-data` +
`--refit-interval N`, every N ingested tweets schedule a background
full refit over the growing dataset whose result replaces the serving
generation without dropping requests; `--snapshot-out` persists each
refit snapshot (binary format, atomic rename), and `--dim`/`--epochs`/
`--seed` shape the refit fits like `fit`.

`ingest` grows a snapshot offline with the same frozen-embedding delta
path: the tweets file holds one blank-line-separated group per new
author (`--handles` names them, default ingested-<row> after the
author's row in the grown model), and the grown snapshot is written
to `--out`.
Experiment ids: fig1 fig3 fig4 fig8 fig9 fig10 fig11 table5 table6 table7
ext_popularity ext_community ext_ablation ext_btcbow ext_scaling
ext_retrieval.";

/// One subcommand body.
type Command<W> = fn(&Flags, &mut W) -> Result<(), CliError>;

/// Execute a CLI invocation, writing human output to `out`.
///
/// Each command lists the flags it accepts; any other flag is a usage
/// error raised before the command starts, so before any file I/O — a
/// typo (`--nprob 4`) or a retired flag (`--format`) is never silently
/// ignored. `experiment` parses its own arguments.
///
/// # Errors
/// [`CliError::Usage`] for malformed invocations, [`CliError::Failed`] for
/// runtime failures.
pub fn run<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage(USAGE.to_string()));
    };
    let flags = Flags::parse(args.get(1..).unwrap_or(&[]));
    let (known, body): (&str, Command<W>) = match command.as_str() {
        "generate" => ("out authors tweets concepts communities seed", cmd_generate),
        "fit" => ("data out seed dim epochs alpha metrics stats", cmd_fit),
        "subgraphs" => ("model top", cmd_subgraphs),
        "link" => ("model tweets multi ivf nprobe metrics stats", cmd_link),
        "serve" => (
            "model port host threads queue max-body ivf nprobe refit-data \
             refit-interval snapshot-out seed dim epochs",
            cmd_serve,
        ),
        "ingest" => ("model tweets out handles", cmd_ingest),
        "slabs" => ("data threshold", cmd_slabs),
        "convert" => ("model out quantize", cmd_convert),
        "inspect" => ("model json", cmd_inspect),
        "eval" => ("data seed dim epochs k", cmd_eval),
        "stats" => ("json", cmd_stats),
        "experiment" => return cmd_experiment(args.get(1), args.get(1..).unwrap_or(&[]), out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}").ok();
            return Ok(());
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown command `{other}`\n\n{USAGE}"
            )))
        }
    };
    flags.reject_unknown(command, known)?;
    body(&flags, out)
}

fn cmd_generate<W: Write>(flags: &Flags, out: &mut W) -> Result<(), CliError> {
    let path = flags.require_path("out")?;
    let n_authors = flags.get_usize("authors")?.unwrap_or(120);
    let config = GeneratorConfig {
        seed: flags.get_u64("seed")?.unwrap_or(42),
        n_authors,
        n_communities: flags
            .get_usize("communities")?
            .unwrap_or_else(|| (n_authors / 15).clamp(2, 16)),
        n_concepts: flags.get_usize("concepts")?.unwrap_or(8),
        mean_tweets_per_author: flags.get_usize("tweets")?.unwrap_or(60),
        ..Default::default()
    };
    let dataset = generate(&config).map_err(|e| CliError::Failed(e.to_string()))?;
    corpus_io::save_json(&dataset, &path).map_err(|e| CliError::Failed(e.to_string()))?;
    writeln!(
        out,
        "wrote {} ({} authors, {} tweets, seed {})",
        path.display(),
        dataset.n_authors(),
        dataset.n_tweets(),
        config.seed
    )
    .ok();
    Ok(())
}

fn cmd_fit<W: Write>(flags: &Flags, out: &mut W) -> Result<(), CliError> {
    let data = flags.require_path("data")?;
    let model_path = flags.require_path("out")?;
    let dataset = corpus_io::load_json(&data).map_err(|e| CliError::Failed(e.to_string()))?;

    let exp = ExpArgs {
        authors: dataset.n_authors(),
        seed: flags.get_u64("seed")?.unwrap_or(42),
        dim: flags.get_usize("dim")?.unwrap_or(40),
        epochs: flags.get_usize("epochs")?.unwrap_or(4),
        ..Default::default()
    };
    let mut config = soulmate_bench::default_pipeline_config(&exp);
    if let Some(alpha) = flags.get_f32("alpha")? {
        config.alpha = alpha;
    }
    let started = std::time::Instant::now();
    let pipeline = Pipeline::fit(&dataset, config).map_err(|e| CliError::Failed(e.to_string()))?;
    let handles: Vec<String> = dataset.authors.iter().map(|a| a.handle.clone()).collect();
    let snapshot = pipeline.snapshot(&handles);
    snapshot
        .save_binary(&model_path, false)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    writeln!(
        out,
        "fitted in {:.1}s: vocab {}, {} concepts, {} temporal slabs -> {}",
        started.elapsed().as_secs_f32(),
        pipeline.corpus.vocab.len(),
        pipeline.concepts.n_concepts(),
        pipeline.temporal.slab_index().total_slabs(),
        model_path.display()
    )
    .ok();
    emit_metrics(flags, out)
}

fn cmd_subgraphs<W: Write>(flags: &Flags, out: &mut W) -> Result<(), CliError> {
    // Flags are validated before any file I/O so a malformed value is a
    // Usage error even when the model path is bad too.
    let top = flags.get_usize("top")?.unwrap_or(10);
    let model = load_model(flags)?;
    // SW-MST over the cut's backbone, which holds the base graph's
    // maximum spanning forest: the same forest as over the whole
    // sparsified graph (DESIGN.md §10, facts 1–2).
    let cut = &model.cut;
    let forest = swmst_from_sorted(cut.n_authors(), cut.base_edges().iter().copied());
    let mut components = forest.components();
    components.sort_by_key(|c| std::cmp::Reverse(c.len()));
    writeln!(out, "{} linked-author subgraphs:", components.len()).ok();
    for (i, group) in components.iter().take(top).enumerate() {
        let names: Vec<&str> = group.iter().map(|&a| handle_of(&model, a)).collect();
        writeln!(
            out,
            "  #{i} ({} authors, avg weight {:.3}): {}",
            group.len(),
            forest.component_avg_weight(group),
            names.join(", ")
        )
        .ok();
    }
    Ok(())
}

/// Parse and cross-validate the shared retrieval flags into the plan
/// `link`/`serve` answer with. A tuning flag for a strategy that is not
/// selected would be silently ignored; like `--seed banana`, that
/// footgun is rejected loudly instead.
fn parse_retrieval(flags: &Flags) -> Result<EngineMode, CliError> {
    let ivf = flags.has("ivf");
    if flags.has("nprobe") && !ivf {
        return Err(CliError::Usage(
            "--nprobe only applies to IVF retrieval; add --ivf".into(),
        ));
    }
    if ivf {
        Ok(EngineMode::Ivf {
            nprobe: flags.get_usize("nprobe")?.unwrap_or(0),
        })
    } else {
        Ok(EngineMode::Exact)
    }
}

fn cmd_link<W: Write>(flags: &Flags, out: &mut W) -> Result<(), CliError> {
    // Both required flags are checked before the (expensive) model load.
    let tweets_path = flags.require_path("tweets")?;
    let mode = parse_retrieval(flags)?;
    let model = load_model(flags)?;
    // All the query-independent work (row normalization, sparsification,
    // edge sorting) happens once here; each query then merges into the
    // cached cut. With `--ivf` the engine additionally builds a
    // candidate index.
    let engine = model
        .query_engine(mode)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let multi = flags.has("multi");
    let groups = if multi {
        read_tweet_groups(&tweets_path)?
    } else {
        vec![read_tweets_file(&tweets_path)?]
    };
    let outcomes = engine
        .link_query_authors(&groups)
        .map_err(|e| CliError::Failed(e.to_string()))?;

    if multi {
        writeln!(out, "linked {} query authors:", outcomes.len()).ok();
        for (i, outcome) in outcomes.iter().enumerate() {
            let mates: Vec<&str> = outcome
                .subgraph
                .iter()
                .filter(|&&a| a != outcome.query_index)
                .map(|&a| handle_of(&model, a))
                .collect();
            writeln!(
                out,
                "  query #{i}: subgraph of {} nodes (avg weight {:.3}) linked with: {}",
                outcome.subgraph.len(),
                outcome.subgraph_avg_weight,
                mates.join(", ")
            )
            .ok();
        }
        return emit_metrics(flags, out);
    }

    let outcome = outcomes
        .first()
        .ok_or_else(|| CliError::Failed("one query in, one outcome out".into()))?;
    writeln!(
        out,
        "query author joined a subgraph of {} nodes (avg edge weight {:.3})",
        outcome.subgraph.len(),
        outcome.subgraph_avg_weight
    )
    .ok();
    let mut ranked: Vec<(usize, f32)> = outcome.similarities.iter().copied().enumerate().collect();
    // total_cmp: a NaN similarity must rank, not panic the serving path.
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    writeln!(out, "most similar authors:").ok();
    for (a, s) in ranked.into_iter().take(5) {
        writeln!(out, "  {} (similarity {s:.3})", handle_of(&model, a)).ok();
    }
    let mates: Vec<&str> = outcome
        .subgraph
        .iter()
        .filter(|&&a| a != outcome.query_index)
        .map(|&a| handle_of(&model, a))
        .collect();
    writeln!(out, "linked with: {}", mates.join(", ")).ok();
    emit_metrics(flags, out)
}

/// `soulmate serve`: load the snapshot once, build the initial engine
/// generation once, then answer queries over HTTP until `POST
/// /shutdown` drains the server (DESIGN.md §15). `/ingest` grows the
/// serving generation in place; with `--refit-data` +
/// `--refit-interval` a background refit manager periodically rebuilds
/// from scratch and hot-swaps the result in (DESIGN.md §17).
fn cmd_serve<W: Write>(flags: &Flags, out: &mut W) -> Result<(), CliError> {
    // Every flag is validated before the (expensive) snapshot read —
    // the PR 4 contract: usage errors exit 2 before any file I/O.
    flags.require_path("model")?;
    let port = flags.get_u16("port")?.unwrap_or(7878);
    let host = flags.get("host").unwrap_or("127.0.0.1").to_string();
    let threads = flags.get_usize("threads")?.unwrap_or(4);
    if threads == 0 {
        return Err(CliError::Usage("--threads must be at least 1".into()));
    }
    let queue_depth = flags.get_usize("queue")?.unwrap_or(64);
    if queue_depth == 0 {
        return Err(CliError::Usage("--queue must be at least 1".into()));
    }
    let max_body_bytes = flags.get_usize("max-body")?.unwrap_or(1 << 20);
    if max_body_bytes == 0 {
        return Err(CliError::Usage("--max-body must be at least 1".into()));
    }
    let mode = parse_retrieval(flags)?;
    // Refit flags cross-validate before any I/O too: a tuning flag for
    // a refit loop that is not configured is a loud usage error.
    let refit_data = flags.get("refit-data").map(str::to_string);
    let refit_interval = flags.get_usize("refit-interval")?;
    if refit_data.is_some() && refit_interval.is_none() {
        return Err(CliError::Usage(
            "--refit-data needs --refit-interval N (refit every N ingested tweets)".into(),
        ));
    }
    if refit_interval.is_some() && refit_data.is_none() {
        return Err(CliError::Usage(
            "--refit-interval only applies with --refit-data; add the dataset to refit from".into(),
        ));
    }
    if flags.has("snapshot-out") && refit_data.is_none() {
        return Err(CliError::Usage(
            "--snapshot-out only applies with --refit-data; it persists refit snapshots".into(),
        ));
    }
    let snapshot_out = flags.get("snapshot-out").map(std::path::PathBuf::from);
    let seed = flags.get_u64("seed")?.unwrap_or(42);
    let dim = flags.get_usize("dim")?.unwrap_or(40);
    let epochs = flags.get_usize("epochs")?.unwrap_or(4);

    let model = load_model(flags)?;
    let generation = EngineGeneration::from_snapshot(model, mode)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let n_authors = generation.n_authors();
    let cell = EngineCell::new(generation);

    let manager = match refit_data {
        Some(path) => {
            let dataset = corpus_io::load_json(Path::new(&path))
                .map_err(|e| CliError::Failed(e.to_string()))?;
            let exp = ExpArgs {
                authors: dataset.n_authors(),
                seed,
                dim,
                epochs,
                ..Default::default()
            };
            let config = soulmate_bench::default_pipeline_config(&exp);
            // unwrap_or is unreachable: validated as Some above.
            let interval = refit_interval.unwrap_or(0);
            Some(RefitManager::new(
                dataset,
                config,
                Trigger::new(interval),
                mode,
                snapshot_out,
            ))
        }
        None => None,
    };

    let config = soulmate_serve::ServeConfig {
        host,
        port,
        threads,
        queue_depth,
        max_body_bytes,
        ..soulmate_serve::ServeConfig::default()
    };
    soulmate_serve::serve_with_refit(&cell, manager.as_ref(), &config, |addr| {
        writeln!(
            out,
            "serving {n_authors} authors{}{} on http://{addr} ({threads} threads, queue {queue_depth})",
            match mode {
                EngineMode::Ivf { .. } => " with IVF index",
                EngineMode::Exact => "",
            },
            if manager.is_some() {
                ", background refits armed"
            } else {
                ""
            },
        )
        .ok();
        // The ready line is how scripts learn an ephemeral port; stdout
        // is block-buffered when piped, so flush explicitly.
        out.flush().ok();
    })
    .map_err(|e| CliError::Failed(e.to_string()))?;
    writeln!(out, "shutdown: drained in-flight requests").ok();
    Ok(())
}

/// `soulmate ingest`: grow a snapshot offline with the
/// frozen-embedding delta path — the same composition `/ingest` serves
/// online (DESIGN.md §17). Each blank-line-separated tweet group in
/// the file becomes one new author appended to the snapshot's matrices
/// and graph structures; the collective embedding itself is untouched,
/// so the output stays bit-compatible with a server that ingested the
/// same batches. The grown snapshot is written as a v3 binary container.
fn cmd_ingest<W: Write>(flags: &Flags, out: &mut W) -> Result<(), CliError> {
    // Usage errors before any file I/O (the PR 4 contract).
    flags.require_path("model")?;
    let tweets_path = flags.require_path("tweets")?;
    let out_path = flags.require_path("out")?;
    let handles_flag = flags.get("handles").map(str::to_string);

    let model = load_model(flags)?;
    let groups = read_tweet_groups(&tweets_path)?;
    let handles: Vec<String> = match &handles_flag {
        Some(list) => {
            let names: Vec<String> = list.split(',').map(|s| s.trim().to_string()).collect();
            if names.len() != groups.len() || names.iter().any(String::is_empty) {
                return Err(CliError::Usage(format!(
                    "--handles needs {} non-empty comma-separated names (one per tweet group)",
                    groups.len()
                )));
            }
            names
        }
        // Named by the row each author will take, so a later ingest into
        // the grown model never repeats a handle.
        None => (0..groups.len())
            .map(|i| format!("ingested-{}", model.n_authors() + i))
            .collect(),
    };
    let batches: Vec<IngestBatch> = handles
        .into_iter()
        .zip(groups)
        .map(|(handle, tweets)| IngestBatch { handle, tweets })
        .collect();

    let generation = EngineGeneration::from_snapshot(model, EngineMode::Exact)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let (grown, outcomes) = generation
        .ingest(&batches)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    grown
        .snapshot()
        .save_binary(&out_path, false)
        .map_err(|e| CliError::Failed(e.to_string()))?;

    let n_tweets: usize = outcomes.iter().map(|o| o.n_tweets).sum();
    writeln!(
        out,
        "ingested {} authors ({n_tweets} tweets) against the frozen embedding -> {} ({} authors total)",
        outcomes.len(),
        out_path.display(),
        grown.n_authors(),
    )
    .ok();
    for o in &outcomes {
        writeln!(
            out,
            "  #{} {}: {} tweets",
            o.author_index, o.handle, o.n_tweets
        )
        .ok();
    }
    Ok(())
}

fn cmd_slabs<W: Write>(flags: &Flags, out: &mut W) -> Result<(), CliError> {
    let data = flags.require_path("data")?;
    // Flag validation precedes file I/O (see cmd_subgraphs).
    let threshold = flags.get_f32("threshold")?.unwrap_or(0.4);
    let dataset = corpus_io::load_json(&data).map_err(|e| CliError::Failed(e.to_string()))?;
    let corpus = dataset.encode(&TokenizerConfig::default(), 3);
    let grid = similarity_grid(&corpus, Facet::DayOfWeek, |_| true);
    writeln!(out, "day-of-week similarity grid:\n{}", grid.render()).ok();
    let (slabs, _) =
        slabs_from_grid(&grid, threshold).map_err(|e| CliError::Failed(e.to_string()))?;
    writeln!(out, "day slabs @ {threshold}: {}", slabs.render()).ok();
    Ok(())
}

/// `soulmate convert`: re-write any readable snapshot — a legacy v1/v2
/// JSON file included — as a v3 binary container (DESIGN.md §16). The
/// loader sniffs the input format and version, so this is the migration
/// command; the write is atomic (fresh temporary + rename), so
/// concurrent converts to one destination each publish a complete file
/// and the destination never holds torn bytes.
fn cmd_convert<W: Write>(flags: &Flags, out: &mut W) -> Result<(), CliError> {
    // Usage errors before any file I/O (the PR 4 contract).
    let input = flags.require_path("model")?;
    let output = flags.require_path("out")?;
    let quantize = flags.has("quantize");
    let snap = PipelineSnapshot::load(&input).map_err(|e| CliError::Failed(e.to_string()))?;
    snap.save_binary(&output, quantize)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let in_len = file_len(&input)?;
    let out_len = file_len(&output)?;
    // f64 division: sizes near u64::MAX lose precision but a display
    // ratio does not care.
    let ratio = in_len as f64 / (out_len as f64).max(1.0);
    writeln!(
        out,
        "converted {} -> {}: {in_len} -> {out_len} bytes ({ratio:.1}x{})",
        input.display(),
        output.display(),
        if quantize {
            ", i8-quantized author matrices"
        } else {
            ""
        },
    )
    .ok();
    Ok(())
}

/// `soulmate inspect`: header-only report of a snapshot file. Binary
/// containers are described from the validated prelude + section table
/// alone — no payload byte is read or allocated, so a multi-gigabyte
/// snapshot inspects instantly and a corrupt header fails with the same
/// typed error the loader gives. Legacy JSON snapshots have no section
/// table, so they are fully loaded and summarized instead.
fn cmd_inspect<W: Write>(flags: &Flags, out: &mut W) -> Result<(), CliError> {
    let path = flags.require_path("model")?;
    let json = flags.has("json");
    let magic = soulmate_core::BINARY_MAGIC;
    if read_prefix(&path, magic.len())? == magic {
        let info = soulmate_core::snapshot::binary::inspect(&path)
            .map_err(|e| CliError::Failed(e.to_string()))?;
        if json {
            writeln!(out, "{}", render_info_json(&info)).ok();
        } else {
            writeln!(
                out,
                "binary snapshot v{} ({} bytes, {} sections):",
                info.container_version,
                info.file_len,
                info.sections.len()
            )
            .ok();
            for s in &info.sections {
                writeln!(
                    out,
                    "  {:<12} kind {:>2}  enc {:<4}  {:>12} bytes  crc32 {:08x}",
                    s.name, s.kind, s.encoding, s.len, s.crc
                )
                .ok();
            }
        }
        return Ok(());
    }
    let model = PipelineSnapshot::load(&path).map_err(|e| CliError::Failed(e.to_string()))?;
    let (authors, dim) = (model.author_content.rows(), model.author_content.cols());
    if json {
        writeln!(
            out,
            "{{\"format\":\"json\",\"version\":{},\"file_len\":{},\"authors\":{},\"vocab\":{},\"dim\":{}}}",
            model.version,
            file_len(&path)?,
            authors,
            model.vocab.len(),
            dim,
        )
        .ok();
    } else {
        writeln!(
            out,
            "json snapshot v{} ({} bytes): {authors} authors, vocab {}, dim {dim}",
            model.version,
            file_len(&path)?,
            model.vocab.len(),
        )
        .ok();
    }
    Ok(())
}

/// Hand-rendered JSON for `inspect --json`: every field is numeric or a
/// compiled-in `&'static str` name, so no escaping is needed and the CLI
/// stays free of a JSON-serializer dependency.
fn render_info_json(info: &soulmate_core::BinaryInfo) -> String {
    let sections: Vec<String> = info
        .sections
        .iter()
        .map(|s| {
            format!(
                "{{\"kind\":{},\"name\":\"{}\",\"encoding\":\"{}\",\"len\":{},\"crc\":{}}}",
                s.kind, s.name, s.encoding, s.len, s.crc
            )
        })
        .collect();
    format!(
        "{{\"format\":\"binary\",\"container_version\":{},\"file_len\":{},\"sections\":[{}]}}",
        info.container_version,
        info.file_len,
        sections.join(",")
    )
}

/// Size of a file in bytes, as a typed CLI failure.
fn file_len(path: &Path) -> Result<u64, CliError> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| CliError::Failed(format!("cannot stat {}: {e}", path.display())))
}

/// First `n` bytes of a file (fewer when the file is shorter).
fn read_prefix(path: &Path, n: usize) -> Result<Vec<u8>, CliError> {
    let file = std::fs::File::open(path)
        .map_err(|e| CliError::Failed(format!("cannot open {}: {e}", path.display())))?;
    let mut buf = Vec::with_capacity(n);
    file.take(n as u64)
        .read_to_end(&mut buf)
        .map_err(|e| CliError::Failed(format!("cannot read {}: {e}", path.display())))?;
    Ok(buf)
}

fn cmd_eval<W: Write>(flags: &Flags, out: &mut W) -> Result<(), CliError> {
    let data = flags.require_path("data")?;
    let dataset = corpus_io::load_json(&data).map_err(|e| CliError::Failed(e.to_string()))?;
    let exp = ExpArgs {
        authors: dataset.n_authors(),
        seed: flags.get_u64("seed")?.unwrap_or(42),
        dim: flags.get_usize("dim")?.unwrap_or(40),
        epochs: flags.get_usize("epochs")?.unwrap_or(4),
        ..Default::default()
    };
    let k = flags.get_usize("k")?.unwrap_or(5);
    let pipeline = Pipeline::fit(&dataset, soulmate_bench::default_pipeline_config(&exp))
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let forest = pipeline
        .subgraphs()
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let truth = &dataset.ground_truth.author_community;
    let predicted =
        soulmate_eval::partition_from_components(&forest.components(), pipeline.n_authors());
    writeln!(out, "evaluation against planted communities:").ok();
    writeln!(
        out,
        "  subgraphs: {} (over {} authors)",
        forest.components().len(),
        pipeline.n_authors()
    )
    .ok();
    writeln!(
        out,
        "  NMI: {:.3}   ARI: {:.3}   P@{k}: {:.3}",
        soulmate_eval::normalized_mutual_information(&predicted, truth),
        soulmate_eval::adjusted_rand_index(&predicted, truth),
        soulmate_eval::community_precision_at_k(&pipeline.x_total, truth, k),
    )
    .ok();
    Ok(())
}

fn cmd_experiment<W: Write>(
    id: Option<&String>,
    rest: &[String],
    out: &mut W,
) -> Result<(), CliError> {
    let Some(id) = id else {
        return Err(CliError::Usage(
            "experiment needs an id (fig1..fig11, table5..7, ext_*)".into(),
        ));
    };
    let runner = soulmate_bench::experiments::all()
        .into_iter()
        .find(|(eid, _, _)| eid == id)
        .map(|(_, _, r)| r)
        .ok_or_else(|| CliError::Usage(format!("unknown experiment id `{id}`")))?;
    let args = ExpArgs::parse(rest.iter().skip(1).cloned());
    write!(out, "{}", runner(&args)).ok();
    Ok(())
}

/// Print the process metrics registry (table by default, `--json` for the
/// machine-readable export).
fn cmd_stats<W: Write>(flags: &Flags, out: &mut W) -> Result<(), CliError> {
    let obs = soulmate_obs::global();
    if flags.has("json") {
        writeln!(out, "{}", obs.to_json()).ok();
    } else {
        write!(out, "{}", obs.render_table()).ok();
    }
    Ok(())
}

/// Honour the shared observability flags after a command ran:
/// `--metrics <path>` dumps the registry JSON (atomically), `--stats`
/// appends the human-readable table to the command output.
fn emit_metrics<W: Write>(flags: &Flags, out: &mut W) -> Result<(), CliError> {
    let obs = soulmate_obs::global();
    if let Some(path) = flags.get("metrics") {
        let path = Path::new(path);
        obs.write_json_atomic(path).map_err(|e| {
            CliError::Failed(format!("cannot write metrics to {}: {e}", path.display()))
        })?;
        writeln!(out, "metrics written to {}", path.display()).ok();
    }
    if flags.has("stats") {
        write!(out, "{}", obs.render_table()).ok();
    }
    Ok(())
}

/// Author handle for display. Engine outcomes only contain indices the
/// snapshot itself produced, so the fallback never shows in practice; it
/// exists so a display path can never panic on a corrupt index.
fn handle_of(model: &PipelineSnapshot, author: usize) -> &str {
    model
        .author_handles
        .get(author)
        .unwrap_or("<unknown-author>")
}

fn load_model(flags: &Flags) -> Result<PipelineSnapshot, CliError> {
    let path = flags.require_path("model")?;
    PipelineSnapshot::load(&path).map_err(|e| CliError::Failed(e.to_string()))
}

/// Parse one tweet line: `minute<TAB>text` or just `text`.
fn parse_tweet_line(line: &str) -> (Timestamp, String) {
    match line.split_once('\t') {
        Some((m, t)) => (Timestamp(m.parse::<u32>().unwrap_or(0)), t.to_string()),
        None => (Timestamp(0), line.to_string()),
    }
}

/// Parse a tweets file: each line is `minute<TAB>text` or just `text`.
fn read_tweets_file(path: &Path) -> Result<Vec<(Timestamp, String)>, CliError> {
    let content = std::fs::read_to_string(path)
        .map_err(|e| CliError::Failed(format!("cannot read {}: {e}", path.display())))?;
    let tweets: Vec<(Timestamp, String)> = content
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(parse_tweet_line)
        .collect();
    if tweets.is_empty() {
        return Err(CliError::Failed(format!(
            "no tweets found in {}",
            path.display()
        )));
    }
    Ok(tweets)
}

/// Parse a multi-query tweets file: blank lines separate the tweet groups
/// of consecutive query authors.
fn read_tweet_groups(path: &Path) -> Result<Vec<Vec<(Timestamp, String)>>, CliError> {
    let content = std::fs::read_to_string(path)
        .map_err(|e| CliError::Failed(format!("cannot read {}: {e}", path.display())))?;
    let mut groups: Vec<Vec<(Timestamp, String)>> = Vec::new();
    let mut current: Vec<(Timestamp, String)> = Vec::new();
    for line in content.lines() {
        let line = line.trim();
        if line.is_empty() {
            if !current.is_empty() {
                groups.push(std::mem::take(&mut current));
            }
            continue;
        }
        current.push(parse_tweet_line(line));
    }
    if !current.is_empty() {
        groups.push(current);
    }
    if groups.is_empty() {
        return Err(CliError::Failed(format!(
            "no tweet groups found in {}",
            path.display()
        )));
    }
    Ok(groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("soulmate-cli-test-{}-{name}", std::process::id()));
        p
    }

    fn run_to_string(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        run(&args, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    /// Structural JSON sanity: starts/ends as an object and every brace
    /// and bracket outside string literals balances.
    fn assert_balanced_json(body: &str) {
        let trimmed = body.trim();
        assert!(
            trimmed.starts_with('{') && trimmed.ends_with('}'),
            "not a JSON object: {body}"
        );
        let (mut depth, mut in_string, mut escaped) = (0i64, false, false);
        for c in trimmed.chars() {
            if in_string {
                match (escaped, c) {
                    (true, _) => escaped = false,
                    (false, '\\') => escaped = true,
                    (false, '"') => in_string = false,
                    _ => {}
                }
                continue;
            }
            match c {
                '"' => in_string = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced close in: {body}");
        }
        assert_eq!(depth, 0, "unbalanced JSON: {body}");
        assert!(!in_string, "unterminated string in: {body}");
    }

    #[test]
    fn no_args_prints_usage_error() {
        assert!(matches!(run_to_string(&[]), Err(CliError::Usage(_))));
        assert!(matches!(run_to_string(&["bogus"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn help_prints_usage() {
        let out = run_to_string(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn generate_requires_out_flag() {
        assert!(matches!(
            run_to_string(&["generate"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn full_cli_workflow_generate_fit_subgraphs_link() {
        let data = tmp("wf-data.json");
        let model = tmp("wf-model.bin");
        let tweets = tmp("wf-tweets.txt");
        let metrics = tmp("wf-metrics.json");

        let out = run_to_string(&[
            "generate",
            "--out",
            data.to_str().unwrap(),
            "--authors",
            "14",
            "--tweets",
            "15",
            "--concepts",
            "4",
        ])
        .unwrap();
        assert!(out.contains("14 authors"));

        let out = run_to_string(&[
            "fit",
            "--data",
            data.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
            "--dim",
            "10",
            "--epochs",
            "2",
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("fitted in"), "got: {out}");
        assert!(out.contains("metrics written to"), "got: {out}");
        // The dump is structurally sound JSON (the obs crate property-tests
        // full validity) and holds the per-stage fit timings.
        let body = std::fs::read_to_string(&metrics).unwrap();
        assert_balanced_json(&body);
        assert!(
            body.contains("\"stage.fit.seconds\""),
            "missing fit stage timing in: {body}"
        );
        assert!(body.contains("\"stage.fit.tcbow.seconds\""));
        assert!(body.contains("\"fit.runs\""));

        let out = run_to_string(&[
            "subgraphs",
            "--model",
            model.to_str().unwrap(),
            "--top",
            "3",
        ])
        .unwrap();
        assert!(out.contains("linked-author subgraphs"));

        // Link a query built from real generated text (so some tokens are
        // in vocabulary).
        let dataset = corpus_io::load_json(&data).unwrap();
        let lines: Vec<String> = dataset
            .tweets
            .iter()
            .take(5)
            .map(|t| format!("{}\t{}", t.timestamp.0, t.text))
            .collect();
        std::fs::write(&tweets, lines.join("\n")).unwrap();
        let out = run_to_string(&[
            "link",
            "--model",
            model.to_str().unwrap(),
            "--tweets",
            tweets.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
            "--stats",
        ])
        .unwrap();
        assert!(out.contains("query author joined"), "got: {out}");
        assert!(out.contains("most similar authors"));
        // The serving path recorded its per-query latency histogram and
        // the appended table renders it.
        let body = std::fs::read_to_string(&metrics).unwrap();
        assert_balanced_json(&body);
        assert!(
            body.contains("\"engine.query.seconds\""),
            "missing query latency in: {body}"
        );
        assert!(body.contains("\"engine.build.seconds\""));
        assert!(body.contains("\"snapshot.load.seconds\""));
        assert!(body.contains("\"engine.queries\""));
        assert!(out.contains("engine.query.seconds"), "got: {out}");

        // The standalone stats command renders the same registry.
        let out = run_to_string(&["stats"]).unwrap();
        assert!(out.contains("engine.queries"), "got: {out}");
        let out = run_to_string(&["stats", "--json"]).unwrap();
        assert_balanced_json(&out);
        assert!(out.contains("\"histograms\""));

        // Batched serving: two query authors separated by a blank line.
        let group_a: Vec<String> = dataset
            .tweets
            .iter()
            .take(4)
            .map(|t| format!("{}\t{}", t.timestamp.0, t.text))
            .collect();
        let group_b: Vec<String> = dataset
            .tweets
            .iter()
            .skip(4)
            .take(4)
            .map(|t| t.text.clone())
            .collect();
        std::fs::write(
            &tweets,
            format!("{}\n\n{}", group_a.join("\n"), group_b.join("\n")),
        )
        .unwrap();
        let out = run_to_string(&[
            "link",
            "--model",
            model.to_str().unwrap(),
            "--tweets",
            tweets.to_str().unwrap(),
            "--multi",
        ])
        .unwrap();
        assert!(out.contains("linked 2 query authors"), "got: {out}");
        assert!(out.contains("query #1:"), "got: {out}");

        let out = run_to_string(&["slabs", "--data", data.to_str().unwrap()]).unwrap();
        assert!(out.contains("day slabs @"));

        for p in [&data, &model, &tweets, &metrics] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn link_ivf_serves_and_rejects_orphan_nprobe() {
        let data = tmp("ivf-data.json");
        let model = tmp("ivf-model.bin");
        let tweets = tmp("ivf-tweets.txt");
        run_to_string(&[
            "generate",
            "--out",
            data.to_str().unwrap(),
            "--authors",
            "14",
            "--tweets",
            "15",
            "--concepts",
            "4",
        ])
        .unwrap();
        run_to_string(&[
            "fit",
            "--data",
            data.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
            "--dim",
            "10",
            "--epochs",
            "2",
        ])
        .unwrap();
        let dataset = corpus_io::load_json(&data).unwrap();
        let lines: Vec<String> = dataset
            .tweets
            .iter()
            .take(5)
            .map(|t| format!("{}\t{}", t.timestamp.0, t.text))
            .collect();
        std::fs::write(&tweets, lines.join("\n")).unwrap();

        // --nprobe without --ivf is a usage error, not a silent ignore.
        let err = run_to_string(&[
            "link",
            "--model",
            model.to_str().unwrap(),
            "--tweets",
            tweets.to_str().unwrap(),
            "--nprobe",
            "2",
        ]);
        match err {
            Err(CliError::Usage(m)) => assert!(m.contains("--ivf"), "{m}"),
            other => panic!("expected usage error, got {other:?}"),
        }

        // The IVF path builds its index at load time and serves single
        // and batched queries end to end.
        let out = run_to_string(&[
            "link",
            "--model",
            model.to_str().unwrap(),
            "--tweets",
            tweets.to_str().unwrap(),
            "--ivf",
            "--nprobe",
            "2",
        ])
        .unwrap();
        assert!(out.contains("query author joined"), "got: {out}");
        let out = run_to_string(&[
            "link",
            "--model",
            model.to_str().unwrap(),
            "--tweets",
            tweets.to_str().unwrap(),
            "--ivf",
            "--multi",
        ])
        .unwrap();
        assert!(out.contains("linked 1 query authors"), "got: {out}");

        for p in [&data, &model, &tweets] {
            std::fs::remove_file(p).ok();
        }
    }

    /// Generate a small corpus and fit a model; returns the data path
    /// and model path (caller removes both).
    fn generate_and_fit(tag: &str) -> (PathBuf, PathBuf) {
        let data = tmp(&format!("{tag}-data.json"));
        let model = tmp(&format!("{tag}-fitted.bin"));
        run_to_string(&[
            "generate",
            "--out",
            data.to_str().unwrap(),
            "--authors",
            "14",
            "--tweets",
            "15",
            "--concepts",
            "4",
        ])
        .unwrap();
        run_to_string(&[
            "fit",
            "--data",
            data.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
            "--dim",
            "10",
            "--epochs",
            "2",
        ])
        .unwrap();
        (data, model)
    }

    /// Write a tweets file with the first 5 generated tweets.
    fn write_query_tweets(data: &Path, path: &Path) {
        let dataset = corpus_io::load_json(data).unwrap();
        let lines: Vec<String> = dataset
            .tweets
            .iter()
            .take(5)
            .map(|t| format!("{}\t{}", t.timestamp.0, t.text))
            .collect();
        std::fs::write(path, lines.join("\n")).unwrap();
    }

    /// A legacy snapshot committed under `crates/core/tests/fixtures`.
    fn legacy_fixture(name: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../core/tests/fixtures")
            .join(name)
    }

    #[test]
    fn convert_migrates_json_fixtures_to_binary_with_identical_serving() {
        let tweets = legacy_fixture("query.tsv");
        let bin = tmp("migrate-model.bin");
        let qbin = tmp("migrate-model.q.bin");
        let link = |model: &Path| {
            run_to_string(&[
                "link",
                "--model",
                model.to_str().unwrap(),
                "--tweets",
                tweets.to_str().unwrap(),
            ])
            .unwrap()
        };

        // Usage errors fire before any file is touched, and name the
        // flag at fault: a missing one, or a retired one (`--format`, and
        // the i8 plan's `--quant` / `--rerank`).
        let json = legacy_fixture("v2_index.json");
        let (json_s, bin_s, tweets_s) = (
            json.to_str().unwrap(),
            bin.to_str().unwrap(),
            tweets.to_str().unwrap(),
        );
        for (args, flag) in [
            (&["convert", "--model", json_s][..], "--out"),
            (
                &[
                    "convert", "--model", json_s, "--out", bin_s, "--format", "json",
                ][..],
                "--format",
            ),
            (
                &["link", "--model", json_s, "--tweets", tweets_s, "--quant"][..],
                "--quant",
            ),
            (&["serve", "--model", json_s, "--quant"][..], "--quant"),
            (
                &[
                    "link", "--model", json_s, "--tweets", tweets_s, "--rerank", "4",
                ][..],
                "--rerank",
            ),
        ] {
            match run_to_string(args) {
                Err(CliError::Usage(m)) => assert!(m.contains(flag), "{args:?}: {m}"),
                other => panic!("{args:?}: expected a usage error, got {other:?}"),
            }
        }
        assert!(!bin.exists(), "usage errors must not create the output");

        for name in ["v1.json", "v2_index.json"] {
            let json = legacy_fixture(name);
            // Legacy JSON -> binary: the f32 container is lossless, so
            // the link output is byte-identical.
            let out = run_to_string(&[
                "convert",
                "--model",
                json.to_str().unwrap(),
                "--out",
                bin.to_str().unwrap(),
            ])
            .unwrap();
            assert!(out.contains("converted"), "got: {out}");
            let from_json = link(&json);
            assert!(
                from_json.contains("query author joined"),
                "got: {from_json}"
            );
            assert_eq!(from_json, link(&bin), "{name}");

            // Binary -> quantized binary serves from the i8 container.
            let out = run_to_string(&[
                "convert",
                "--model",
                bin.to_str().unwrap(),
                "--out",
                qbin.to_str().unwrap(),
                "--quantize",
            ])
            .unwrap();
            assert!(out.contains("i8-quantized"), "got: {out}");
            assert!(link(&qbin).contains("query author joined"));
            let out = run_to_string(&["inspect", "--model", qbin.to_str().unwrap()]).unwrap();
            assert!(out.contains("qi8"), "got: {out}");
        }

        // Inspect reads only the header of a binary file, and loads and
        // summarizes a legacy JSON one.
        let out = run_to_string(&["inspect", "--model", bin.to_str().unwrap()]).unwrap();
        assert!(out.contains("binary snapshot v"), "got: {out}");
        assert!(out.contains("meta"), "got: {out}");
        assert!(out.contains("crc32"), "got: {out}");
        let out = run_to_string(&["inspect", "--model", bin.to_str().unwrap(), "--json"]).unwrap();
        assert_balanced_json(&out);
        assert!(out.contains("\"format\":\"binary\""), "got: {out}");
        assert!(out.contains("\"sections\":["), "got: {out}");
        let out = run_to_string(&["inspect", "--model", json.to_str().unwrap()]).unwrap();
        assert!(out.contains("json snapshot v2"), "got: {out}");
        assert!(out.contains("14 authors"), "got: {out}");
        let out = run_to_string(&["inspect", "--model", json.to_str().unwrap(), "--json"]).unwrap();
        assert_balanced_json(&out);
        assert!(out.contains("\"format\":\"json\""), "got: {out}");

        for p in [&bin, &qbin] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn subgraphs_match_between_legacy_fixtures_and_schema3() {
        // Legacy files cut the graph from their dense x_total at load;
        // their schema-3 conversions persist only the cut's backbone.
        // SW-MST over either prints the same subgraphs, byte for byte.
        let subgraphs = |model: &Path| {
            run_to_string(&[
                "subgraphs",
                "--model",
                model.to_str().unwrap(),
                "--top",
                "20",
            ])
            .unwrap()
        };
        let converted = tmp("schema3-subgraphs.bin");
        for name in ["v1.json", "v2_index.json", "v3_f32_index.bin"] {
            let legacy = legacy_fixture(name);
            run_to_string(&[
                "convert",
                "--model",
                legacy.to_str().unwrap(),
                "--out",
                converted.to_str().unwrap(),
            ])
            .unwrap();
            let want = subgraphs(&legacy);
            assert!(want.contains("linked-author subgraphs"), "got: {want}");
            assert_eq!(want, subgraphs(&converted), "{name}");
        }
        std::fs::remove_file(&converted).ok();
        // The committed conversion of the v3 fixture agrees too.
        assert_eq!(
            subgraphs(&legacy_fixture("v3_f32_index.bin")),
            subgraphs(&legacy_fixture("v3_schema3.bin"))
        );
    }

    #[test]
    fn convert_quantize_shrinks_and_qi8_serves_every_plan() {
        let (data, model) = generate_and_fit("quant");
        let tweets = tmp("quant-tweets.txt");
        let qbin = tmp("quant-model.bin");
        write_query_tweets(&data, &tweets);

        let out = run_to_string(&[
            "convert",
            "--model",
            model.to_str().unwrap(),
            "--out",
            qbin.to_str().unwrap(),
            "--quantize",
        ])
        .unwrap();
        assert!(out.contains("i8-quantized"), "got: {out}");
        assert!(
            std::fs::metadata(&qbin).unwrap().len() < std::fs::metadata(&model).unwrap().len(),
            "quantized binary should be smaller than the f32 snapshot"
        );
        let out = run_to_string(&["inspect", "--model", qbin.to_str().unwrap()]).unwrap();
        assert!(out.contains("qi8"), "got: {out}");

        // qi8 is a storage encoding: the loader dequantizes it, and every
        // plan serves the file, single and batched.
        let link = |extra: &[&str]| {
            let mut args = vec![
                "link",
                "--model",
                qbin.to_str().unwrap(),
                "--tweets",
                tweets.to_str().unwrap(),
            ];
            args.extend_from_slice(extra);
            run_to_string(&args).unwrap()
        };
        let out = link(&[]);
        assert!(out.contains("query author joined"), "got: {out}");
        let out = link(&["--multi"]);
        assert!(out.contains("linked 1 query authors"), "got: {out}");
        let out = link(&["--multi", "--ivf"]);
        assert!(out.contains("linked 1 query authors"), "got: {out}");

        for p in [&data, &model, &tweets, &qbin] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn concurrent_converts_to_one_path_publish_complete_snapshots() {
        let (data, model) = generate_and_fit("race");
        let bin = tmp("race-model.bin");

        // Regression for the atomic-write contract: multiple converts
        // racing on one destination must each publish a complete file —
        // whichever rename lands last, the destination is loadable.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (model, bin) = (model.clone(), bin.clone());
                scope.spawn(move || {
                    run_to_string(&[
                        "convert",
                        "--model",
                        model.to_str().unwrap(),
                        "--out",
                        bin.to_str().unwrap(),
                    ])
                    .unwrap();
                });
            }
        });
        let snap = PipelineSnapshot::load(&bin).unwrap();
        assert_eq!(snap.author_handles.len(), 14);

        for p in [&data, &model, &bin] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn serve_refit_flags_cross_validate_before_io() {
        // None of these reach the (nonexistent) model file: the flag
        // combination is rejected first, as a Usage error.
        let err = run_to_string(&[
            "serve",
            "--model",
            "definitely-not-a-file.json",
            "--refit-interval",
            "5",
        ]);
        match err {
            Err(CliError::Usage(m)) => assert!(m.contains("--refit-data"), "{m}"),
            other => panic!("expected usage error, got {other:?}"),
        }
        let err = run_to_string(&[
            "serve",
            "--model",
            "definitely-not-a-file.json",
            "--refit-data",
            "also-not-a-file.json",
        ]);
        match err {
            Err(CliError::Usage(m)) => assert!(m.contains("--refit-interval"), "{m}"),
            other => panic!("expected usage error, got {other:?}"),
        }
        let err = run_to_string(&[
            "serve",
            "--model",
            "definitely-not-a-file.json",
            "--snapshot-out",
            "gen.bin",
        ]);
        match err {
            Err(CliError::Usage(m)) => assert!(m.contains("--snapshot-out"), "{m}"),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn ingest_grows_a_snapshot_offline() {
        let (data, model) = generate_and_fit("ingest");
        let tweets = tmp("ingest-tweets.txt");
        let grown = tmp("ingest-grown.bin");
        let probe = tmp("ingest-probe.txt");

        // Two new authors, blank-line separated, from generated text so
        // their tokens are in vocabulary.
        let dataset = corpus_io::load_json(&data).unwrap();
        let group_a: Vec<String> = dataset
            .tweets
            .iter()
            .take(5)
            .map(|t| format!("{}\t{}", t.timestamp.0, t.text))
            .collect();
        let group_b: Vec<String> = dataset
            .tweets
            .iter()
            .skip(5)
            .take(4)
            .map(|t| t.text.clone())
            .collect();
        std::fs::write(
            &tweets,
            format!("{}\n\n{}", group_a.join("\n"), group_b.join("\n")),
        )
        .unwrap();

        // A retired flag and wrong handle counts are usage errors.
        assert!(matches!(
            run_to_string(&[
                "ingest",
                "--model",
                model.to_str().unwrap(),
                "--tweets",
                tweets.to_str().unwrap(),
                "--out",
                grown.to_str().unwrap(),
                "--format",
                "yaml",
            ]),
            Err(CliError::Usage(_))
        ));
        let err = run_to_string(&[
            "ingest",
            "--model",
            model.to_str().unwrap(),
            "--tweets",
            tweets.to_str().unwrap(),
            "--out",
            grown.to_str().unwrap(),
            "--handles",
            "only-one",
        ]);
        match err {
            Err(CliError::Usage(m)) => assert!(m.contains("2 non-empty"), "{m}"),
            other => panic!("expected usage error, got {other:?}"),
        }

        let out = run_to_string(&[
            "ingest",
            "--model",
            model.to_str().unwrap(),
            "--tweets",
            tweets.to_str().unwrap(),
            "--out",
            grown.to_str().unwrap(),
            "--handles",
            "alice, bob",
        ])
        .unwrap();
        assert!(out.contains("ingested 2 authors"), "got: {out}");
        assert!(out.contains("#14 alice"), "got: {out}");
        assert!(out.contains("#15 bob"), "got: {out}");

        // The grown snapshot is a regular binary model: 16 authors,
        // loadable, servable by link.
        let inspected = run_to_string(&["inspect", "--model", grown.to_str().unwrap()]).unwrap();
        assert!(inspected.contains("binary snapshot v"), "got: {inspected}");
        assert_eq!(PipelineSnapshot::load(&grown).unwrap().n_authors(), 16);
        write_query_tweets(&data, &probe);
        let linked = run_to_string(&[
            "link",
            "--model",
            grown.to_str().unwrap(),
            "--tweets",
            probe.to_str().unwrap(),
        ])
        .unwrap();
        assert!(linked.contains("query author joined"), "got: {linked}");

        for p in [&data, &model, &tweets, &grown, &probe] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn chained_ingests_without_handles_name_every_author_distinctly() {
        let (data, model) = generate_and_fit("ingest-chain");
        let tweets = tmp("ingest-chain-tweets.txt");
        let once = tmp("ingest-chain-once.bin");
        let twice = tmp("ingest-chain-twice.bin");
        let dataset = corpus_io::load_json(&data).unwrap();
        let group = |skip: usize| -> Vec<String> {
            dataset
                .tweets
                .iter()
                .skip(skip)
                .take(4)
                .map(|t| t.text.clone())
                .collect()
        };
        std::fs::write(
            &tweets,
            format!("{}\n\n{}", group(0).join("\n"), group(4).join("\n")),
        )
        .unwrap();

        // The same two groups, ingested into the fitted model and then
        // again into the grown one, with default handles both times.
        for (from, to) in [(&model, &once), (&once, &twice)] {
            run_to_string(&[
                "ingest",
                "--model",
                from.to_str().unwrap(),
                "--tweets",
                tweets.to_str().unwrap(),
                "--out",
                to.to_str().unwrap(),
            ])
            .unwrap();
        }
        let handles: Vec<String> = PipelineSnapshot::load(&twice)
            .unwrap()
            .author_handles
            .iter()
            .map(str::to_owned)
            .collect();
        assert_eq!(handles.len(), 18);
        assert_eq!(
            handles[14..],
            ["ingested-14", "ingested-15", "ingested-16", "ingested-17"]
        );
        let distinct: std::collections::HashSet<&String> = handles.iter().collect();
        assert_eq!(
            distinct.len(),
            handles.len(),
            "repeated handle in {handles:?}"
        );

        for p in [&data, &model, &tweets, &once, &twice] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn eval_reports_community_metrics() {
        let data = tmp("eval-data.json");
        run_to_string(&[
            "generate",
            "--out",
            data.to_str().unwrap(),
            "--authors",
            "12",
            "--tweets",
            "12",
            "--concepts",
            "4",
        ])
        .unwrap();
        let out = run_to_string(&[
            "eval",
            "--data",
            data.to_str().unwrap(),
            "--dim",
            "8",
            "--epochs",
            "1",
        ])
        .unwrap();
        std::fs::remove_file(&data).ok();
        assert!(out.contains("NMI:"), "got: {out}");
        assert!(out.contains("P@5"), "got: {out}");
    }

    #[test]
    fn experiment_rejects_unknown_id() {
        assert!(matches!(
            run_to_string(&["experiment", "nope"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_to_string(&["experiment"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn read_tweets_file_parses_both_forms() {
        let path = tmp("tweets-parse.txt");
        std::fs::write(&path, "100\thello world\nplain line\n\n").unwrap();
        let tweets = read_tweets_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(tweets.len(), 2);
        assert_eq!(tweets[0].0, Timestamp(100));
        assert_eq!(tweets[0].1, "hello world");
        assert_eq!(tweets[1].0, Timestamp(0));
    }

    #[test]
    fn read_tweet_groups_splits_on_blank_lines() {
        let path = tmp("tweet-groups.txt");
        std::fs::write(&path, "5\talpha one\nalpha two\n\n\nbeta one\n\n").unwrap();
        let groups = read_tweet_groups(&path).unwrap();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].len(), 2);
        assert_eq!(groups[0][0], (Timestamp(5), "alpha one".to_string()));
        assert_eq!(groups[1], vec![(Timestamp(0), "beta one".to_string())]);
        std::fs::write(&path, "\n\n").unwrap();
        assert!(read_tweet_groups(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
