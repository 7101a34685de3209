//! The serve wire protocol: NDJSON link queries in, NDJSON outcomes or
//! a machine-readable error object out, plus the 1:1 mapping from
//! [`CoreError`] onto `(status, kind)` pairs.
//!
//! A `/link` request body holds one line per query author. Each line is
//! either a bare array of `[minute, "text"]` pairs or an object
//! `{"tweets": [[minute, "text"], ...]}` (the object form leaves room
//! for per-query options later). The response holds one line per query
//! in the same order, rendered deterministically — the e2e suite
//! asserts byte equality between served responses and a local render of
//! `link_query_authors` output, so this module is the single source of
//! truth for outcome formatting. One byte renderer writes the outcomes:
//! the server runs it straight into its response buffer, and
//! [`render_outcomes`] wraps it for callers that want a `String`.

use crate::float::{push_f32, push_f32_list, push_usize};
use soulmate_core::{CoreError, IngestBatch, IngestOutcome, QueryOutcome};
use soulmate_corpus::Timestamp;

/// Machine-readable kind for every [`CoreError`] variant — the wire
/// contract promised by DESIGN.md §15 (one kind per variant, no
/// collapsing, so clients can branch without parsing prose).
pub fn error_kind(e: &CoreError) -> &'static str {
    match e {
        CoreError::Temporal(_) => "temporal",
        CoreError::Embedding(_) => "embedding",
        CoreError::Cluster(_) => "cluster",
        CoreError::Graph(_) => "graph",
        CoreError::Linalg(_) => "linalg",
        CoreError::Retrieval(_) => "retrieval",
        CoreError::Invalid(_) => "invalid",
        CoreError::Io { .. } => "io",
        CoreError::Parse(_) => "parse",
        CoreError::Schema(_) => "schema",
        CoreError::Internal(_) => "internal",
    }
}

/// HTTP status for a [`CoreError`] escaping a query: the caller's fault
/// (rejected input) is 400, everything else is a 500 — the engine only
/// sees validated in-memory state at query time, so any other variant
/// there means the server itself is unhealthy.
pub fn status_for(e: &CoreError) -> u16 {
    match e {
        CoreError::Invalid(_) | CoreError::Parse(_) => 400,
        _ => 500,
    }
}

/// JSON type name for protocol error messages. `serde_json::Value` has
/// no such accessor of its own, so the protocol carries one — matching
/// on variants keeps it in sync with the `Value` data model at compile
/// time.
fn type_name(v: &serde_json::Value) -> &'static str {
    match v {
        serde_json::Value::Null => "null",
        serde_json::Value::Bool(_) => "bool",
        serde_json::Value::Number(_) => "number",
        serde_json::Value::String(_) => "string",
        serde_json::Value::Array(_) => "array",
        serde_json::Value::Object(_) => "object",
    }
}

/// Parse a `/link` NDJSON body into query-author tweet groups.
///
/// # Errors
/// A human-readable message naming the offending line; the server turns
/// it into a 400 with kind `parse`.
pub fn parse_link_body(body: &str) -> Result<Vec<Vec<(Timestamp, String)>>, String> {
    let mut queries = Vec::new();
    for (i, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let value = serde_json::from_str::<serde_json::Value>(line)
            .map_err(|e| format!("line {}: {e}", i + 1))?;
        let tweets_value = match value.get("tweets") {
            Some(t) => t,
            None if value.as_array().is_some() => &value,
            None => {
                return Err(format!(
                    "line {}: expected a tweet array or an object with a `tweets` key, got {}",
                    i + 1,
                    type_name(&value)
                ))
            }
        };
        let Some(tweets) = tweets_value.as_array() else {
            return Err(format!(
                "line {}: `tweets` must be an array, got {}",
                i + 1,
                type_name(tweets_value)
            ));
        };
        let mut group = Vec::with_capacity(tweets.len());
        for (j, tweet) in tweets.iter().enumerate() {
            group.push(
                parse_tweet(tweet)
                    .map_err(|why| format!("line {}, tweet {}: {why}", i + 1, j + 1))?,
            );
        }
        queries.push(group);
    }
    Ok(queries)
}

/// One tweet: `[minute, "text"]` or `"text"` (minute 0, matching the
/// CLI's tweets-file default).
fn parse_tweet(v: &serde_json::Value) -> Result<(Timestamp, String), String> {
    if let Some(text) = v.as_str() {
        return Ok((Timestamp(0), text.to_string()));
    }
    let Some(pair) = v.as_array() else {
        return Err(format!(
            "expected `[minute, \"text\"]` or a bare string, got {}",
            type_name(v)
        ));
    };
    match (pair.first(), pair.get(1), pair.len()) {
        (Some(minute), Some(text), 2) => {
            let minute = minute
                .as_i64()
                .and_then(|m| u32::try_from(m).ok())
                .ok_or_else(|| format!("minute must be a non-negative integer, got {minute}"))?;
            let text = text
                .as_str()
                .ok_or_else(|| format!("text must be a string, got {}", type_name(text)))?;
            Ok((Timestamp(minute), text.to_string()))
        }
        _ => Err(format!("expected exactly [minute, \"text\"], got {v}")),
    }
}

/// Parse a `/ingest` NDJSON body into new-author batches.
///
/// One line per new author: `{"handle": "name", "tweets": [[minute,
/// "text"], ...]}`. The handle is mandatory (it becomes the author's
/// identity in the grown snapshot) and tweets use the same pair/string
/// forms as `/link` lines.
///
/// # Errors
/// A human-readable message naming the offending line; the server turns
/// it into a 400 with kind `parse`.
pub fn parse_ingest_body(body: &str) -> Result<Vec<IngestBatch>, String> {
    let mut batches = Vec::new();
    for (i, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let value = serde_json::from_str::<serde_json::Value>(line)
            .map_err(|e| format!("line {}: {e}", i + 1))?;
        let Some(handle) = value.get("handle").and_then(|h| h.as_str()) else {
            return Err(format!(
                "line {}: expected an object with a string `handle` key",
                i + 1
            ));
        };
        if handle.is_empty() {
            return Err(format!("line {}: `handle` must be non-empty", i + 1));
        }
        let Some(tweets) = value.get("tweets").and_then(|t| t.as_array()) else {
            return Err(format!(
                "line {}: expected a `tweets` array alongside `handle`",
                i + 1
            ));
        };
        let mut group = Vec::with_capacity(tweets.len());
        for (j, tweet) in tweets.iter().enumerate() {
            group.push(
                parse_tweet(tweet)
                    .map_err(|why| format!("line {}, tweet {}: {why}", i + 1, j + 1))?,
            );
        }
        batches.push(IngestBatch {
            handle: handle.to_string(),
            tweets: group,
        });
    }
    Ok(batches)
}

/// Render the `/ingest` response: one JSON object carrying the
/// generation that now serves the new authors, whether a background
/// refit was scheduled by this batch, and one entry per ingested
/// author in request order.
pub fn render_ingest_response(
    outcomes: &[IngestOutcome],
    generation: u64,
    refit_scheduled: bool,
) -> String {
    let mut out = String::new();
    out.push_str("{\"generation\":");
    out.push_str(&generation.to_string());
    out.push_str(",\"refit_scheduled\":");
    out.push_str(if refit_scheduled { "true" } else { "false" });
    out.push_str(",\"ingested\":[");
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"author_index\":");
        out.push_str(&o.author_index.to_string());
        out.push_str(",\"handle\":\"");
        out.push_str(&escape(&o.handle));
        out.push_str("\",\"n_tweets\":");
        out.push_str(&o.n_tweets.to_string());
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Render outcomes as NDJSON, one line per query, trailing newline.
///
/// Floats are written by the in-tree shortest round-trip writer
/// (`float.rs`), which emits exactly the bytes of Rust's `Display`
/// (an exhaustive test checks all 2³² bit patterns), so a client parsing
/// a similarity back to `f32` recovers the exact bits the engine
/// produced; non-finite values (NaN similarity of an unreachable author)
/// render as `null` because JSON has no NaN. The server renders the same
/// bytes straight into its response buffer.
pub fn render_outcomes(outcomes: &[QueryOutcome]) -> String {
    let mut out = Vec::with_capacity(rendered_capacity(outcomes));
    render_outcomes_into(&mut out, outcomes);
    // Every byte is ASCII, so the conversion cannot fail; the lossy arm
    // only keeps this function total.
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Bytes to reserve for rendering `outcomes`: 16 per float holds the
/// usual "-0.123456789,", 8 per subgraph index and 128 for the keys of a
/// line.
pub(crate) fn rendered_capacity(outcomes: &[QueryOutcome]) -> usize {
    outcomes
        .iter()
        .map(|o| {
            let floats = 1 + o.similarities.len() + o.content_vector.len() + o.concept_vector.len();
            128 + 16 * floats + 8 * o.subgraph.len()
        })
        .sum()
}

/// Append the NDJSON of `outcomes` to `out`: the byte renderer behind
/// [`render_outcomes`] and the server's `/link` response.
pub(crate) fn render_outcomes_into(out: &mut Vec<u8>, outcomes: &[QueryOutcome]) {
    for o in outcomes {
        out.extend_from_slice(b"{\"query_index\":");
        push_usize(out, o.query_index);
        out.extend_from_slice(b",\"subgraph\":[");
        push_list(out, &o.subgraph, push_usize);
        out.extend_from_slice(b"],\"subgraph_avg_weight\":");
        push_f32(out, o.subgraph_avg_weight);
        out.extend_from_slice(b",\"similarities\":[");
        push_f32_list(out, &o.similarities);
        out.extend_from_slice(b"],\"content_vector\":[");
        push_f32_list(out, &o.content_vector);
        out.extend_from_slice(b"],\"concept_vector\":[");
        push_f32_list(out, &o.concept_vector);
        out.extend_from_slice(b"]}\n");
    }
}

/// Append `items` comma-separated.
fn push_list<T: Copy>(out: &mut Vec<u8>, items: &[T], push: impl Fn(&mut Vec<u8>, T)) {
    for (i, &item) in items.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push(out, item);
    }
}

/// Render one protocol error object (single line, no trailing newline).
pub fn error_body(kind: &str, message: &str) -> String {
    format!(
        "{{\"error\":{{\"kind\":\"{}\",\"message\":\"{}\"}}}}",
        escape(kind),
        escape(message)
    )
}

/// Minimal JSON string escaping for error messages (quotes, backslash,
/// control characters).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            // A char is a Unicode scalar value (max 0x10FFFF), so it
            // always fits u32 losslessly.
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_both_line_forms_and_skips_blanks() {
        let body = "[[5, \"hello world\"], [9, \"more text\"]]\n\n{\"tweets\": [[0, \"obj form\"], \"bare string\"]}\n";
        let queries = parse_link_body(body).unwrap();
        assert_eq!(queries.len(), 2);
        assert_eq!(
            queries[0],
            vec![
                (Timestamp(5), "hello world".to_string()),
                (Timestamp(9), "more text".to_string()),
            ]
        );
        assert_eq!(
            queries[1],
            vec![
                (Timestamp(0), "obj form".to_string()),
                (Timestamp(0), "bare string".to_string()),
            ]
        );
    }

    #[test]
    fn malformed_lines_name_their_position() {
        let err = parse_link_body("[[1, \"ok\"]]\nnot json").unwrap_err();
        assert!(err.starts_with("line 2"), "{err}");
        let err = parse_link_body("{\"tweets\": 7}").unwrap_err();
        assert!(err.contains("`tweets` must be an array"), "{err}");
        let err = parse_link_body("[[-3, \"negative minute\"]]").unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
        let err = parse_link_body("[[1, 2, 3]]").unwrap_err();
        assert!(err.contains("tweet 1"), "{err}");
        let err = parse_link_body("true").unwrap_err();
        assert!(err.contains("expected a tweet array"), "{err}");
    }

    #[test]
    fn parses_ingest_lines_and_names_bad_ones() {
        let body = "{\"handle\": \"alice\", \"tweets\": [[3, \"hi there\"], \"bare\"]}\n\n{\"handle\": \"bob\", \"tweets\": []}\n";
        let batches = parse_ingest_body(body).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].handle, "alice");
        assert_eq!(
            batches[0].tweets,
            vec![
                (Timestamp(3), "hi there".to_string()),
                (Timestamp(0), "bare".to_string()),
            ]
        );
        assert_eq!(batches[1].handle, "bob");
        assert!(batches[1].tweets.is_empty());

        let err = parse_ingest_body("[[1, \"no handle\"]]").unwrap_err();
        assert!(err.contains("`handle`"), "{err}");
        let err = parse_ingest_body("{\"handle\": \"\", \"tweets\": []}").unwrap_err();
        assert!(err.contains("non-empty"), "{err}");
        let err = parse_ingest_body("{\"handle\": \"x\"}").unwrap_err();
        assert!(err.contains("`tweets` array"), "{err}");
        let err = parse_ingest_body("{\"handle\": \"x\", \"tweets\": [[1, 2, 3]]}").unwrap_err();
        assert!(err.starts_with("line 1, tweet 1"), "{err}");
    }

    #[test]
    fn ingest_response_is_valid_json_with_escaped_handles() {
        let outcomes = vec![
            IngestOutcome {
                author_index: 20,
                handle: "quo\"ted".to_string(),
                n_tweets: 5,
            },
            IngestOutcome {
                author_index: 21,
                handle: "plain".to_string(),
                n_tweets: 2,
            },
        ];
        let body = render_ingest_response(&outcomes, 7, true);
        let v = serde_json::from_str::<serde_json::Value>(&body).unwrap();
        assert_eq!(v.get("generation").and_then(|x| x.as_u64()), Some(7));
        assert_eq!(
            v.get("refit_scheduled").and_then(|x| x.as_bool()),
            Some(true)
        );
        let ingested = v.get("ingested").and_then(|x| x.as_array()).unwrap();
        assert_eq!(ingested.len(), 2);
        assert_eq!(
            ingested[0].get("handle").and_then(|h| h.as_str()),
            Some("quo\"ted")
        );
        assert_eq!(
            ingested[1].get("author_index").and_then(|x| x.as_u64()),
            Some(21)
        );
    }

    #[test]
    fn rendered_outcomes_roundtrip_bit_exact() {
        let outcome = QueryOutcome {
            query_index: 4,
            subgraph: vec![1, 2, 4],
            subgraph_avg_weight: 0.62417,
            content_vector: vec![0.1, -2.5e-7],
            concept_vector: vec![f32::NAN],
            similarities: vec![0.25, 1.0 / 3.0, f32::INFINITY],
        };
        let text = render_outcomes(std::slice::from_ref(&outcome));
        assert!(text.ends_with('\n'));
        let v = serde_json::from_str::<serde_json::Value>(text.trim()).unwrap();
        assert_eq!(v.get("query_index").and_then(|x| x.as_i64()), Some(4));
        let sims = v.get("similarities").and_then(|x| x.as_array()).unwrap();
        // Finite floats roundtrip to the exact same bits; non-finite
        // became null.
        let s1 = sims[1].as_f64().unwrap() as f32;
        assert_eq!(s1.to_bits(), (1.0f32 / 3.0).to_bits());
        assert!(sims[2].is_null());
        let cvec = v.get("concept_vector").and_then(|x| x.as_array()).unwrap();
        assert!(cvec[0].is_null());
    }

    #[test]
    fn every_core_error_has_a_distinct_kind_and_a_status() {
        let errors = [
            CoreError::Invalid("x".into()),
            CoreError::Parse("x".into()),
            CoreError::Schema("x".into()),
            CoreError::Internal("x"),
        ];
        let kinds: Vec<&str> = errors.iter().map(error_kind).collect();
        assert_eq!(kinds, vec!["invalid", "parse", "schema", "internal"]);
        assert_eq!(status_for(&errors[0]), 400);
        assert_eq!(status_for(&errors[1]), 400);
        assert_eq!(status_for(&errors[2]), 500);
        assert_eq!(status_for(&errors[3]), 500);
    }

    #[test]
    fn error_bodies_escape_quotes() {
        let body = error_body("parse", "bad \"quote\"\nnewline");
        let v = serde_json::from_str::<serde_json::Value>(&body).unwrap();
        let msg = v
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(|m| m.as_str())
            .unwrap()
            .to_string();
        assert_eq!(msg, "bad \"quote\"\nnewline");
    }
}
