//! End-to-end suite: a real server on an ephemeral port, hammered by
//! concurrent clients over real sockets.
//!
//! The invariants under test are the ISSUE 7 acceptance criteria plus
//! the ISSUE 9 ingestion contract: served responses are *bit-identical*
//! to direct `link_query_authors` output, no accepted request is
//! dropped under concurrency, fault injection (truncated bodies,
//! oversized payloads, gibberish, chunked transfer coding) yields
//! typed 4xx/501 — never a panic or a hang — `POST /ingest` grows the
//! serving generation in place, generation swaps never tear or drop a
//! request, and `POST /shutdown` drains everything in flight before
//! `serve` returns.

use soulmate_core::{
    EngineCell, EngineGeneration, EngineMode, Pipeline, PipelineConfig, PipelineSnapshot,
    RefitManager, Trigger,
};
use soulmate_corpus::{generate, Dataset, GeneratorConfig, Timestamp};
use soulmate_serve::{serve, serve_with_refit, ServeConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Barrier};
use std::time::Duration;

fn fixture() -> (Dataset, PipelineSnapshot) {
    let dataset = generate(&GeneratorConfig {
        n_authors: 16,
        n_communities: 4,
        n_concepts: 5,
        entities_per_concept: 8,
        mean_tweets_per_author: 25,
        ..GeneratorConfig::small()
    })
    .unwrap();
    let pipeline = Pipeline::fit(&dataset, PipelineConfig::fast()).unwrap();
    let handles: Vec<String> = dataset.authors.iter().map(|a| a.handle.clone()).collect();
    let snapshot = pipeline.snapshot(&handles);
    (dataset, snapshot)
}

/// Tweets of one dataset author, as a query group.
fn author_tweets(dataset: &Dataset, author: u32, take: usize) -> Vec<(Timestamp, String)> {
    dataset
        .tweets
        .iter()
        .filter(|t| t.author == author)
        .take(take)
        .map(|t| (t.timestamp, t.text.clone()))
        .collect()
}

/// NDJSON request line for a tweet group.
fn query_line(tweets: &[(Timestamp, String)]) -> String {
    let pairs: Vec<String> = tweets
        .iter()
        .map(|(ts, text)| format!("[{}, {}]", ts.0, serde_json::to_string(text).unwrap()))
        .collect();
    format!("[{}]", pairs.join(", "))
}

/// Connect and write one whole request; the answer is left unread.
fn send_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    stream
}

/// One full HTTP exchange; returns (status, body).
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = send_request(addr, method, path, body);
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    parse_response(&raw)
}

fn parse_response(raw: &str) -> (u16, String) {
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header terminator in {raw:?}"));
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"));
    (status, body.to_string())
}

/// An [`EngineCell`] holding one generation built from `snapshot`.
fn cell(snapshot: &PipelineSnapshot, mode: EngineMode) -> EngineCell {
    EngineCell::new(EngineGeneration::from_snapshot(snapshot.clone(), mode).unwrap())
}

/// Run `body(addr)` against a live server and shut it down afterwards;
/// asserts the server exits cleanly.
fn with_server(cell: &EngineCell, config: ServeConfig, body: impl FnOnce(SocketAddr) + Send) {
    with_refit_server(cell, None, config, body);
}

/// [`with_server`] with an optional attached refit manager.
fn with_refit_server(
    cell: &EngineCell,
    refit: Option<&RefitManager>,
    config: ServeConfig,
    body: impl FnOnce(SocketAddr) + Send,
) {
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let handle = scope.spawn(move || {
            serve_with_refit(cell, refit, &config, move |addr| tx.send(addr).unwrap())
        });
        let addr = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("server never reported ready");
        // Shut the server down even when `body` panics: otherwise the
        // scope waits on the server threads forever and a failing
        // assertion turns into a hung test.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(addr)));
        let (status, _) = exchange(addr, "POST", "/shutdown", "");
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
        assert_eq!(status, 202);
        handle
            .join()
            .expect("server thread panicked")
            .expect("serve returned an error");
    });
}

#[test]
fn health_metrics_and_routing() {
    let (_, snapshot) = fixture();
    let cell = cell(&snapshot, EngineMode::Exact);
    with_server(&cell, ServeConfig::default(), |addr| {
        let (status, body) = exchange(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"authors\":16"), "{body}");
        assert!(body.contains("\"generation\":0"), "{body}");

        let (status, body) = exchange(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        // The registry export is JSON with the serve counters present
        // once a request has been counted.
        assert!(body.contains("serve.requests"), "{body}");

        let (status, body) = exchange(addr, "GET", "/nope", "");
        assert_eq!(status, 404);
        assert!(body.contains("\"kind\":\"not_found\""), "{body}");

        let (status, body) = exchange(addr, "GET", "/link", "");
        assert_eq!(status, 405);
        assert!(body.contains("\"kind\":\"method_not_allowed\""), "{body}");
    });
}

#[test]
fn routing_strips_query_strings_and_fragments() {
    let (_, snapshot) = fixture();
    let cell = cell(&snapshot, EngineMode::Exact);
    with_server(&cell, ServeConfig::default(), |addr| {
        // Regression: the router used to match the raw request target,
        // so any query string 404'd a perfectly valid route.
        let (status, body) = exchange(addr, "GET", "/healthz?probe=lb", "");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"status\":\"ok\""), "{body}");

        let (status, body) = exchange(addr, "GET", "/healthz#fragment", "");
        assert_eq!(status, 200, "{body}");

        // The query string reaches the handler, not the 404 arm: an
        // empty /link body is the handler's own `invalid` 400.
        let (status, body) = exchange(addr, "POST", "/link?verbose=1", "");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("\"kind\":\"invalid\""), "{body}");

        // Method check happens on the stripped route too.
        let (status, body) = exchange(addr, "GET", "/link?x=1", "");
        assert_eq!(status, 405, "{body}");

        // Unknown paths still 404 and the message keeps the raw
        // target so clients see exactly what they sent.
        let (status, body) = exchange(addr, "GET", "/nope?x=1", "");
        assert_eq!(status, 404, "{body}");
        assert!(body.contains("/nope?x=1"), "{body}");
    });
}

#[test]
fn chunked_transfer_encoding_is_501_not_an_empty_body() {
    let (_, snapshot) = fixture();
    let cell = cell(&snapshot, EngineMode::Exact);
    with_server(&cell, ServeConfig::default(), |addr| {
        // Regression: a chunked /link request used to be parsed as an
        // empty body (the header was silently ignored) and answered
        // 400 `invalid` — misframing the connection. RFC 7230 §3.3.3
        // requires refusing the unimplemented transfer coding.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(
                b"POST /link HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n\r\n\
                  10\r\n[[0, \"whatever\"]]\r\n0\r\n\r\n",
            )
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (status, body) = parse_response(&raw);
        assert_eq!(status, 501, "{body}");
        assert!(body.contains("\"kind\":\"not_implemented\""), "{body}");

        // The server is healthy afterwards.
        let (status, _) = exchange(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
    });
}

#[test]
fn concurrent_mixed_load_is_bit_identical_and_lossless() {
    let (dataset, snapshot) = fixture();
    let engine = snapshot.query_engine(EngineMode::Exact).unwrap();

    // Precompute the expected wire body for every valid author query by
    // running the exact same batch through the engine directly.
    let groups: Vec<Vec<(Timestamp, String)>> =
        (0..8u32).map(|a| author_tweets(&dataset, a, 6)).collect();
    let expected: Vec<String> = groups
        .iter()
        .map(|g| {
            let outcomes = engine.link_query_authors(std::slice::from_ref(g)).unwrap();
            soulmate_serve::render_outcomes(&outcomes)
        })
        .collect();
    drop(engine);

    let cell = cell(&snapshot, EngineMode::Exact);
    let config = ServeConfig {
        threads: 4,
        queue_depth: 256,
        ..ServeConfig::default()
    };
    with_server(&cell, config, |addr| {
        let per_client = 6usize;
        std::thread::scope(|scope| {
            let mut workers = Vec::new();
            for client in 0..8usize {
                let (groups, expected) = (&groups, &expected);
                workers.push(scope.spawn(move || {
                    let mut answered = 0usize;
                    for i in 0..per_client {
                        match (client + i) % 3 {
                            // Valid query: response must be bit-identical
                            // to the direct engine call.
                            0 => {
                                let which = (client * per_client + i) % groups.len();
                                let line = query_line(&groups[which]);
                                let (status, body) = exchange(addr, "POST", "/link", &line);
                                assert_eq!(status, 200, "{body}");
                                assert_eq!(body, expected[which], "author {which} diverged");
                            }
                            // Out-of-vocabulary query: typed 400, kind
                            // `invalid`, served without disturbing others.
                            1 => {
                                let line = "[[0, \"zzzunknown wordsxq notinvocab\"]]";
                                let (status, body) = exchange(addr, "POST", "/link", line);
                                assert_eq!(status, 400, "{body}");
                                assert!(body.contains("\"kind\":\"invalid\""), "{body}");
                            }
                            // Malformed line: typed 400, kind `parse`.
                            _ => {
                                let (status, body) =
                                    exchange(addr, "POST", "/link", "this is not json");
                                assert_eq!(status, 400, "{body}");
                                assert!(body.contains("\"kind\":\"parse\""), "{body}");
                            }
                        }
                        answered += 1;
                    }
                    answered
                }));
            }
            let total: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
            // Every request got an answer: nothing was dropped.
            assert_eq!(total, 8 * per_client);
        });
    });
}

#[test]
fn batches_match_the_multi_query_engine_path() {
    let (dataset, snapshot) = fixture();
    let engine = snapshot.query_engine(EngineMode::Exact).unwrap();
    let groups: Vec<Vec<(Timestamp, String)>> =
        (0..4u32).map(|a| author_tweets(&dataset, a, 5)).collect();
    let direct = soulmate_serve::render_outcomes(&engine.link_query_authors(&groups).unwrap());
    drop(engine);

    let cell = cell(&snapshot, EngineMode::Exact);
    with_server(&cell, ServeConfig::default(), |addr| {
        let body: String = groups
            .iter()
            .map(|g| query_line(g) + "\n")
            .collect::<String>();
        let (status, served) = exchange(addr, "POST", "/link", &body);
        assert_eq!(status, 200, "{served}");
        assert_eq!(served, direct, "batch response diverged from engine output");
        // One outcome line per query, in order.
        assert_eq!(served.lines().count(), groups.len());
        for (i, line) in served.lines().enumerate() {
            let v = serde_json::from_str::<serde_json::Value>(line).unwrap();
            assert!(v.get("query_index").is_some(), "line {i}: {line}");
        }
    });
}

#[test]
fn ivf_serving_matches_the_ivf_engine_path() {
    let (dataset, snapshot) = fixture();
    let plan = EngineMode::Ivf { nprobe: 0 };
    let engine = snapshot.query_engine(plan).unwrap();
    assert!(engine.index().is_some());
    let groups: Vec<Vec<(Timestamp, String)>> =
        (0..3u32).map(|a| author_tweets(&dataset, a, 5)).collect();
    let direct = soulmate_serve::render_outcomes(&engine.link_query_authors(&groups).unwrap());
    drop(engine);

    let cell = cell(&snapshot, plan);
    with_server(&cell, ServeConfig::default(), |addr| {
        let body: String = groups
            .iter()
            .map(|g| query_line(g) + "\n")
            .collect::<String>();
        let (status, served) = exchange(addr, "POST", "/link", &body);
        assert_eq!(status, 200, "{served}");
        assert_eq!(served, direct, "IVF response diverged from engine output");
    });
}

#[test]
fn quant_serving_matches_the_quant_engine_path() {
    let (dataset, snapshot) = fixture();
    let plan = EngineMode::Quant { rerank: 4 };
    let engine = snapshot.query_engine(plan).unwrap();
    assert!(engine.quant_enabled());
    let groups: Vec<Vec<(Timestamp, String)>> =
        (0..3u32).map(|a| author_tweets(&dataset, a, 5)).collect();
    let direct = soulmate_serve::render_outcomes(&engine.link_query_authors(&groups).unwrap());
    drop(engine);

    let cell = cell(&snapshot, plan);
    with_server(&cell, ServeConfig::default(), |addr| {
        let body: String = groups
            .iter()
            .map(|g| query_line(g) + "\n")
            .collect::<String>();
        let (status, served) = exchange(addr, "POST", "/link", &body);
        assert_eq!(status, 200, "{served}");
        assert_eq!(served, direct, "quant response diverged from engine output");
    });
}

/// A delta ingest detaches the IVF index, so an IVF-plan server answers
/// the grown generation on the exact path — and counts every such batch
/// as a fallback instead of hiding it.
#[test]
fn ivf_serving_after_ingest_falls_back_to_exact_and_counts_it() {
    let (dataset, snapshot) = fixture();
    let plan = EngineMode::Ivf { nprobe: 0 };
    let serving = cell(&snapshot, plan);

    let new_tweets = author_tweets(&dataset, 3, 8);
    let batches = vec![soulmate_core::IngestBatch {
        handle: "newbie".to_string(),
        tweets: new_tweets.clone(),
    }];
    let gen0 = EngineGeneration::from_snapshot(snapshot.clone(), plan).unwrap();
    let (gen1, _) = gen0.ingest(&batches).unwrap();
    assert!(gen1.engine().index().is_none(), "ingest detaches the index");
    assert_eq!(gen1.mode(), plan, "the plan survives the ingest");
    let probe = author_tweets(&dataset, 1, 5);
    let direct = soulmate_serve::render_outcomes(
        &gen1
            .engine()
            .with_mode(EngineMode::Exact)
            .link_query_authors(std::slice::from_ref(&probe))
            .unwrap(),
    );

    with_server(&serving, ServeConfig::default(), |addr| {
        let (status, body) = exchange(addr, "POST", "/ingest", &ingest_line("newbie", &new_tweets));
        assert_eq!(status, 200, "{body}");
        let fallbacks = || soulmate_obs::global().counter("engine.ivf.fallbacks");
        let before = fallbacks();
        let (status, served) = exchange(addr, "POST", "/link", &query_line(&probe));
        assert_eq!(status, 200, "{served}");
        assert_eq!(served, direct, "IVF fallback diverged from the exact path");
        assert!(fallbacks() > before, "the exact fallback went uncounted");
    });
}

#[test]
fn fault_injection_truncated_and_oversized_bodies() {
    let (_, snapshot) = fixture();
    let cell = cell(&snapshot, EngineMode::Exact);
    let config = ServeConfig {
        max_body_bytes: 512,
        read_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    with_server(&cell, config, |addr| {
        // Oversized declared payload: refused up front with 413.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"POST /link HTTP/1.1\r\nContent-Length: 1048576\r\n\r\n")
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (status, body) = parse_response(&raw);
        assert_eq!(status, 413, "{body}");
        assert!(body.contains("\"kind\":\"payload_too_large\""), "{body}");

        // Truncated body, connection held open: the read timeout turns
        // it into a 400 instead of a hung worker.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"POST /link HTTP/1.1\r\nContent-Length: 400\r\n\r\n[[0,")
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (status, body) = parse_response(&raw);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("truncated"), "{body}");

        // Truncated body, write half closed: same 400 path via EOF.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"POST /link HTTP/1.1\r\nContent-Length: 400\r\n\r\nabc")
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (status, _) = parse_response(&raw);
        assert_eq!(status, 400);

        // Gibberish request line.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (status, _) = parse_response(&raw);
        assert_eq!(status, 400);

        // The server is still healthy after all of that.
        let (status, _) = exchange(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
    });
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let (dataset, snapshot) = fixture();
    let cell = cell(&snapshot, EngineMode::Exact);
    let groups: Vec<Vec<(Timestamp, String)>> =
        (0..4u32).map(|a| author_tweets(&dataset, a, 6)).collect();

    let config = ServeConfig {
        threads: 2,
        queue_depth: 64,
        ..ServeConfig::default()
    };
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let cell_ref = &cell;
        let server =
            scope.spawn(move || serve(cell_ref, &config, move |addr| tx.send(addr).unwrap()));
        let addr = rx.recv_timeout(Duration::from_secs(10)).unwrap();

        // Send a wave of queries and, while they are in flight, the
        // shutdown request. Every query must still be answered. Each
        // client connects and writes its whole request before the
        // barrier; only then does `/shutdown` connect, so every query's
        // connection sits ahead of it in the accept queue and is
        // accepted before the shutdown flag can rise. Answers are read
        // after the shutdown was sent.
        const CLIENTS: usize = 6;
        let sent = Barrier::new(CLIENTS + 1);
        std::thread::scope(|clients| {
            let mut workers = Vec::new();
            for i in 0..CLIENTS {
                let (groups, sent) = (&groups, &sent);
                workers.push(clients.spawn(move || {
                    let line = query_line(&groups[i % groups.len()]);
                    let mut stream = send_request(addr, "POST", "/link", &line);
                    sent.wait();
                    let mut raw = String::new();
                    stream.read_to_string(&mut raw).unwrap();
                    parse_response(&raw).0
                }));
            }
            sent.wait();
            let (shut_status, _) = exchange(addr, "POST", "/shutdown", "");
            for w in workers {
                let status = w.join().unwrap();
                assert_eq!(status, 200, "in-flight request dropped during shutdown");
            }
            assert_eq!(shut_status, 202);
        });

        server
            .join()
            .expect("server thread panicked")
            .expect("serve returned an error");
        // The listener is gone: new connections are refused.
        assert!(TcpStream::connect(addr).is_err());
    });
}

/// The backlog window of a shutdown: queries that connected before the
/// `POST /shutdown` was read, but still wait in the accept queue behind
/// the one busy worker, are each answered — 200 for the queued ones, 503
/// for those the full queue shed at the door — and never reset.
#[test]
fn shutdown_answers_queries_queued_behind_it() {
    let (dataset, snapshot) = fixture();
    let cell = cell(&snapshot, EngineMode::Exact);
    let line = query_line(&author_tweets(&dataset, 1, 6));
    const QUEUE: usize = 3;
    let config = ServeConfig {
        threads: 1,
        queue_depth: QUEUE,
        ..ServeConfig::default()
    };
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let cell_ref = &cell;
        let server =
            scope.spawn(move || serve(cell_ref, &config, move |addr| tx.send(addr).unwrap()));
        let addr = rx.recv_timeout(Duration::from_secs(10)).unwrap();

        // The worker takes this connection first and blocks reading it
        // until the shutdown request is written below.
        let mut shut = TcpStream::connect(addr).unwrap();
        shut.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        std::thread::sleep(Duration::from_millis(200));
        // Meanwhile the queries connect and send: QUEUE of them wait in
        // the queue, the rest are shed when it is full.
        let links: Vec<TcpStream> = (0..QUEUE + 2)
            .map(|_| send_request(addr, "POST", "/link", &line))
            .collect();
        std::thread::sleep(Duration::from_millis(200));
        shut.write_all(b"POST /shutdown HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        let mut raw = String::new();
        shut.read_to_string(&mut raw).unwrap();
        assert_eq!(parse_response(&raw).0, 202);

        // A reset fails `read_to_string`; a silent close fails the parse.
        let statuses: Vec<u16> = links
            .into_iter()
            .map(|mut stream| {
                let mut raw = String::new();
                stream.read_to_string(&mut raw).unwrap();
                parse_response(&raw).0
            })
            .collect();
        assert!(
            statuses.iter().all(|&s| s == 200 || s == 503),
            "{statuses:?}"
        );
        assert_eq!(
            statuses.iter().filter(|&&s| s == 200).count(),
            QUEUE,
            "{statuses:?}"
        );

        server
            .join()
            .expect("server thread panicked")
            .expect("serve returned an error");
    });
}

/// NDJSON `/ingest` request line for one new author.
fn ingest_line(handle: &str, tweets: &[(Timestamp, String)]) -> String {
    let pairs: Vec<String> = tweets
        .iter()
        .map(|(ts, text)| format!("[{}, {}]", ts.0, serde_json::to_string(text).unwrap()))
        .collect();
    format!(
        "{{\"handle\": {}, \"tweets\": [{}]}}",
        serde_json::to_string(handle).unwrap(),
        pairs.join(", ")
    )
}

/// Poll `/healthz` until the reported generation reaches `want`.
fn wait_for_generation(addr: SocketAddr, want: u64, timeout: Duration) {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        let (status, body) = exchange(addr, "GET", "/healthz", "");
        assert_eq!(status, 200, "{body}");
        let v = serde_json::from_str::<serde_json::Value>(&body).unwrap();
        let generation = v.get("generation").and_then(|g| g.as_u64()).unwrap();
        if generation >= want {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "generation never reached {want}: {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn ingest_grows_the_serving_generation_in_place() {
    let (dataset, snapshot) = fixture();
    let serving = cell(&snapshot, EngineMode::Exact);

    // Expected wire bytes: grow a generation directly with the same
    // batch and render a probe query from it.
    let new_tweets = author_tweets(&dataset, 3, 8);
    let batches = vec![soulmate_core::IngestBatch {
        handle: "newbie".to_string(),
        tweets: new_tweets.clone(),
    }];
    let gen0 = EngineGeneration::from_snapshot(snapshot.clone(), EngineMode::Exact).unwrap();
    let (grown, _) = gen0.ingest(&batches).unwrap();
    let probe = author_tweets(&dataset, 1, 5);
    let direct = soulmate_serve::render_outcomes(
        &grown
            .engine()
            .link_query_authors(std::slice::from_ref(&probe))
            .unwrap(),
    );

    with_server(&serving, ServeConfig::default(), |addr| {
        let (status, body) = exchange(addr, "POST", "/ingest", &ingest_line("newbie", &new_tweets));
        assert_eq!(status, 200, "{body}");
        let v = serde_json::from_str::<serde_json::Value>(&body).unwrap();
        assert_eq!(v.get("generation").and_then(|g| g.as_u64()), Some(1));
        // No refit manager attached: nothing to schedule.
        assert_eq!(
            v.get("refit_scheduled").and_then(|r| r.as_bool()),
            Some(false)
        );
        let ingested = v.get("ingested").and_then(|x| x.as_array()).unwrap();
        assert_eq!(ingested.len(), 1);
        assert_eq!(
            ingested[0].get("author_index").and_then(|x| x.as_u64()),
            Some(16)
        );
        assert_eq!(
            ingested[0].get("handle").and_then(|h| h.as_str()),
            Some("newbie")
        );

        // /healthz reflects the swap immediately.
        let (status, body) = exchange(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"authors\":17"), "{body}");
        assert!(body.contains("\"generation\":1"), "{body}");

        // Served queries are bit-identical to the directly-grown engine.
        let (status, served) = exchange(addr, "POST", "/link", &query_line(&probe));
        assert_eq!(status, 200, "{served}");
        assert_eq!(served, direct, "served delta generation diverged");

        // Malformed and unvectorizable ingest bodies are typed errors,
        // and neither bumps the generation.
        let (status, body) = exchange(addr, "POST", "/ingest", "{\"nope\": 1}");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("\"kind\":\"parse\""), "{body}");
        let oov = ingest_line("ghost", &[(Timestamp(0), "zzzqqq xxyyzz".to_string())]);
        let (status, body) = exchange(addr, "POST", "/ingest", &oov);
        assert_eq!(status, 400, "{body}");
        let (_, body) = exchange(addr, "GET", "/healthz", "");
        assert!(body.contains("\"generation\":1"), "{body}");
    });
}

#[test]
fn generation_swaps_never_tear_or_drop_requests() {
    let (dataset, snapshot) = fixture();
    let serving = cell(&snapshot, EngineMode::Exact);
    // Trigger fires once 6 tweets accumulate — the single ingest below
    // crosses it, scheduling a background full refit.
    let manager = RefitManager::new(
        dataset.clone(),
        PipelineConfig::fast(),
        Trigger::new(6),
        EngineMode::Exact,
        None,
    );
    let config = ServeConfig {
        threads: 4,
        queue_depth: 256,
        ..ServeConfig::default()
    };
    with_refit_server(&serving, Some(&manager), config, |addr| {
        let stop = std::sync::atomic::AtomicBool::new(false);
        let groups: Vec<Vec<(Timestamp, String)>> =
            (0..4u32).map(|a| author_tweets(&dataset, a, 5)).collect();
        std::thread::scope(|clients| {
            let mut workers = Vec::new();
            for c in 0..4usize {
                let (stop, groups) = (&stop, &groups);
                workers.push(clients.spawn(move || {
                    let mut served = 0usize;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let line = query_line(&groups[(c + served) % groups.len()]);
                        let (status, body) = exchange(addr, "POST", "/link", &line);
                        // Zero dropped, zero 5xx: every query during the
                        // delta publish and the refit swap succeeds.
                        assert_eq!(status, 200, "query failed during swap: {body}");
                        // Consistency: the answer comes from exactly one
                        // whole generation — 16 (seed), 17 (delta), or
                        // 17-author refit — never a torn mixture.
                        let v = serde_json::from_str::<serde_json::Value>(body.trim()).unwrap();
                        let sims = v.get("similarities").and_then(|s| s.as_array()).unwrap();
                        // One similarity per existing author (the query
                        // row is not part of it).
                        let n_authors = sims.len();
                        assert!(
                            (16..=17).contains(&n_authors),
                            "torn generation: {n_authors} authors"
                        );
                        served += 1;
                    }
                    served
                }));
            }

            // Mid-load: ingest one author with 8 tweets (>= trigger 6).
            let (status, body) = exchange(
                addr,
                "POST",
                "/ingest",
                &ingest_line("grow-1", &author_tweets(&dataset, 5, 8)),
            );
            assert_eq!(status, 200, "{body}");
            assert!(body.contains("\"refit_scheduled\":true"), "{body}");
            assert!(body.contains("\"generation\":1"), "{body}");

            // Generation 2 is the background refit landing.
            wait_for_generation(addr, 2, Duration::from_secs(120));
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            let total: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
            assert!(total > 0, "load generator never issued a query");
        });

        // The refit generation serves the grown author set.
        let (status, body) = exchange(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"authors\":17"), "{body}");
    });
}
