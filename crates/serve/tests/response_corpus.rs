//! Response-body corpus: the byte-for-byte pin on everything the serve
//! engine writes as JSON.
//!
//! `corpus/requests.jsonl` holds request lines covering every op ×
//! engine × profile (`stats` aside — it reports wall-clock timings),
//! repeated lines that come back as cache hits, ids that echo through
//! the string and float writers, and rejections whose messages need
//! escaping. The test replays them in order through a fresh [`Engine`]
//! with a persistent store attached, renders each answer as the server
//! would (with a fixed trace id and `service_us` of 0), and compares:
//!
//! * every response line with `corpus/responses.jsonl`;
//! * the store segment the replay appended with `corpus/store.jsonl`.
//!
//! A second replay pins that every answer body is exact-size (capacity
//! equal to length) whether it was computed, served from the disk tier
//! after a reopen, or installed by `warm_insert`.
//!
//! Regenerate (after a *deliberate* change to a response body only) with:
//!
//! ```text
//! WSN_UPDATE_GOLDEN=1 cargo test -p wsn-serve --test response_corpus
//! ```

use std::path::{Path, PathBuf};

use wsn_serve::engine::Engine;
use wsn_serve::protocol::{cache_key, envelope_err, envelope_ok, parse_request, RequestBody};
use wsn_serve::store::Store;

const TRACE: &str = "0000000000000000";

fn corpus_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(name)
}

/// A fresh scratch directory for one replay's store.
fn scratch_store(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("wsn-response-corpus-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The response line the server would send for `line`, minus the
/// timing-dependent envelope fields.
fn respond(engine: &Engine, line: &str) -> String {
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(rejection) => {
            return envelope_err(&rejection.id, None, None, rejection.code, &rejection.error)
        }
    };
    match engine.execute(&request.body) {
        Ok(answer) => envelope_ok(
            &request.id,
            request.op,
            answer.cached,
            0,
            TRACE,
            &answer.body,
        ),
        Err(error) => envelope_err(
            &request.id,
            Some(request.op),
            Some(TRACE),
            error.code,
            &error.message,
        ),
    }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with WSN_UPDATE_GOLDEN=1",
            path.display()
        )
    })
}

#[test]
fn corpus_replays_to_pinned_response_bodies_and_store_segment() {
    let requests = read(&corpus_path("requests.jsonl"));
    let dir = scratch_store("pin");
    let engine = Engine::new(4).with_store(Store::open(&dir).expect("open store"));

    let mut responses = String::new();
    for line in requests.lines() {
        responses.push_str(&respond(&engine, line));
        responses.push('\n');
    }
    let segment = std::fs::read_to_string(dir.join("seg-00000.jsonl")).expect("store segment");
    let _ = std::fs::remove_dir_all(&dir);

    if std::env::var_os("WSN_UPDATE_GOLDEN").is_some() {
        std::fs::write(corpus_path("responses.jsonl"), &responses).expect("write responses");
        std::fs::write(corpus_path("store.jsonl"), &segment).expect("write store segment");
    }

    let pinned = read(&corpus_path("responses.jsonl"));
    assert_eq!(
        requests.lines().count(),
        pinned.lines().count(),
        "corpus length"
    );
    for (i, ((request, got), want)) in requests
        .lines()
        .zip(responses.lines())
        .zip(pinned.lines())
        .enumerate()
    {
        assert_eq!(got, want, "response #{i} diverged for request {request}");
    }
    assert_eq!(responses, pinned, "response corpus (line endings)");
    assert_eq!(
        segment,
        read(&corpus_path("store.jsonl")),
        "store segment written from the corpus"
    );
}

/// Every corpus request that parses.
fn corpus_bodies() -> Vec<RequestBody> {
    read(&corpus_path("requests.jsonl"))
        .lines()
        .filter_map(|line| parse_request(line).ok())
        .map(|request| request.body)
        .collect()
}

/// Executes every body on `engine`, asserting each answer that comes
/// back exact-size; returns the cacheable (key, body) pairs.
fn replay_exact(engine: &Engine, bodies: &[RequestBody], pass: &str) -> Vec<(String, String)> {
    let mut answered = Vec::new();
    for (i, body) in bodies.iter().enumerate() {
        let Ok(answer) = engine.execute(body) else {
            continue;
        };
        assert_eq!(
            answer.body.capacity(),
            answer.body.len(),
            "{pass}: answer #{i} (cached {}) is not exact-size",
            answer.cached
        );
        if let Some(key) = cache_key(body) {
            answered.push((key, answer.body.to_string()));
        }
    }
    answered
}

#[test]
fn every_answer_body_is_exact_size_computed_reopened_or_warmed() {
    let bodies = corpus_bodies();
    let dir = scratch_store("exact");
    let answered = {
        let engine = Engine::new(4).with_store(Store::open(&dir).expect("open store"));
        replay_exact(&engine, &bodies, "computed")
    };
    assert!(answered.len() > 100, "the corpus answers most requests");

    // A fresh engine over the reopened store: first sightings come from
    // the disk tier and are promoted into memory.
    let engine = Engine::new(4).with_store(Store::open(&dir).expect("reopen store"));
    replay_exact(&engine, &bodies, "reopened");
    assert!(engine.store().expect("store").stats().hits > 100);
    let _ = std::fs::remove_dir_all(&dir);

    let warmed = Engine::new(4);
    for (key, body) in &answered {
        warmed.warm_insert(key, body).expect("warm");
    }
    for (i, body) in bodies.iter().enumerate() {
        let key = cache_key(body);
        if answered.iter().any(|(k, _)| Some(k) == key.as_ref()) {
            let answer = warmed.execute(body).expect("a warmed answer");
            assert!(answer.cached, "answer #{i} was warmed");
            assert_eq!(answer.body.capacity(), answer.body.len(), "warmed #{i}");
        }
    }
}
