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
//! Regenerate (after a *deliberate* change to a response body only) with:
//!
//! ```text
//! WSN_UPDATE_GOLDEN=1 cargo test -p wsn-serve --test response_corpus
//! ```

use std::path::{Path, PathBuf};

use wsn_serve::engine::Engine;
use wsn_serve::protocol::{envelope_err, envelope_ok, parse_request};
use wsn_serve::store::Store;

const TRACE: &str = "0000000000000000";

fn corpus_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(name)
}

/// A fresh scratch directory for the replay's store.
fn scratch_store() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wsn-response-corpus-{}", std::process::id()));
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
    let dir = scratch_store();
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
