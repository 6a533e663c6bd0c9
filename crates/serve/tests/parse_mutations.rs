//! Parser mutation sweep: every line of `corpus/requests.jsonl`, mutated
//! in a fixed, exhaustive way, goes through the request parser only —
//! never the engine. The mutations are:
//!
//! * truncation at every char boundary;
//! * each scalar value (not key) replaced with `null`, `-1`, `1e400`,
//!   `1e999`, `-1e999`, `18446744073709551616`, `"x"`, `[]` and `{}`;
//! * the first key of the top-level object duplicated;
//! * each scalar value replaced with `NaN`, `Infinity` or `-Infinity`,
//!   which are not JSON, so each such mutant must be refused with the
//!   `bad_request` code.
//!
//! Invariants, on every mutant: `parse_request` never panics and gives an
//! equal `Result` (field for field) on a second call; an `Ok` carries no
//! non-finite number (NaN or ±inf) in a config distance, a scan's
//! distance or constraint bound, or an inline timeline event's time or
//! `Move` coordinate, and `cache_key` never panics on it; and every
//! `Rejection` renders through `envelope_err` to one line that
//! `serde_json::parse` accepts, with `"ok":false` and the rejection's
//! wire code.

use std::panic::catch_unwind;

use wsn_params::timeline::TopologyAction;
use wsn_serve::protocol::{
    cache_key, envelope_err, parse_request, Rejection, RequestBody, TimelineSpec,
};

/// What each scalar value is replaced with: wrong types, out-of-range and
/// overflowing numbers, and empty containers.
const REPLACEMENTS: [&str; 9] = [
    "null",
    "-1",
    "1e400",
    "1e999",
    "-1e999",
    "18446744073709551616",
    "\"x\"",
    "[]",
    "{}",
];

/// Number spellings JSON does not have (some encoders write them for
/// non-finite floats). A line holding one as a value is not JSON.
const NOT_JSON: [&str; 3] = ["NaN", "Infinity", "-Infinity"];

/// Byte spans found by [`scan`]: every scalar value (strings with their
/// quotes, numbers, literals), and the first `"key":value` entry of the
/// top-level object. Every span starts and ends on an ASCII byte or the
/// end of the text, so each is a char-boundary slice.
struct Spans {
    scalars: Vec<(usize, usize)>,
    first_entry: Option<(usize, usize)>,
}

/// A lenient JSON tokenizer: good enough to find values in the corpus
/// lines, and total on the deliberately malformed ones.
fn scan(text: &str) -> Spans {
    let b = text.as_bytes();
    let mut scalars = Vec::new();
    let mut depth = 0usize;
    let mut first_key = None;
    let mut first_entry = None;
    let mut i = 0;
    while i < b.len() {
        let start = i;
        match b[i] {
            b'"' => {
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                i = (i + 1).min(b.len());
                let next = b[i..].iter().find(|c| !c.is_ascii_whitespace());
                if next == Some(&b':') {
                    if depth == 1 && first_key.is_none() {
                        first_key = Some(start);
                    }
                } else {
                    scalars.push((start, i));
                }
                continue;
            }
            c if c == b'-' || c.is_ascii_alphanumeric() => {
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b"+-.".contains(&b[i])) {
                    i += 1;
                }
                scalars.push((start, i));
                continue;
            }
            b'{' | b'[' => depth += 1,
            c @ (b'}' | b']' | b',') => {
                if depth == 1 && first_entry.is_none() {
                    first_entry = first_key.map(|k| (k, i));
                }
                if c != b',' {
                    depth = depth.saturating_sub(1);
                }
            }
            _ => {}
        }
        i += 1;
    }
    Spans {
        scalars,
        first_entry,
    }
}

/// `line` with each scalar value in turn replaced by each of `with`.
fn replaced(line: &str, with: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    for &(start, end) in &scan(line).scalars {
        for replacement in with {
            out.push(format!("{}{replacement}{}", &line[..start], &line[end..]));
        }
    }
    out
}

/// Every mutant of one corpus line but the [`NOT_JSON`] ones.
fn mutants(line: &str) -> Vec<String> {
    let mut out: Vec<String> = line
        .char_indices()
        .map(|(i, _)| line[..i].to_string())
        .collect();
    out.extend(replaced(line, &REPLACEMENTS));
    if let Some((start, end)) = scan(line).first_entry {
        out.push(format!(
            "{}{},{}",
            &line[..start],
            &line[start..end],
            &line[start..]
        ));
    }
    out
}

/// Checks the rejection invariant; returns what is wrong, if anything.
fn check_rejection(rejection: &Rejection) -> Result<(), String> {
    let envelope = envelope_err(&rejection.id, None, None, rejection.code, &rejection.error);
    if envelope.contains('\n') {
        return Err(format!("envelope spans lines: {envelope}"));
    }
    let value = serde_json::parse(&envelope).map_err(|e| format!("{e}: {envelope}"))?;
    if value.field("ok").as_bool() != Some(false) {
        return Err(format!("envelope is not ok:false: {envelope}"));
    }
    if value.field("code").as_str() != Some(rejection.code.name()) {
        return Err(format!("code is not the rejection's: {envelope}"));
    }
    Ok(())
}

/// True when a parsed body carries a non-finite number where a request
/// number belongs: a `null` (read as NaN) or an overflowing literal (read
/// as ±inf) there must be refused.
fn carries_non_finite(body: &RequestBody) -> bool {
    let bad = |x: f64| !x.is_finite();
    match body {
        RequestBody::Simulate { config, .. } | RequestBody::Predict { config, .. } => {
            bad(config.distance.meters())
        }
        RequestBody::Tune {
            constraints,
            distance_m,
            ..
        }
        | RequestBody::Explore {
            constraints,
            distance_m,
            ..
        } => distance_m.is_some_and(bad) || constraints.iter().any(|(_, max)| bad(*max)),
        RequestBody::Pareto { distance_m, .. } => distance_m.is_some_and(bad),
        RequestBody::Scenario {
            timeline: Some(TimelineSpec::Inline(timeline)),
            ..
        } => timeline.events().iter().any(|e| {
            bad(e.t_s)
                || match e.action {
                    TopologyAction::Move { sender, receiver } => {
                        [sender.x_m, sender.y_m, receiver.x_m, receiver.y_m]
                            .into_iter()
                            .any(bad)
                    }
                    _ => false,
                }
        }),
        _ => false,
    }
}

/// Runs every invariant on one input; returns what is wrong, if anything.
fn check(input: &str) -> Result<(), String> {
    let first = catch_unwind(|| parse_request(input)).map_err(|_| "parse panicked".to_string())?;
    let second = catch_unwind(|| parse_request(input)).map_err(|_| "parse panicked".to_string())?;
    // Compared with `==`: no accepted request carries a NaN (the
    // `carries_non_finite` check below), so equal parses compare equal.
    if first != second {
        return Err(format!("nondeterministic: {first:?} vs {second:?}"));
    }
    match first {
        Ok(request) if carries_non_finite(&request.body) => {
            Err(format!("non-finite number parsed: {request:?}"))
        }
        Ok(request) => catch_unwind(|| cache_key(&request.body))
            .map(drop)
            .map_err(|_| "cache_key panicked".to_string()),
        Err(rejection) => check_rejection(&rejection),
    }
}

/// Checks that `input` is refused with the `bad_request` code.
fn refused_as_bad_request(input: &str) -> Result<(), String> {
    match parse_request(input) {
        Err(rejection) if rejection.code.name() == "bad_request" => Ok(()),
        other => Err(format!("not refused as bad_request: {other:?}")),
    }
}

#[test]
fn every_corpus_mutant_parses_to_a_deterministic_result_or_a_clean_rejection() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/requests.jsonl");
    let corpus = std::fs::read_to_string(path).expect("read the request corpus");
    // Keep expected panics from flooding the output; each is reported
    // below with its input.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut inputs = 0usize;
    let mut failures = Vec::new();
    for line in corpus.lines() {
        for input in mutants(line) {
            inputs += 1;
            if let Err(why) = check(&input) {
                failures.push(format!("{why}\n  input: {input}"));
            }
        }
        for input in replaced(line, &NOT_JSON) {
            inputs += 1;
            if let Err(why) = check(&input).and_then(|()| refused_as_bad_request(&input)) {
                failures.push(format!("{why}\n  input: {input}"));
            }
        }
    }
    std::panic::set_hook(hook);
    assert!(inputs > 10_000, "only {inputs} mutants");
    assert!(
        failures.is_empty(),
        "{} of {inputs} mutants broke an invariant:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn the_scanner_finds_values_and_the_first_entry() {
    let line = r#"{"id":"a\"b","op":"tune","constraints":[{"metric":"loss","max":0.1}],"x":-1e3}"#;
    let spans = scan(line);
    let values: Vec<&str> = spans.scalars.iter().map(|&(s, e)| &line[s..e]).collect();
    assert_eq!(
        values,
        [r#""a\"b""#, r#""tune""#, r#""loss""#, "0.1", "-1e3"]
    );
    let (start, end) = spans.first_entry.unwrap();
    assert_eq!(&line[start..end], r#""id":"a\"b""#);
    assert!(mutants(line)
        .iter()
        .any(|m| m.starts_with(r#"{"id":"a\"b","id":"a\"b","op""#)));
}
