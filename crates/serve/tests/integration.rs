//! End-to-end tests of the query service over real TCP sockets: routing
//! under concurrency, byte-identical caching, robustness against hostile
//! input, deadlines, and graceful shutdown.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use wsn_serve::{Server, ServerConfig, INLINE_MAX_PACKETS};

/// Starts a server on an ephemeral port and returns its address plus the
/// handle that joins `run()`.
fn start(
    config: ServerConfig,
) -> (
    SocketAddr,
    std::thread::JoinHandle<Result<(), wsn_serve::ServeError>>,
) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..config
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

/// One request → one response over a fresh connection.
fn roundtrip(addr: SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    request_on(&mut stream, line)
}

/// One request → one response on an existing connection.
fn request_on(stream: &mut TcpStream, line: &str) -> String {
    writeln!(stream, "{line}").expect("send request");
    read_response(stream)
}

fn read_response(stream: &mut TcpStream) -> String {
    let mut response = String::new();
    BufReader::new(stream.try_clone().expect("clone stream"))
        .read_line(&mut response)
        .expect("read response");
    response.trim_end().to_string()
}

/// Tells two servers' tests apart in the kernel's eyes: every test here
/// shuts its server down so no thread outlives the test.
fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<Result<(), wsn_serve::ServeError>>) {
    let response = roundtrip(addr, r#"{"op":"shutdown"}"#);
    assert!(response.contains("shutting_down"), "{response}");
    handle.join().expect("server thread").expect("clean exit");
}

/// The `result` portion of an envelope — the part the byte-identity
/// contract covers (`cached`/`service_us` legitimately differ).
fn result_part(envelope: &str) -> &str {
    let idx = envelope.find("\"result\":").expect("has result");
    &envelope[idx..]
}

#[test]
fn ten_concurrent_clients_get_correctly_routed_responses() {
    let (addr, handle) = start(ServerConfig {
        threads: 4,
        ..ServerConfig::default()
    });

    const CLIENTS: usize = 10;
    const REQUESTS: usize = 5;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                // Pipeline everything, then read all responses: exercises
                // out-of-order execution with in-order-agnostic routing.
                for r in 0..REQUESTS {
                    let distance = 10.0 + c as f64;
                    writeln!(
                        stream,
                        r#"{{"id":"c{c}-r{r}","op":"predict","config":{{"distance_m":{distance},"power_level":{power}}}}}"#,
                        power = 3 + 4 * (r % 8),
                    )
                    .expect("send");
                }
                let mut reader = BufReader::new(stream);
                let mut got = Vec::new();
                for _ in 0..REQUESTS {
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("read");
                    got.push(line.trim_end().to_string());
                }
                (c, got)
            })
        })
        .collect();

    for worker in workers {
        let (c, responses) = worker.join().expect("client thread");
        assert_eq!(responses.len(), REQUESTS, "client {c} dropped responses");
        // Responses may complete out of order (that is what the id echo is
        // for), but every id this client sent must come back exactly once,
        // carrying this client's distance — nothing leaked across
        // connections.
        for r in 0..REQUESTS {
            let id = format!("\"id\":\"c{c}-r{r}\"");
            let matching: Vec<&String> =
                responses.iter().filter(|resp| resp.contains(&id)).collect();
            assert_eq!(
                matching.len(),
                1,
                "client {c} expected exactly one response for {id}: {responses:?}"
            );
            let response = matching[0];
            assert!(response.contains("\"ok\":true"), "{response}");
            let expected_distance = format!("\"distance\":{:.1}", 10.0 + c as f64);
            assert!(
                response.contains(&expected_distance),
                "client {c} expected {expected_distance} in {response}"
            );
        }
    }

    shutdown(addr, handle);
}

#[test]
fn repeated_request_is_cached_and_byte_identical_across_connections() {
    let (addr, handle) = start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });

    let request =
        r#"{"id":1,"op":"simulate","packets":60,"config":{"distance_m":25.0,"power_level":19}}"#;
    let first = roundtrip(addr, request);
    assert!(first.contains("\"cached\":false"), "{first}");

    // A different connection, same canonical question.
    let second = roundtrip(addr, request);
    assert!(second.contains("\"cached\":true"), "{second}");
    assert_eq!(
        result_part(&first),
        result_part(&second),
        "cached result must be byte-identical"
    );

    // The cache hit is answered in well under a millisecond.
    let service_us: u64 = {
        let tail = &second[second.find("\"service_us\":").unwrap() + 13..];
        tail[..tail.find(',').unwrap()].parse().unwrap()
    };
    assert!(service_us < 1_000, "cache hit took {service_us} µs");

    // And the stats op agrees about the hit.
    let stats = roundtrip(addr, r#"{"op":"stats"}"#);
    assert!(stats.contains("\"cache_hits\":1"), "{stats}");

    shutdown(addr, handle);
}

#[test]
fn fast_engine_requests_are_answered_and_cached_apart_from_golden() {
    let (addr, handle) = start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });

    let golden =
        r#"{"id":1,"op":"simulate","packets":60,"config":{"distance_m":25.0,"power_level":19}}"#;
    let fast = r#"{"id":2,"op":"simulate","packets":60,"config":{"distance_m":25.0,"power_level":19},"engine":"fast"}"#;

    let g = roundtrip(addr, golden);
    assert!(g.contains("\"cached\":false"), "{g}");
    assert!(g.contains("\"engine\":\"golden\""), "{g}");

    // Same question under the fast engine: the cache must recompute, never
    // serve the golden body across the mode boundary.
    let f = roundtrip(addr, fast);
    assert!(f.contains("\"cached\":false"), "{f}");
    assert!(f.contains("\"engine\":\"fast\""), "{f}");
    assert_ne!(result_part(&g), result_part(&f));

    // Each mode then replays byte-identically from its own line.
    let f2 = roundtrip(addr, fast);
    assert!(f2.contains("\"cached\":true"), "{f2}");
    assert_eq!(result_part(&f), result_part(&f2));
    let g2 = roundtrip(addr, golden);
    assert!(g2.contains("\"cached\":true"), "{g2}");
    assert_eq!(result_part(&g), result_part(&g2));

    shutdown(addr, handle);
}

#[test]
fn malformed_requests_draw_errors_but_never_kill_the_connection() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");

    // Every rejection carries its machine-readable `code` — clients
    // dispatch on that, not on message prose.
    for (bad, code) in [
        ("this is not json", "bad_request"),
        (r#"{"id":9,"op":"simulify"}"#, "unknown_op"),
        (r#"{"id":9,"op":"simulate","packet":5}"#, "bad_request"),
        (
            r#"{"id":9,"op":"simulate","config":{"power_level":0}}"#,
            "bad_request",
        ),
        (r#"[1,2,3]"#, "bad_request"),
        (
            r#"{"id":9,"op":"simulate","engine":"warp"}"#,
            "unknown_engine",
        ),
        (r#"{"id":9,"op":"tune","objective":"vibes"}"#, "bad_request"),
        (
            r#"{"id":9,"op":"scenario","scenario":"nope"}"#,
            "bad_request",
        ),
        (r#"{"id":9,"op":"predict","proto":2}"#, "bad_request"),
    ] {
        let response = request_on(&mut stream, bad);
        assert!(response.contains("\"ok\":false"), "{bad} → {response}");
        assert!(
            response.contains(&format!("\"code\":\"{code}\"")),
            "{bad} → {response}"
        );
    }

    // After all that abuse, the same connection still answers real work.
    let response = request_on(&mut stream, r#"{"id":"ok","op":"predict"}"#);
    assert!(response.contains("\"ok\":true"), "{response}");
    assert!(response.contains("\"id\":\"ok\""), "{response}");

    shutdown(addr, handle);
}

#[test]
fn oversized_line_closes_that_connection_but_not_the_server() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });

    let mut stream = TcpStream::connect(addr).expect("connect");
    // Just over the 1 MiB line cap, with no newline in sight.
    let garbage = vec![b'x'; (1 << 20) + 8192];
    stream.write_all(&garbage).expect("send garbage");
    stream.write_all(b"\n").ok();

    let mut response = String::new();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    reader
        .read_line(&mut response)
        .expect("read error response");
    assert!(response.contains("\"ok\":false"), "{response}");
    assert!(response.contains("\"code\":\"oversized\""), "{response}");

    // The server closed this connection afterwards …
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut rest = Vec::new();
    let n = reader.read_to_end(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "connection should be closed after oversized line");

    // … but keeps serving new ones.
    let response = roundtrip(addr, r#"{"id":"still-up","op":"predict"}"#);
    assert!(response.contains("\"ok\":true"), "{response}");

    shutdown(addr, handle);
}

#[test]
fn queued_past_its_deadline_draws_a_deadline_error() {
    // One worker: a slow simulation in front guarantees the impatient
    // request waits in the queue past its (zero) deadline.
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");

    writeln!(
        stream,
        r#"{{"id":"slow","op":"simulate","packets":50000,"config":{{"distance_m":35.0,"power_level":3}}}}"#
    )
    .expect("send slow");
    writeln!(
        stream,
        r#"{{"id":"impatient","op":"predict","deadline_ms":0}}"#
    )
    .expect("send impatient");

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut slow = String::new();
    reader.read_line(&mut slow).expect("slow response");
    assert!(slow.contains("\"id\":\"slow\""), "{slow}");
    assert!(slow.contains("\"ok\":true"), "{slow}");

    let mut impatient = String::new();
    reader
        .read_line(&mut impatient)
        .expect("impatient response");
    assert!(impatient.contains("\"id\":\"impatient\""), "{impatient}");
    assert!(impatient.contains("\"code\":\"deadline\""), "{impatient}");

    shutdown(addr, handle);
}

#[test]
fn expired_request_counts_as_deadline_exceeded_without_contaminating_exec_times() {
    // One worker: the slow simulation in front guarantees the impatient
    // request expires in the queue. The stats op must then show the corpse
    // under `deadline_exceeded` — NOT as a ~0 µs sample in `exec_us`.
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");

    writeln!(
        stream,
        r#"{{"id":"slow","op":"simulate","packets":50000,"config":{{"distance_m":35.0,"power_level":3}}}}"#
    )
    .expect("send slow");
    writeln!(
        stream,
        r#"{{"id":"impatient","op":"predict","deadline_ms":0}}"#
    )
    .expect("send impatient");

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for expect in ["\"id\":\"slow\"", "\"code\":\"deadline\""] {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response");
        assert!(line.contains(expect), "{line}");
    }

    let stats = request_on(&mut stream, r#"{"op":"stats"}"#);
    assert!(stats.contains("\"deadline_exceeded\":1"), "{stats}");
    // Exactly one executed job (the slow simulate) holds an exec sample …
    assert!(stats.contains("\"exec_us\":{\"count\":1,"), "{stats}");
    // … and its p50 is the slow simulation, not a near-zero corpse.
    let p50: u64 = {
        let tail = &stats[stats.find("\"exec_us\":{\"count\":1,\"p50\":").unwrap() + 28..];
        tail[..tail.find(',').unwrap()].parse().unwrap()
    };
    assert!(p50 > 1_000, "exec p50 {p50} µs looks contaminated: {stats}");
    // All three popped jobs (slow, impatient, stats) drew queue-wait samples.
    assert!(stats.contains("\"queue_wait_us\":{\"count\":3"), "{stats}");

    shutdown(addr, handle);
}

#[test]
fn access_log_records_every_request_with_the_envelope_trace_id() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("wsn-serve-access-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let (addr, handle) = start(ServerConfig {
        threads: 1,
        access_log: Some(path.clone()),
        ..ServerConfig::default()
    });

    let response = roundtrip(addr, r#"{"id":"al","op":"predict"}"#);
    assert!(response.contains("\"ok\":true"), "{response}");
    let trace: &str = {
        let idx = response.find("\"trace\":\"").expect("envelope has trace") + 9;
        &response[idx..idx + 16]
    };
    assert!(
        trace.chars().all(|c| c.is_ascii_hexdigit()),
        "trace {trace:?} is not 16 hex chars"
    );

    shutdown(addr, handle);

    // run() has returned, so the log's BufWriter has flushed on drop.
    let text = std::fs::read_to_string(&path).expect("access log exists");
    assert!(text.contains("\"event\":\"server_started\""), "{text}");
    assert!(text.contains("\"event\":\"server_stopped\""), "{text}");
    let request_line = text
        .lines()
        .find(|l| l.contains("\"event\":\"request\"") && l.contains("\"op\":\"predict\""))
        .unwrap_or_else(|| panic!("no request record for predict in: {text}"));
    assert!(
        request_line.contains(&format!("\"trace\":\"{trace}\"")),
        "log line lost the envelope's trace id: {request_line}"
    );
    for field in [
        "\"outcome\":\"ok\"",
        "\"cached\":false",
        "\"queue_wait_us\":",
        "\"exec_us\":",
        "\"bytes\":",
        "\"peer\":\"127.0.0.1:",
        "\"id\":\"\\\"al\\\"\"",
    ] {
        assert!(
            request_line.contains(field),
            "missing {field}: {request_line}"
        );
    }

    let _ = std::fs::remove_file(&path);
}

#[test]
fn tune_over_tcp_returns_a_feasible_optimum() {
    let (addr, handle) = start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });

    let response = roundtrip(
        addr,
        r#"{"id":"t","op":"tune","objective":"energy","constraints":[{"metric":"loss","max":0.01}],"distance_m":20.0}"#,
    );
    assert!(response.contains("\"ok\":true"), "{response}");
    assert!(response.contains("\"objective\":\"energy\""), "{response}");
    assert!(response.contains("\"distance\":20.0"), "{response}");

    // Identical question again: served from cache, byte-identical result.
    let again = roundtrip(
        addr,
        r#"{"id":"t2","op":"tune","objective":"energy","constraints":[{"metric":"loss","max":0.01}],"distance_m":20.0}"#,
    );
    assert!(again.contains("\"cached\":true"), "{again}");
    assert_eq!(result_part(&response), result_part(&again));

    shutdown(addr, handle);
}

#[test]
fn scenario_over_tcp_matches_the_catalog_topology() {
    let (addr, handle) = start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });

    let response = roundtrip(
        addr,
        r#"{"id":"s","op":"scenario","scenario":"hidden-pair","packets":60}"#,
    );
    assert!(response.contains("\"ok\":true"), "{response}");
    assert!(
        response.contains("\"scenario\":\"hidden-pair\""),
        "{response}"
    );
    // Two links, and the shared-air accounting came along.
    assert!(response.contains("\"frames\":"), "{response}");

    shutdown(addr, handle);
}

#[test]
fn pending_requests_are_answered_before_shutdown_completes() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");

    // A slow queued job, a cheap predict (answered on the front end, so
    // it may overtake the slow one), then shutdown — all three answered,
    // and the shutdown, queued behind the slow job, last.
    writeln!(stream, r#"{{"id":"a","op":"simulate","packets":20000}}"#).unwrap();
    writeln!(stream, r#"{{"id":"b","op":"predict"}}"#).unwrap();
    writeln!(stream, r#"{{"id":"c","op":"shutdown"}}"#).unwrap();

    let seen = read_lines(&stream, 3);
    for id in ["a", "b"] {
        let answers: Vec<&String> = seen[..2]
            .iter()
            .filter(|l| l.contains(&format!("\"id\":\"{id}\"")))
            .collect();
        assert_eq!(answers.len(), 1, "{id}: {seen:?}");
        assert!(answers[0].contains("\"ok\":true"), "{seen:?}");
    }
    assert!(seen[2].contains("\"id\":\"c\""), "{seen:?}");
    assert!(seen[2].contains("shutting_down"), "{seen:?}");

    handle.join().expect("server thread").expect("clean exit");
}

/// A unique per-test store directory under the system temp dir.
fn temp_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wsn-serve-it-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_envelope_leads_with_proto_1_and_other_protos_are_refused() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");

    // Explicit proto 1 is accepted; the response envelope leads with the
    // version so clients can dispatch before reading anything else. The
    // whole prefix is pinned: a field reorder is a protocol break.
    let ok = request_on(&mut stream, r#"{"id":7,"op":"predict","proto":1}"#);
    assert!(
        ok.starts_with(r#"{"proto":1,"id":7,"op":"predict","ok":true,"#),
        "{ok}"
    );

    // Error envelopes carry the same version, and `code` sits directly
    // before `error`.
    let err = request_on(&mut stream, r#"{"id":8,"op":"predict","proto":3}"#);
    assert!(err.starts_with(r#"{"proto":1,"id":8,"#), "{err}");
    assert!(err.contains(r#""code":"bad_request","error":"#), "{err}");
    assert!(err.contains("this server speaks proto 1"), "{err}");

    // A proto-3 speaker is refused per request, not disconnected.
    let still = request_on(&mut stream, r#"{"id":9,"op":"predict"}"#);
    assert!(still.contains("\"ok\":true"), "{still}");

    shutdown(addr, handle);
}

#[test]
fn flooding_a_tiny_queue_draws_overloaded_codes_not_hangs() {
    // Depth-1 queue behind one worker, and a full queue refuses at
    // once: pipelining a slow job plus a burst of
    // queue-bound simulations (too long to run on the front end) must
    // bounce at least one request with `overloaded`, and every request
    // still gets exactly one response line.
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");

    writeln!(
        stream,
        r#"{{"id":"slow","op":"simulate","packets":50000,"config":{{"distance_m":35.0,"power_level":3}}}}"#
    )
    .expect("send slow");
    const BURST: usize = 8;
    for i in 0..BURST {
        writeln!(stream, r#"{{"id":"b{i}","op":"simulate","packets":1000}}"#).expect("send burst");
    }

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut overloaded = 0;
    let mut answered = 0;
    for _ in 0..BURST + 1 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response");
        answered += 1;
        if line.contains("\"code\":\"overloaded\"") {
            assert!(line.contains("queue is full"), "{line}");
            overloaded += 1;
        }
    }
    assert_eq!(answered, BURST + 1, "a response line went missing");
    assert!(
        overloaded > 0,
        "no request was bounced by the depth-1 queue"
    );

    shutdown(addr, handle);
}

#[test]
fn cache_op_reports_both_tiers_over_tcp_and_flush_spares_the_disk() {
    let dir = temp_store("cacheop");
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        store: Some(dir.clone()),
        ..ServerConfig::default()
    });

    let request = r#"{"id":1,"op":"simulate","packets":60,"config":{"distance_m":25.0}}"#;
    let first = roundtrip(addr, request);
    assert!(first.contains("\"cached\":false"), "{first}");

    let report = roundtrip(addr, r#"{"id":2,"op":"cache"}"#);
    assert!(report.contains("\"mem\":{\"entries\":1,"), "{report}");
    assert!(
        report.contains("\"disk\":{\"enabled\":true,\"records\":1,"),
        "{report}"
    );

    let flush = roundtrip(addr, r#"{"id":3,"op":"cache","action":"flush"}"#);
    assert!(flush.contains("\"flushed\":true"), "{flush}");
    assert!(flush.contains("\"flushed_entries\":1"), "{flush}");
    assert!(flush.contains("\"entries\":0,"), "{flush}");

    // The memory tier is empty, the disk tier is not: the same question
    // comes back as a (byte-identical) disk hit.
    let second = roundtrip(addr, request);
    assert!(second.contains("\"cached\":true"), "{second}");
    assert_eq!(result_part(&first), result_part(&second));

    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_with_the_same_store_serves_disk_warm_byte_identical_hits() {
    let dir = temp_store("restart");
    let request =
        r#"{"id":1,"op":"simulate","packets":80,"config":{"distance_m":17.5,"power_level":23}}"#;

    // First server computes and persists.
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        store: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let first = roundtrip(addr, request);
    assert!(first.contains("\"cached\":false"), "{first}");
    shutdown(addr, handle);

    // Second server, same store directory, fresh memory: the answer is a
    // disk-warm hit and byte-identical to the original computation.
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        store: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let second = roundtrip(addr, request);
    assert!(second.contains("\"cached\":true"), "{second}");
    assert_eq!(
        result_part(&first),
        result_part(&second),
        "disk-warm hit must replay the original bytes"
    );
    let report = roundtrip(addr, r#"{"id":2,"op":"cache"}"#);
    assert!(
        report.contains("\"disk\":{\"enabled\":true,\"records\":1,"),
        "{report}"
    );
    assert!(report.contains("\"hits\":1"), "{report}");
    shutdown(addr, handle);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tight_deadline_aborts_a_full_grid_tune_mid_scan() {
    let (addr, handle) = start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });

    // 48,384 golden predictions cannot finish inside 1 ms: the worker
    // must abandon the scan cooperatively and answer with the deadline
    // code instead of burning the thread to completion. On a loaded host
    // the 1 ms budget can also run out before a worker pops the job; that
    // queue-expiry form of `deadline` is only a reason to ask again.
    let mut mid_scan = None;
    for _ in 0..5 {
        let response = roundtrip(
            addr,
            r#"{"id":"hurry","op":"tune","objective":"energy","deadline_ms":1}"#,
        );
        assert!(response.contains("\"ok\":false"), "{response}");
        assert!(response.contains("\"code\":\"deadline\""), "{response}");
        assert!(!response.contains("\"cached\":true"), "{response}");
        if response.contains("candidate evaluations") {
            mid_scan = Some(response);
            break;
        }
        assert!(response.contains("in the queue"), "{response}");
    }
    assert!(mid_scan.is_some(), "no mid-scan abort in 5 attempts");

    // The abort is not cached: with a sane deadline the same question
    // computes and answers.
    let response = roundtrip(
        addr,
        r#"{"id":"patient","op":"tune","objective":"energy","deadline_ms":60000}"#,
    );
    assert!(response.contains("\"ok\":true"), "{response}");
    assert!(response.contains("\"cached\":false"), "{response}");

    shutdown(addr, handle);
}

#[test]
fn permuted_constraints_hit_the_same_cache_line_over_tcp() {
    let (addr, handle) = start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });

    let first = roundtrip(
        addr,
        r#"{"id":1,"op":"tune","objective":"energy","distance_m":20.0,"constraints":[{"metric":"loss","max":0.02},{"metric":"delay","max":80.0}]}"#,
    );
    assert!(first.contains("\"cached\":false"), "{first}");

    // Same question, constraints listed the other way around: must be a
    // cache hit with a byte-identical result body.
    let second = roundtrip(
        addr,
        r#"{"id":2,"op":"tune","objective":"energy","distance_m":20.0,"constraints":[{"metric":"delay","max":80.0},{"metric":"loss","max":0.02}]}"#,
    );
    assert!(second.contains("\"cached\":true"), "{second}");
    assert_eq!(result_part(&first), result_part(&second));

    shutdown(addr, handle);
}

#[test]
fn pareto_and_explore_answer_over_tcp_and_count_in_stats() {
    let (addr, handle) = start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });

    let pareto = roundtrip(addr, r#"{"id":1,"op":"pareto","distance_m":25.0}"#);
    assert!(pareto.contains("\"ok\":true"), "{pareto}");
    assert!(pareto.contains("\"front\":["), "{pareto}");
    assert!(pareto.contains("\"knee\":"), "{pareto}");

    let repeat = roundtrip(addr, r#"{"id":2,"op":"pareto","distance_m":25.0}"#);
    assert!(repeat.contains("\"cached\":true"), "{repeat}");
    assert_eq!(result_part(&pareto), result_part(&repeat));

    let explore = roundtrip(
        addr,
        r#"{"id":3,"op":"explore","objective":"energy","budget":500,"distance_m":25.0}"#,
    );
    assert!(explore.contains("\"ok\":true"), "{explore}");
    assert!(explore.contains("\"budget\":500"), "{explore}");

    let stats = roundtrip(addr, r#"{"id":4,"op":"stats"}"#);
    assert!(stats.contains("\"pareto\":2"), "{stats}");
    assert!(stats.contains("\"explore\":1"), "{stats}");

    shutdown(addr, handle);
}

/// Reads `n` response lines off one connection, in arrival order.
fn read_lines(stream: &TcpStream, n: usize) -> Vec<String> {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    (0..n)
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).expect("response");
            line.trim_end().to_string()
        })
        .collect()
}

/// The 16-hex-char trace id of an envelope.
fn trace_of(envelope: &str) -> &str {
    let idx = envelope.find("\"trace\":\"").expect("envelope has trace") + 9;
    &envelope[idx..idx + 16]
}

#[test]
fn cache_hit_overtakes_a_slow_queued_miss() {
    // One worker, busy with a slow simulation: a cached answer must not
    // wait behind it, because the front end answers hits without queueing.
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    let warm = request_on(
        &mut stream,
        r#"{"id":"warm","op":"predict","config":{"distance_m":30.0}}"#,
    );
    assert!(warm.contains("\"cached\":false"), "{warm}");

    writeln!(
        stream,
        r#"{{"id":"slow","op":"simulate","packets":50000,"config":{{"distance_m":35.0,"power_level":3}}}}"#
    )
    .expect("send slow");
    writeln!(
        stream,
        r#"{{"id":"hit","op":"predict","config":{{"distance_m":30.0}}}}"#
    )
    .expect("send hit");

    let lines = read_lines(&stream, 2);
    assert!(lines[0].contains("\"id\":\"hit\""), "{lines:?}");
    assert!(lines[0].contains("\"cached\":true"), "{lines:?}");
    assert_eq!(result_part(&warm), result_part(&lines[0]));
    assert!(lines[1].contains("\"id\":\"slow\""), "{lines:?}");
    assert!(lines[1].contains("\"ok\":true"), "{lines:?}");

    shutdown(addr, handle);
}

#[test]
fn inline_hits_and_queued_misses_each_count_exactly_once() {
    // One worker keeps the control ops' own accounting sequential.
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    // Predicts miss inline on the front end; simulations longer than the
    // inline bound miss on the worker.
    let inline_miss = |m: usize| {
        format!(
            r#"{{"id":{m},"op":"predict","config":{{"power_level":{}}}}}"#,
            3 + 4 * m
        )
    };
    let queued_miss = |m: usize| {
        format!(
            r#"{{"id":{m},"op":"simulate","packets":{},"config":{{"power_level":{}}}}}"#,
            INLINE_MAX_PACKETS + 100,
            3 + 4 * m
        )
    };
    const INLINE_MISSES: usize = 3;
    const QUEUED_MISSES: usize = 2;
    const HITS: usize = 5;
    for m in 0..INLINE_MISSES {
        let response = request_on(&mut stream, &inline_miss(m));
        assert!(response.contains("\"cached\":false"), "{response}");
    }
    for m in 0..QUEUED_MISSES {
        let response = request_on(&mut stream, &queued_miss(m));
        assert!(response.contains("\"cached\":false"), "{response}");
    }
    for h in 0..HITS {
        let line = if h % 2 == 0 {
            inline_miss(h % INLINE_MISSES)
        } else {
            queued_miss(h % QUEUED_MISSES)
        };
        let response = request_on(&mut stream, &line);
        assert!(response.contains("\"cached\":true"), "{response}");
    }

    let misses = INLINE_MISSES + QUEUED_MISSES;
    let cache = request_on(&mut stream, r#"{"op":"cache"}"#);
    assert!(
        cache.contains(&format!(
            "\"mem\":{{\"entries\":{misses},\"hits\":{HITS},\"misses\":{misses},"
        )),
        "{cache}"
    );

    let stats = request_on(&mut stream, r#"{"op":"stats"}"#);
    // Every request plus the cache op finished before the stats op ran …
    let answered = misses + HITS + 1;
    assert!(
        stats.contains(&format!("\"requests\":{answered},")),
        "{stats}"
    );
    assert!(
        stats.contains(&format!(
            "\"simulate\":{},\"predict\":{},",
            QUEUED_MISSES + HITS / 2,
            INLINE_MISSES + HITS.div_ceil(2)
        )),
        "{stats}"
    );
    // … and each drew one execution sample, inline answers included …
    assert!(
        stats.contains(&format!("\"exec_us\":{{\"count\":{answered},")),
        "{stats}"
    );
    // … but only the queued jobs (the long misses, cache, this stats op)
    // waited.
    assert!(
        stats.contains(&format!(
            "\"queue_wait_us\":{{\"count\":{},",
            QUEUED_MISSES + 2
        )),
        "{stats}"
    );

    shutdown(addr, handle);
}

#[test]
fn expired_request_for_a_cached_key_draws_deadline_and_no_hit() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    let first = request_on(&mut stream, r#"{"id":1,"op":"predict"}"#);
    assert!(first.contains("\"cached\":false"), "{first}");

    let expired = request_on(&mut stream, r#"{"id":2,"op":"predict","deadline_ms":0}"#);
    assert!(expired.contains("\"code\":\"deadline\""), "{expired}");

    let cache = request_on(&mut stream, r#"{"op":"cache"}"#);
    assert!(cache.contains("\"hits\":0,\"misses\":1,"), "{cache}");
    let stats = request_on(&mut stream, r#"{"op":"stats"}"#);
    assert!(stats.contains("\"deadline_exceeded\":1"), "{stats}");

    shutdown(addr, handle);
}

#[test]
fn each_inline_hit_writes_one_access_log_record_with_its_trace() {
    let path = std::env::temp_dir().join(format!(
        "wsn-serve-inline-access-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        access_log: Some(path.clone()),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    let miss = request_on(&mut stream, r#"{"id":"m","op":"predict"}"#);
    assert!(miss.contains("\"cached\":false"), "{miss}");
    let hits: Vec<String> = (0..2)
        .map(|h| request_on(&mut stream, &format!(r#"{{"id":"h{h}","op":"predict"}}"#)))
        .collect();
    shutdown(addr, handle);

    let text = std::fs::read_to_string(&path).expect("access log exists");
    for hit in &hits {
        assert!(hit.contains("\"cached\":true"), "{hit}");
        let trace = format!("\"trace\":\"{}\"", trace_of(hit));
        let records: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"event\":\"request\"") && l.contains(&trace))
            .collect();
        assert_eq!(records.len(), 1, "{trace} in {text}");
        for field in [
            "\"outcome\":\"ok\"",
            "\"cached\":true",
            "\"queue_wait_us\":0,",
        ] {
            assert!(
                records[0].contains(field),
                "missing {field}: {}",
                records[0]
            );
        }
    }
    // The miss and the two hits, nothing else, are predict records.
    let predicts = text
        .lines()
        .filter(|l| l.contains("\"event\":\"request\"") && l.contains("\"op\":\"predict\""))
        .count();
    assert_eq!(predicts, 3, "{text}");

    let _ = std::fs::remove_file(&path);
}

#[test]
fn shutdown_disconnects_a_client_that_keeps_sending_hits() {
    // A client firing cached requests back to back never leaves its
    // reader idle, so shutdown must stop answering it inline: `run` has to
    // return and the connection has to close while it is still sending.
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let line = r#"{"id":"h","op":"predict","config":{"distance_m":30.0}}"#;
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let warm = request_on(&mut stream, line);
    assert!(warm.contains("\"ok\":true"), "{warm}");
    let client = std::thread::spawn(move || {
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let (mut answered, mut unexpected) = (0usize, None);
        let ended = loop {
            if let Err(e) = writeln!(stream, "{line}") {
                break e.kind();
            }
            let mut response = String::new();
            match reader.read_line(&mut response) {
                Ok(0) => break std::io::ErrorKind::UnexpectedEof,
                Ok(_) => {
                    answered += 1;
                    // Answered before the shutdown took hold, or refused.
                    let refused = response.contains("\"code\":\"overloaded\"")
                        && response.contains("shutting down");
                    if !response.contains("\"ok\":true") && !refused {
                        unexpected.get_or_insert(response);
                    }
                }
                Err(e) => break e.kind(),
            }
        };
        (answered, unexpected, ended)
    });
    std::thread::sleep(Duration::from_millis(100));
    let response = roundtrip(addr, r#"{"op":"shutdown"}"#);
    assert!(response.contains("shutting_down"), "{response}");

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(handle.join());
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("run returns while a client keeps sending hits")
        .expect("server thread")
        .expect("clean exit");
    let (answered, unexpected, ended) = client.join().expect("client thread");
    assert!(answered > 1, "client got {answered} answers");
    assert_eq!(unexpected, None);
    assert!(
        !matches!(
            ended,
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "connection left open after shutdown"
    );
}

/// A request line of exactly `len` bytes (newline excluded) whose `id` is
/// one long string of 2- and 3-byte UTF-8 characters; returns the line
/// and the id's JSON text as the envelope must echo it.
fn long_id_line(len: usize) -> (String, String) {
    let head = r#"{"op":"predict","engine":"analytic","id":""#;
    let tail = r#""}"#;
    let mut id = String::new();
    while head.len() + id.len() + tail.len() < len {
        let room = len - head.len() - id.len() - tail.len();
        id.push_str(match room {
            1 => "x",
            2 => "\u{e9}",
            _ => "\u{20ac}",
        });
    }
    let line = format!("{head}{id}{tail}");
    assert_eq!(line.len(), len);
    (line, format!("\"{id}\""))
}

/// Sends `line` in `chunk`-byte writes (the whole line in one write when
/// `chunk` is its length), then a short request behind it; both answers
/// must come back whole and in order. The key is warmed first, so both
/// are memory-tier hits answered in arrival order.
fn long_line_is_answered_whole(chunk: usize) {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let (line, id) = long_id_line(wsn_serve::protocol::MAX_LINE_BYTES - 16);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let warm = request_on(
        &mut stream,
        r#"{"id":"warm","op":"predict","engine":"analytic"}"#,
    );
    assert!(warm.contains("\"cached\":false"), "{warm}");
    for piece in line.as_bytes().chunks(chunk) {
        stream.write_all(piece).expect("send chunk");
    }
    stream
        .write_all(b"\n{\"id\":\"after\",\"op\":\"predict\",\"engine\":\"analytic\"}\n")
        .expect("send tail");

    let answers = read_lines(&stream, 2);
    assert!(
        answers[0].starts_with(&format!(
            "{{\"proto\":1,\"id\":{id},\"op\":\"predict\",\"ok\":true,"
        )),
        "long id not echoed byte for byte ({} bytes back)",
        answers[0].len()
    );
    assert!(answers[1].contains("\"id\":\"after\""), "{}", answers[1]);
    for answer in &answers {
        let bytes = answer.len();
        assert!(
            answer.contains("\"cached\":true"),
            "not a hit ({bytes} bytes)"
        );
        assert_eq!(result_part(answer), result_part(&warm));
    }

    shutdown(addr, handle);
}

#[test]
fn string_id_just_under_the_line_cap_is_echoed_byte_for_byte() {
    let len = wsn_serve::protocol::MAX_LINE_BYTES;
    long_line_is_answered_whole(len);
}

#[test]
fn line_just_under_the_cap_sent_in_small_chunks_is_framed_whole() {
    long_line_is_answered_whole(1000);
}

#[test]
fn pipelined_burst_in_one_write_is_answered_in_order() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let warm = request_on(
        &mut stream,
        r#"{"id":"warm","op":"predict","engine":"analytic"}"#,
    );
    assert!(warm.contains("\"cached\":false"), "{warm}");

    // 200 lines of ~170 bytes: the burst spans several 16 KiB reads, so
    // lines straddle read boundaries as well as sharing them.
    const LINES: usize = 200;
    let pad = "p".repeat(120);
    let burst: String = (0..LINES)
        .map(|i| {
            format!(
                "{{\"id\":\"burst-{i:03}-{pad}\",\"op\":\"predict\",\"engine\":\"analytic\"}}\n"
            )
        })
        .collect();
    assert!(burst.len() > 2 * 16 * 1024, "{} bytes", burst.len());
    stream.write_all(burst.as_bytes()).expect("send burst");

    let answers = read_lines(&stream, LINES);
    for (i, answer) in answers.iter().enumerate() {
        assert!(
            answer.contains(&format!("\"id\":\"burst-{i:03}-{pad}\",")),
            "answer {i} out of order: {answer}"
        );
        assert!(answer.contains("\"cached\":true"), "{answer}");
        assert_eq!(result_part(answer), result_part(&warm));
    }

    shutdown(addr, handle);
}

/// The server's `stats` answer on `stream`, and its queue-wait count (the
/// stats op itself is one of the queued jobs it counts).
fn queue_wait_count(stream: &mut TcpStream) -> u64 {
    let stats = request_on(stream, r#"{"op":"stats"}"#);
    let tail = &stats[stats.find("\"queue_wait_us\":{\"count\":").expect("stats") + 25..];
    tail[..tail.find(',').unwrap()].parse().unwrap()
}

#[test]
fn inline_miss_writes_one_access_log_record_with_zero_queue_wait() {
    let path = std::env::temp_dir().join(format!(
        "wsn-serve-inline-miss-access-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        access_log: Some(path.clone()),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    let miss = request_on(
        &mut stream,
        r#"{"id":"m","op":"simulate","packets":60,"engine":"fast"}"#,
    );
    assert!(miss.contains("\"cached\":false"), "{miss}");
    let stats = request_on(&mut stream, r#"{"op":"stats"}"#);
    // One execution sample (the miss), one queue-wait sample (this stats
    // op): the miss never queued.
    assert!(stats.contains("\"exec_us\":{\"count\":1,"), "{stats}");
    assert!(stats.contains("\"queue_wait_us\":{\"count\":1,"), "{stats}");
    shutdown(addr, handle);

    let text = std::fs::read_to_string(&path).expect("access log exists");
    let trace = format!("\"trace\":\"{}\"", trace_of(&miss));
    let records: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"event\":\"request\"") && l.contains(&trace))
        .collect();
    assert_eq!(records.len(), 1, "{trace} in {text}");
    for field in [
        "\"op\":\"simulate\"",
        "\"outcome\":\"ok\"",
        "\"cached\":false",
        "\"queue_wait_us\":0,",
    ] {
        assert!(
            records[0].contains(field),
            "missing {field}: {}",
            records[0]
        );
    }

    let _ = std::fs::remove_file(&path);
}

#[test]
fn simulations_up_to_the_inline_bound_skip_the_queue() {
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    let simulate = |packets: u64, engine: &str| {
        format!(r#"{{"id":1,"op":"simulate","packets":{packets},"engine":"{engine}"}}"#)
    };
    // At the bound, golden and fast run inline; analytic runs inline at
    // any length. Only the stats op queues.
    for line in [
        simulate(INLINE_MAX_PACKETS, "golden"),
        simulate(INLINE_MAX_PACKETS, "fast"),
        simulate(50_000, "analytic"),
    ] {
        let response = request_on(&mut stream, &line);
        assert!(response.contains("\"cached\":false"), "{response}");
    }
    assert_eq!(queue_wait_count(&mut stream), 1);
    // One packet more, and both sampling engines queue.
    for engine in ["golden", "fast"] {
        let response = request_on(&mut stream, &simulate(INLINE_MAX_PACKETS + 1, engine));
        assert!(response.contains("\"cached\":false"), "{response}");
    }
    assert_eq!(queue_wait_count(&mut stream), 1 + 2 + 1);

    shutdown(addr, handle);
}

#[test]
fn cheap_line_after_shutdown_is_refused() {
    // Two workers: one stays busy with a slow simulation, so the server
    // keeps serving connections after the other one has run the shutdown.
    let (addr, handle) = start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let mut late = TcpStream::connect(addr).expect("connect");
    late.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let warm = request_on(&mut late, r#"{"id":"warm","op":"predict"}"#);
    assert!(warm.contains("\"ok\":true"), "{warm}");
    let mut slow = TcpStream::connect(addr).expect("connect");
    writeln!(
        slow,
        r#"{{"id":"slow","op":"simulate","packets":50000,"config":{{"distance_m":35.0,"power_level":3}}}}"#
    )
    .expect("send slow");
    // Answered while the slow job runs: the slow job is queued by now.
    let stats = request_on(&mut slow, r#"{"op":"stats"}"#);
    assert!(stats.contains("\"op\":\"stats\""), "{stats}");
    let response = roundtrip(addr, r#"{"op":"shutdown"}"#);
    assert!(response.contains("shutting_down"), "{response}");

    // A fresh cheap miss is not run on the front end once the shutdown
    // has been answered: it draws the shutting-down error.
    writeln!(
        late,
        r#"{{"id":"late","op":"predict","engine":"analytic"}}"#
    )
    .expect("send late");
    let mut refusal = String::new();
    match BufReader::new(late.try_clone().expect("clone")).read_line(&mut refusal) {
        Ok(_) => {
            assert!(refusal.contains("\"code\":\"overloaded\""), "{refusal}");
            assert!(refusal.contains("server is shutting down"), "{refusal}");
        }
        Err(e) => panic!("late line neither answered nor closed: {e}"),
    }

    // The slow job still completes, and then the server exits.
    let answer = read_response(&mut slow);
    assert!(answer.contains("\"id\":\"slow\""), "{answer}");
    assert!(answer.contains("\"ok\":true"), "{answer}");
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn cheap_miss_overtakes_a_slow_queued_miss() {
    // One worker, busy with a slow simulation: a predict nobody asked
    // before must not wait behind it, because the front end runs it.
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    writeln!(
        stream,
        r#"{{"id":"slow","op":"simulate","packets":50000,"config":{{"distance_m":35.0,"power_level":3}}}}"#
    )
    .expect("send slow");
    writeln!(
        stream,
        r#"{{"id":"cheap","op":"predict","engine":"analytic","config":{{"distance_m":30.0}}}}"#
    )
    .expect("send cheap");

    let lines = read_lines(&stream, 2);
    assert!(lines[0].contains("\"id\":\"cheap\""), "{lines:?}");
    assert!(lines[0].contains("\"ok\":true"), "{lines:?}");
    assert!(lines[0].contains("\"cached\":false"), "{lines:?}");
    assert!(lines[1].contains("\"id\":\"slow\""), "{lines:?}");
    assert!(lines[1].contains("\"ok\":true"), "{lines:?}");

    shutdown(addr, handle);
}

/// Reads lines off `stream` until the server closes it.
fn read_to_eof(stream: &TcpStream) -> Vec<String> {
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    BufReader::new(stream.try_clone().expect("clone"))
        .lines()
        .map(|line| line.expect("read until the server closes"))
        .collect()
}

#[test]
fn half_closed_client_still_gets_every_queued_answer() {
    // One worker: the queued simulation is still running when the client
    // half-closes, and its answer must arrive before the server closes.
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let stream = TcpStream::connect(addr).expect("connect");
    (&stream)
        .write_all(
            b"{\"id\":\"slow\",\"op\":\"simulate\",\"packets\":5000}\n\
              {\"id\":\"cheap\",\"op\":\"predict\"}\n",
        )
        .expect("send");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");

    let lines = read_to_eof(&stream);
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert!(lines[0].contains("\"id\":\"cheap\""), "{lines:?}");
    assert!(lines[1].contains("\"id\":\"slow\""), "{lines:?}");
    assert!(lines.iter().all(|l| l.contains("\"ok\":true")), "{lines:?}");

    shutdown(addr, handle);
}

#[test]
fn final_line_without_newline_is_answered_at_eof() {
    let (addr, handle) = start(ServerConfig::default());
    let stream = TcpStream::connect(addr).expect("connect");
    (&stream)
        .write_all(
            br#"{"id":"a","op":"predict"}
{"id":"b","op":"predict","config":{"distance_m":30.0}}"#,
        )
        .expect("send");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");

    let lines = read_to_eof(&stream);
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert!(lines[0].contains("\"id\":\"a\""), "{lines:?}");
    assert!(lines[1].contains("\"id\":\"b\""), "{lines:?}");
    assert!(lines.iter().all(|l| l.contains("\"ok\":true")), "{lines:?}");

    shutdown(addr, handle);
}
