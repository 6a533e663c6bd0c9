//! Framing property: however a pipelined batch of request lines is cut
//! into TCP writes — including inside a UTF-8 sequence — the server frames
//! the same lines and answers them the same way, in the same order. Half
//! of the cases end with an unterminated line and a half-close, which must
//! still be answered before the server closes the connection.
//!
//! The oracle is the answer to the same batch sent in one write, compared
//! byte for byte apart from the timing fields (`service_us`, `trace`). The
//! batches are drawn from the response corpus: `predict` lines, `simulate`
//! lines short enough to run on the front end, and lines the parser
//! rejects, so every answer is produced inline and in arrival order. Some
//! lines have their id swapped for one of multibyte characters, and the
//! pool adds lines that are not UTF-8: a lone `0xFF`, a truncated
//! `0xE2 0x82` and an overlong `0xC0 0xAF`, each inside the id string and
//! outside any string. Every line, valid or not, gets exactly one
//! envelope, and the server never panics.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use proptest::prelude::*;
use proptest::TestRng;
use wsn_serve::protocol::{parse_request, RequestBody};
use wsn_serve::{Server, ServerConfig, INLINE_MAX_PACKETS};

/// Generated cases; each costs a few milliseconds.
const CASES: usize = 32;

/// Replacement ids of 2-, 3- and 4-byte UTF-8 characters.
const WIDE_IDS: [&str; 4] = [
    "\u{e9}t\u{e9}",
    "\u{20ac}42",
    "\u{65e5}\u{672c}",
    "\u{1d11e}\u{df}",
];

/// Byte sequences that are not UTF-8: a lone `0xFF`, a three-byte
/// sequence cut after two bytes, and an overlong two-byte `/`.
const INVALID_UTF8: [&[u8]; 3] = [b"\xFF", b"\xE2\x82", b"\xC0\xAF"];

/// A request line, and whether its id is a plain number that can be swapped.
struct PoolLine {
    line: Vec<u8>,
    renamable: bool,
}

/// The corpus lines every one of which is answered on the front end, plus
/// one renamable line with each [`INVALID_UTF8`] sequence put inside its
/// id string and, separately, outside any string.
fn pool() -> Vec<PoolLine> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/requests.jsonl");
    let corpus = std::fs::read_to_string(path).expect("corpus");
    let mut pool: Vec<PoolLine> = corpus
        .lines()
        .filter_map(|line| {
            let inline = match parse_request(line) {
                Err(_) => true,
                Ok(request) => match request.body {
                    RequestBody::Predict { .. } => true,
                    RequestBody::Simulate { packets, .. } => packets <= INLINE_MAX_PACKETS,
                    _ => false,
                },
            };
            let renamable = line
                .strip_prefix("{\"id\":")
                .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_digit()))
                && parse_request(line).is_ok();
            inline.then(|| PoolLine {
                line: line.as_bytes().to_vec(),
                renamable,
            })
        })
        .collect();
    let base = pool
        .iter()
        .find(|p| p.renamable)
        .expect("a renamable line")
        .line
        .clone();
    for bad in INVALID_UTF8 {
        let id = [b"a", bad, b"b"].concat();
        let outside = [b"{", bad, &base[1..]].concat();
        for line in [with_id(&base, &id), outside] {
            pool.push(PoolLine {
                line,
                renamable: false,
            });
        }
    }
    pool
}

/// `line` with its numeric id replaced by the string of bytes `id`.
fn with_id(line: &[u8], id: &[u8]) -> Vec<u8> {
    let rest = &line[b"{\"id\":".len()..];
    let end = rest
        .iter()
        .position(|&b| b == b',')
        .expect("more fields follow the id");
    [b"{\"id\":\"", id, b"\"", &rest[end..]].concat()
}

/// `lines`, each ended by a newline, as one buffer.
fn batch_of<'a>(lines: impl IntoIterator<Item = &'a Vec<u8>>) -> Vec<u8> {
    lines
        .into_iter()
        .flat_map(|l| l.iter().chain(b"\n"))
        .copied()
        .collect()
}

/// An envelope without its timing-dependent fields.
fn untimed(envelope: &str) -> String {
    let mut out = envelope.to_string();
    for field in ["\"service_us\":", "\"trace\":"] {
        if let Some(at) = out.find(field) {
            let end = at + out[at..].find(',').expect("field is not last") + 1;
            out.replace_range(at..end, "");
        }
    }
    out
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    stream
}

/// Reads `n` answer lines, or every line until the server closes.
fn read_answers(stream: &TcpStream, n: Option<usize>) -> Vec<String> {
    let lines = BufReader::new(stream.try_clone().expect("clone"))
        .lines()
        .map(|line| line.expect("answer"));
    match n {
        Some(n) => lines.take(n).collect(),
        None => lines.collect(),
    }
}

/// The answers to `batch` sent in one write.
fn one_write(addr: SocketAddr, batch: &[u8], n: usize) -> Vec<String> {
    let mut stream = connect(addr);
    stream.write_all(batch).expect("send batch");
    read_answers(&stream, Some(n))
}

/// True when `answer` is one protocol envelope.
fn is_envelope(answer: &str) -> bool {
    answer.starts_with("{\"proto\":1,")
        && serde_json::parse(answer).is_ok_and(|v| v.field("ok").as_bool().is_some())
}

#[test]
fn split_writes_are_framed_like_one_write() {
    let server = Server::bind(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());

    let pool = pool();
    assert!(pool.len() > 50, "pool of {} lines", pool.len());
    // Warm the memory tier, so every answer below is a hit on both sides.
    let all = batch_of(pool.iter().map(|p| &p.line));
    let answers = one_write(addr, &all, pool.len());
    assert_eq!(answers.len(), pool.len());
    assert!(answers.iter().all(|a| is_envelope(a)), "{answers:#?}");

    let cases = (
        prop::collection::vec((0..pool.len(), prop::option::of(0..WIDE_IDS.len())), 2..=12),
        prop::collection::vec(any::<u64>(), 1..=8),
        any::<bool>(),
    );
    let mut rng = TestRng::deterministic("framing::split_writes_are_framed_like_one_write");
    for case in 0..CASES {
        let (mut picks, cuts, half_close) = cases.generate(&mut rng);
        // Every case carries one of the lines that are not UTF-8, in turn,
        // at a position that moves from case to case, so it is sometimes
        // the unterminated last line of a half-closed batch.
        let invalid = pool.len() - 2 * INVALID_UTF8.len() + case % (2 * INVALID_UTF8.len());
        picks.insert(case % (picks.len() + 1), (invalid, None));
        let lines: Vec<Vec<u8>> = picks
            .iter()
            .map(|&(i, wide)| match wide {
                Some(w) if pool[i].renamable => with_id(&pool[i].line, WIDE_IDS[w].as_bytes()),
                _ => pool[i].line.clone(),
            })
            .collect();
        let batch = batch_of(&lines);
        let want = one_write(addr, &batch, lines.len());

        let bytes = if half_close {
            &batch[..batch.len() - 1]
        } else {
            &batch[..]
        };
        let mut offsets: Vec<usize> = cuts
            .iter()
            .map(|&c| 1 + (c as usize) % (bytes.len() - 1))
            .collect();
        // Always cut inside one multibyte sequence, when there is one.
        let wide: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] >= 0xC0).collect();
        if !wide.is_empty() {
            offsets.push(wide[cuts[0] as usize % wide.len()] + 1);
        }
        offsets.sort_unstable();
        offsets.dedup();

        let mut stream = connect(addr);
        let mut from = 0;
        for &to in offsets.iter().chain([bytes.len()].iter()) {
            stream.write_all(&bytes[from..to]).expect("send piece");
            from = to;
            // Let the server read each piece on its own.
            std::thread::sleep(Duration::from_millis(1));
        }
        let got = if half_close {
            stream.shutdown(Shutdown::Write).expect("half-close");
            read_answers(&stream, None)
        } else {
            read_answers(&stream, Some(lines.len()))
        };

        let context = format!(
            "case {case}: cuts {offsets:?}, half-close {half_close}\n{}",
            String::from_utf8_lossy(&batch)
        );
        assert_eq!(got.len(), lines.len(), "{context}");
        assert!(got.iter().all(|a| is_envelope(a)), "{context}");
        for (got, want) in got.iter().zip(&want) {
            assert_eq!(untimed(got), untimed(want), "{context}");
        }
    }
    let mut stream = connect(addr);
    writeln!(stream, r#"{{"op":"shutdown"}}"#).expect("send shutdown");
    assert!(read_answers(&stream, Some(1))[0].contains("shutting_down"));
    handle.join().expect("server thread").expect("clean exit");
}
