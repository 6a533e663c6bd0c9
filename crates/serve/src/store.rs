//! Append-only on-disk result store: the persistent tier under the
//! in-memory splice cache.
//!
//! Layout: a directory of JSONL segments (`seg-00000.jsonl`, …), each
//! line one `{"k":"<cache key>","v":"<envelope result body>"}` record.
//! Records are immutable once written; re-answering a key appends a new
//! record and lookups walk the index newest-first (last-wins). An FNV
//! hash index maps key hashes to record locations, so a lookup is one
//! `pread` plus a key verification — no seeks through cold segments.
//!
//! The index is packed: each hash holds one 16-byte location in a flat
//! map, with no allocation of its own. Only a hash that has seen more than
//! one record — a re-appended key, or two keys with one FNV hash — keeps
//! its older locations in a side map.
//!
//! Crash safety is by construction: the only mutation is an append, so
//! the only possible corruption is a torn tail on the *last* segment. On
//! open, a trailing record that fails to parse (or lacks its newline) is
//! truncated away and the store continues from the previous record. A
//! malformed line in any *earlier* segment is real corruption and fails
//! the open loudly rather than silently serving damaged bodies.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::Deserialize;

use crate::cache::fnv1a;

/// Default segment roll threshold: 4 MiB keeps torn-tail scans and
/// per-segment reader handles cheap without fragmenting small stores.
const DEFAULT_ROLL_BYTES: u64 = 4 << 20;

/// One persisted record, as read back. Bodies are stored verbatim as JSON
/// strings, so the round-trip through the vendored JSON writer and parser
/// is byte-exact; [`Store::append`] writes the same shape field by field.
#[derive(Debug, Deserialize)]
struct StoreRecord {
    k: String,
    v: String,
}

/// Where a record lives: byte offset, segment ordinal, line length
/// (including the trailing newline). 16 bytes.
#[derive(Debug, Clone, Copy)]
struct Loc {
    off: u64,
    seg: u32,
    len: u32,
}

/// Unit tests fold every key into four index hashes, so each store test
/// also walks the path where distinct keys share a hash.
const INDEX_HASH_MASK: u64 = if cfg!(test) { 0b11 } else { u64::MAX };

/// The index hash of `key`.
fn index_hash(key: &str) -> u64 {
    fnv1a(key) & INDEX_HASH_MASK
}

/// Record locations by index hash.
#[derive(Debug, Default)]
struct Index {
    /// The newest location of every hash.
    newest: HashMap<u64, Loc>,
    /// Superseded locations, oldest first — only for hashes that have
    /// seen more than one record.
    older: HashMap<u64, Vec<Loc>>,
}

impl Index {
    fn push(&mut self, hash: u64, loc: Loc) {
        if let Some(prev) = self.newest.insert(hash, loc) {
            self.older.entry(hash).or_default().push(prev);
        }
    }
}

#[derive(Debug)]
struct Inner {
    index: Index,
    /// One shared read handle per segment, ordinal order.
    readers: Vec<Arc<File>>,
    /// Append handle for the last segment.
    active: File,
    active_seg: u32,
    active_len: u64,
    records: u64,
    total_bytes: u64,
}

/// Counters and sizes for the `cache` op's disk tier report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Indexed records (all segments; superseded versions included).
    pub records: u64,
    /// Segment files on disk, the active one included.
    pub segments: u64,
    /// Total bytes across all segments.
    pub bytes: u64,
    /// Lifetime lookups that found the key.
    pub hits: u64,
    /// Lifetime lookups that missed.
    pub misses: u64,
    /// Lifetime records appended through this handle.
    pub appends: u64,
}

/// The append-only store. All methods take `&self`; appends serialize on
/// an internal lock while reads clone the segment handle out of the lock
/// and `pread` concurrently.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    roll_bytes: u64,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    appends: AtomicU64,
}

fn segment_name(seg: u32) -> String {
    format!("seg-{seg:05}.jsonl")
}

impl Store {
    /// Opens (or creates) a store directory with the default segment
    /// roll threshold.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, on a malformed record anywhere but the tail
    /// of the last segment, and on a gap in the segment sequence.
    pub fn open(dir: &Path) -> std::io::Result<Store> {
        Store::open_with_roll(dir, DEFAULT_ROLL_BYTES)
    }

    /// [`Store::open`] with an explicit roll threshold — a test hook so
    /// segment rolling is exercised without 4 MiB fixtures.
    pub fn open_with_roll(dir: &Path, roll_bytes: u64) -> std::io::Result<Store> {
        std::fs::create_dir_all(dir)?;
        let mut segs: Vec<u32> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(ord) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".jsonl"))
                .and_then(|s| s.parse::<u32>().ok())
            {
                segs.push(ord);
            }
        }
        segs.sort_unstable();
        if segs.is_empty() {
            segs.push(0);
            File::create(dir.join(segment_name(0)))?;
        }
        for (i, &ord) in (0u32..).zip(&segs) {
            if i != ord {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "store {}: segment sequence has a gap at ordinal {i} (found {ord})",
                        dir.display()
                    ),
                ));
            }
        }

        let last = *segs.last().expect("segment 0 exists");
        let mut index = Index::default();
        let mut readers = Vec::with_capacity(segs.len());
        let mut records = 0u64;
        let mut total_bytes = 0u64;
        let mut active_len = 0u64;
        for &seg in &segs {
            let path = dir.join(segment_name(seg));
            let mut raw = Vec::new();
            File::open(&path)?.read_to_end(&mut raw)?;
            // A torn tail is expected after a crash; a complete line that
            // does not parse is not, in any segment.
            let keep = index_segment(&mut index, seg, &raw, &mut records).map_err(|off| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "store {}: malformed record at byte {off} of segment {}",
                        dir.display(),
                        segment_name(seg)
                    ),
                )
            })?;
            if keep < raw.len() as u64 {
                if seg == last {
                    OpenOptions::new().write(true).open(&path)?.set_len(keep)?;
                } else {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "store {}: trailing garbage in non-tail segment {}",
                            dir.display(),
                            segment_name(seg)
                        ),
                    ));
                }
            }
            if seg == last {
                active_len = keep;
            }
            total_bytes += keep;
            readers.push(Arc::new(File::open(&path)?));
        }

        let active = OpenOptions::new()
            .append(true)
            .open(dir.join(segment_name(last)))?;
        Ok(Store {
            dir: dir.to_path_buf(),
            roll_bytes,
            inner: Mutex::new(Inner {
                index,
                readers,
                active,
                active_seg: last,
                active_len,
                records,
                total_bytes,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            appends: AtomicU64::new(0),
        })
    }

    /// Looks up the newest body stored under `key`, verifying the key
    /// match on the record itself (the index is only a hash). The body
    /// comes back exact-size, ready to be held by the memory tier.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<String> {
        let hash = index_hash(key);
        // Newest first; nothing is allocated unless the hash is indexed.
        let mut candidates = Vec::new();
        {
            let inner = self.inner.lock().expect("store lock");
            let at = |&loc: &Loc| (Arc::clone(&inner.readers[loc.seg as usize]), loc);
            if let Some(newest) = inner.index.newest.get(&hash) {
                candidates.push(at(newest));
                if let Some(older) = inner.index.older.get(&hash) {
                    candidates.extend(older.iter().rev().map(at));
                }
            }
        }
        for (file, loc) in candidates {
            if let Some(mut record) = read_record(&file, loc).filter(|r| r.k == key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                record.v.shrink_to_fit();
                return Some(record.v);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Appends a record, rolling to a fresh segment past the threshold.
    /// The whole line is handed to the kernel in one `write_all` before
    /// the index learns about it, so a reader never sees a location that
    /// `pread` cannot return in full, and the record survives a kill of
    /// this process from then on. There is no `fsync`: a power loss or
    /// kernel crash may still drop the most recent records, or leave a
    /// torn tail that the next open truncates.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the segment write or roll; the store
    /// stays usable (the failed record is simply not indexed).
    pub fn append(&self, key: &str, body: &str) -> std::io::Result<()> {
        // `{"k":…,"v":…}` written straight from the borrowed strings,
        // without copying the key and body into a `StoreRecord` first.
        // A JSON body grows by one escape byte per quote it contains.
        let mut line = String::with_capacity(key.len() + body.len() + body.len() / 4 + 16);
        let mut w = serde::Writer::compact(&mut line);
        w.begin_object();
        w.key("k");
        w.str(key);
        w.key("v");
        w.str(body);
        w.end_object();
        line.push('\n');
        let len = u32::try_from(line.len()).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "store record longer than 4 GiB",
            )
        })?;

        let mut inner = self.inner.lock().expect("store lock");
        if inner.active_len > 0 && inner.active_len + line.len() as u64 > self.roll_bytes {
            let seg = inner.active_seg + 1;
            let path = self.dir.join(segment_name(seg));
            inner.active = OpenOptions::new().append(true).create(true).open(&path)?;
            inner.readers.push(Arc::new(File::open(&path)?));
            inner.active_seg = seg;
            inner.active_len = 0;
        }
        let loc = Loc {
            off: inner.active_len,
            seg: inner.active_seg,
            len,
        };
        inner.active.write_all(line.as_bytes())?;
        inner.active_len += line.len() as u64;
        inner.total_bytes += line.len() as u64;
        inner.records += 1;
        inner.index.push(index_hash(key), loc);
        self.appends.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Snapshot of sizes and counters for the `cache` op.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("store lock");
        StoreStats {
            records: inner.records,
            segments: inner.readers.len() as u64,
            bytes: inner.total_bytes,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            appends: self.appends.load(Ordering::Relaxed),
        }
    }
}

/// Reads and parses the record at `loc`; `None` when the read fails or
/// the bytes are not a record.
fn read_record(file: &File, loc: Loc) -> Option<StoreRecord> {
    let mut buf = vec![0u8; loc.len as usize];
    file.read_exact_at(&mut buf, loc.off).ok()?;
    let text = std::str::from_utf8(&buf).ok()?;
    serde_json::from_str(text.trim_end()).ok()
}

/// Indexes one segment's raw bytes, returning how many bytes form whole,
/// valid records (the durable prefix). A malformed *complete* line is an
/// error carrying its byte offset; an incomplete tail line just ends the
/// durable prefix.
fn index_segment(index: &mut Index, seg: u32, raw: &[u8], records: &mut u64) -> Result<u64, u64> {
    let mut off = 0usize;
    while off < raw.len() {
        let Some(nl) = raw[off..].iter().position(|&b| b == b'\n') else {
            break; // incomplete tail — durable prefix ends here
        };
        let line = &raw[off..off + nl];
        let parsed = std::str::from_utf8(line)
            .ok()
            .and_then(|text| serde_json::from_str::<StoreRecord>(text).ok());
        let (Some(record), Ok(len)) = (parsed, u32::try_from(nl + 1)) else {
            return Err(off as u64);
        };
        index.push(
            index_hash(&record.k),
            Loc {
                off: off as u64,
                seg,
                len,
            },
        );
        *records += 1;
        off += nl + 1;
    }
    Ok(off as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wsn-store-{tag}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn round_trips_bodies_byte_identically_across_reopen() {
        let dir = temp_dir("roundtrip");
        let body = "{\"metrics\":{\"prr\":0.925,\"delay_ms\":12.0}}";
        {
            let store = Store::open(&dir).expect("open");
            store.append("sim|d:0001|n:400", body).expect("append");
            assert_eq!(store.get("sim|d:0001|n:400").as_deref(), Some(body));
        }
        let store = Store::open(&dir).expect("reopen");
        assert_eq!(store.get("sim|d:0001|n:400").as_deref(), Some(body));
        assert_eq!(store.get("sim|d:0002|n:400"), None);
        let stats = store.stats();
        assert_eq!(stats.records, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_earlier_records_survive() {
        let dir = temp_dir("torn");
        {
            let store = Store::open(&dir).expect("open");
            store.append("a", "1").expect("append");
            store.append("b", "2").expect("append");
        }
        let path = dir.join(segment_name(0));
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        f.write_all(b"{\"k\":\"c\",\"v\":\"3")
            .expect("write torn tail");
        drop(f);

        let store = Store::open(&dir).expect("recover");
        assert_eq!(store.get("a").as_deref(), Some("1"));
        assert_eq!(store.get("b").as_deref(), Some("2"));
        assert_eq!(store.get("c"), None);
        assert_eq!(store.stats().records, 2);
        // The torn bytes are physically gone, not just skipped.
        let len = std::fs::metadata(&path).expect("meta").len();
        let store_bytes = store.stats().bytes;
        assert_eq!(len, store_bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_line_before_the_tail_fails_the_open() {
        let dir = temp_dir("corrupt");
        {
            let store = Store::open(&dir).expect("open");
            store.append("a", "1").expect("append");
        }
        let path = dir.join(segment_name(0));
        let good = std::fs::read(&path).expect("read");
        let mut bad = b"not json at all\n".to_vec();
        bad.extend_from_slice(&good);
        std::fs::write(&path, bad).expect("write");
        let err = Store::open(&dir).expect_err("corrupt mid-segment must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.ends_with("malformed record at byte 0 of segment seg-00000.jsonl"),
            "{msg}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segments_roll_at_the_threshold_and_reload_contiguously() {
        let dir = temp_dir("roll");
        {
            let store = Store::open_with_roll(&dir, 128).expect("open");
            for i in 0..20 {
                store
                    .append(&format!("key-{i}"), &format!("body-{i:04}"))
                    .expect("append");
            }
            assert!(store.stats().segments > 1, "roll threshold never tripped");
        }
        let store = Store::open_with_roll(&dir, 128).expect("reopen");
        for i in 0..20 {
            assert_eq!(
                store.get(&format!("key-{i}")).as_deref(),
                Some(format!("body-{i:04}").as_str())
            );
        }
        assert_eq!(store.stats().records, 20);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn last_wins_when_a_key_is_appended_twice() {
        let dir = temp_dir("lastwins");
        {
            let store = Store::open(&dir).expect("open");
            store.append("k", "old").expect("append");
            store.append("k", "new").expect("append");
            assert_eq!(store.get("k").as_deref(), Some("new"));
        }
        let store = Store::open(&dir).expect("reopen");
        assert_eq!(store.get("k").as_deref(), Some("new"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn keys_sharing_an_index_hash_each_answer_their_own_newest_body() {
        let dir = temp_dir("collide");
        let a = "sim|d:0001|n:400";
        let b = (0..)
            .map(|i| format!("sim|d:0002|n:{i}"))
            .find(|b| index_hash(b) == index_hash(a))
            .expect("the test mask leaves four hashes");
        assert_ne!(fnv1a(a), fnv1a(&b), "distinct keys, one index hash");
        let check = |store: &Store| {
            assert_eq!(store.get(a).as_deref(), Some("a-new"));
            assert_eq!(store.get(&b).as_deref(), Some("b"));
        };
        {
            let store = Store::open(&dir).expect("open");
            store.append(a, "a-old").expect("append");
            store.append(&b, "b").expect("append");
            store.append(a, "a-new").expect("append");
            check(&store);
        }
        let store = Store::open(&dir).expect("reopen");
        check(&store);
        assert_eq!(store.stats().records, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Appends `n` records across segments of at most 160 bytes and
    /// returns their (key, body) pairs with each segment's bytes.
    fn write_fixture(dir: &Path, n: usize) -> (Vec<(String, String)>, Vec<Vec<u8>>) {
        let records: Vec<(String, String)> = (0..n)
            .map(|i| {
                (
                    format!("sim|k:{i}"),
                    format!("{{\"i\":{i},\"s\":\"\u{e9}\\\"\"}}"),
                )
            })
            .collect();
        let store = Store::open_with_roll(dir, 160).expect("open");
        for (key, body) in &records {
            store.append(key, body).expect("append");
        }
        let segments = (0..store.stats().segments as u32)
            .map(|seg| std::fs::read(dir.join(segment_name(seg))).expect("read segment"))
            .collect();
        (records, segments)
    }

    /// Byte offsets at which each line of `raw` starts, plus its end.
    fn line_starts(raw: &[u8]) -> Vec<usize> {
        let mut starts = vec![0];
        starts.extend(
            raw.iter()
                .enumerate()
                .filter(|&(_, &b)| b == b'\n')
                .map(|(i, _)| i + 1),
        );
        starts
    }

    fn rewrite(dir: &Path, segments: &[Vec<u8>]) {
        std::fs::remove_dir_all(dir).ok();
        std::fs::create_dir_all(dir).expect("create");
        for (seg, raw) in (0u32..).zip(segments) {
            std::fs::write(dir.join(segment_name(seg)), raw).expect("write segment");
        }
    }

    #[test]
    fn truncating_the_last_segment_anywhere_in_its_last_two_records_keeps_the_whole_prefix() {
        let dir = temp_dir("truncate");
        let (records, segments) = write_fixture(&dir, 8);
        let (last_raw, earlier) = segments.split_last().expect("segments");
        assert!(!earlier.is_empty(), "the fixture spans segments");
        let starts = line_starts(last_raw);
        assert!(starts.len() >= 3, "the last segment holds two records");
        let in_earlier: usize = earlier.iter().map(|raw| line_starts(raw).len() - 1).sum();
        let last_seg = earlier.len() as u32;
        for cut in starts[starts.len() - 3]..=last_raw.len() {
            let mut damaged = segments.clone();
            damaged[last_seg as usize].truncate(cut);
            rewrite(&dir, &damaged);
            // Whole lines at or before the cut survive.
            let whole = starts.iter().filter(|&&s| s > 0 && s <= cut).count();
            let prefix = starts[whole];
            let store = Store::open_with_roll(&dir, 160).expect("reopen");
            let kept = in_earlier + whole;
            assert_eq!(store.stats().records, kept as u64, "cut {cut}");
            for (i, (key, body)) in records.iter().enumerate() {
                let want = (i < kept).then_some(body.as_str());
                assert_eq!(store.get(key).as_deref(), want, "cut {cut} key {key}");
            }
            // The next append lands right after the durable prefix.
            store.append("next", "{}").expect("append");
            let raw = std::fs::read(dir.join(segment_name(last_seg))).expect("read");
            assert_eq!(&raw[..prefix], &last_raw[..prefix], "cut {cut}");
            assert_eq!(
                &raw[prefix..],
                b"{\"k\":\"next\",\"v\":\"{}\"}\n",
                "cut {cut}"
            );
            assert_eq!(store.get("next").as_deref(), Some("{}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_corrupt_earlier_record_fails_the_open_naming_segment_and_byte() {
        let dir = temp_dir("corrupt-any");
        let (_, segments) = write_fixture(&dir, 8);
        let last_seg = segments.len() - 1;
        for (seg, raw) in segments.iter().enumerate() {
            let starts = line_starts(raw);
            // Every record but the very last one of the store.
            let lines = starts.len() - 1 - usize::from(seg == last_seg);
            for line in 0..lines {
                let (start, end) = (starts[line], starts[line + 1]);
                let mid = (start + end) / 2;
                let mut bad_utf8 = raw.clone();
                bad_utf8[mid] = 0xff;
                let mut split = raw.clone();
                split.insert(mid, b'\n');
                for corrupt in [bad_utf8, split] {
                    let mut damaged = segments.clone();
                    damaged[seg] = corrupt;
                    rewrite(&dir, &damaged);
                    let err = Store::open(&dir).expect_err("corruption must fail the open");
                    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
                    let want = format!(
                        "malformed record at byte {start} of segment {}",
                        segment_name(seg as u32)
                    );
                    assert!(err.to_string().ends_with(&want), "{err}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bodies_with_escapes_and_floats_survive_the_jsonl_round_trip() {
        let dir = temp_dir("escape");
        let body = "{\"s\":\"line\\nbreak \\\"quoted\\\"\",\"x\":0.30000000000000004,\"y\":-1e-9}";
        {
            let store = Store::open(&dir).expect("open");
            store.append("esc", body).expect("append");
        }
        let store = Store::open(&dir).expect("reopen");
        assert_eq!(store.get("esc").as_deref(), Some(body));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multibyte_quoted_and_backslashed_bodies_survive_reopen_byte_identically() {
        let dir = temp_dir("utf8");
        // Raw 2-, 3- and 4-byte characters next to the quotes and
        // backslashes the record's JSON string has to escape.
        let bodies = [
            (
                "sim|utf8",
                "{\"site\":\"Z\u{fc}rich \u{2013} \u{6771}\u{4eac} \u{1F6F0}\",\"q\":\"say \\\"\u{e9}\\\"\"}",
            ),
            (
                "sim|slashes",
                "{\"path\":\"C:\\\\tmp\\\\\u{20ac}\",\"raw\":\"\\\\\"\u{e9}\\\\\"}",
            ),
            ("sim|bare", "\u{1F600}\"\\\u{e9}\\\"\u{20ac}"),
        ];
        {
            let store = Store::open(&dir).expect("open");
            for (key, body) in bodies {
                store.append(key, body).expect("append");
                assert_eq!(store.get(key).as_deref(), Some(body));
            }
        }
        let store = Store::open(&dir).expect("reopen");
        assert_eq!(store.stats().records, bodies.len() as u64);
        for (key, body) in bodies {
            assert_eq!(store.get(key).as_deref(), Some(body), "{key}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_trailing_newline_is_recovered_like_a_torn_tail() {
        let dir = temp_dir("nonewline");
        {
            let store = Store::open(&dir).expect("open");
            store.append("a", "1").expect("append");
        }
        let path = dir.join(segment_name(0));
        let mut raw = std::fs::read(&path).expect("read");
        assert_eq!(raw.pop(), Some(b'\n'));
        std::fs::write(&path, &raw).expect("strip newline");
        let store = Store::open(&dir).expect("recover");
        // Without its newline the sole record is an incomplete tail.
        assert_eq!(store.get("a"), None);
        assert_eq!(store.stats().records, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
