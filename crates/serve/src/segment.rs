//! Durable append-only logs, and the evaluation-cache format on top of
//! them: the fleet pool's point→outcome maps spilled to disk, so a
//! restarted daemon re-serves previously simulated points with
//! `simulations 0` instead of paying for them again.
//!
//! [`LogStore`] is the one store behind both of the daemon's log
//! formats; a [`LogCodec`] supplies what differs between them — file
//! names, header, payload grammar and counters. [`SegmentStore`] logs
//! cache outcomes ([`CacheCodec`]); [`crate::FrontStore`] logs Pareto
//! front points (`crate::front`). One file per evaluator stream,
//! `<prefix>-<key>.seg` in the daemon's cache directory (`key` is the
//! profile's evaluation fingerprint). A cache segment reads:
//!
//! ```text
//! hi-serve cache segment v1
//! key 00000afc1d2e3f40
//! entry 89 1a2b3c4d
//! n 0000000000000216 3fee666666666666 4056ab851eb851ec 3ff3ae147ae147ae 4010cccccccccccd
//! entry 174 5e6f7a8b
//! r 0000000000000317 1 <nominal quad> <scenario-0 quad>
//! ```
//!
//! An evaluation travels as four bit-exact floats — PDR, lifetime,
//! power, latency. Entries written before latency joined the
//! [`Evaluation`] carry three; they still parse (latency zero), but the
//! canonical rendered form is always four-wide.
//!
//! Each `entry` line frames one payload by byte length and CRC-32-IEEE
//! over exactly the payload bytes. Appends are the settle path (cheap,
//! one `fsync` per batch); every `compact_threshold` appends the file is
//! rewritten through [`hi_core::store::write_atomic`] so it never grows
//! without bound.
//!
//! Loading distinguishes two failure modes precisely:
//!
//! * **Torn tail** — the file ends mid-line or mid-payload, exactly what
//!   a crash during an append leaves behind. The intact prefix is kept,
//!   the tail truncated away, and a note reported. Data loss is bounded
//!   by one settle batch, and those points simply re-simulate.
//! * **Bit rot** — a structurally complete entry whose CRC disagrees,
//!   framing violated mid-file, or a foreign/garbled header. No clean
//!   truncation explains these, so the whole file is quarantined (renamed
//!   `*.quarantine`) with a byte-precise diagnostic and the stream starts
//!   cold rather than trusting any of it.
//!
//! Only `Ok` outcomes are persisted. Cached *errors* are deterministic
//! and cheap to rediscover; persisting them would resurrect stale
//! diagnostics across daemon upgrades.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hi_core::{crc32_ieee, store, ChaosPolicy, DesignPoint, Evaluation, RobustEvaluation};
use hi_trace::wellknown as wk;

/// One persistable cache outcome: a nominal evaluation or a robust
/// scorecard, tagged with its design point.
#[derive(Debug, Clone, PartialEq)]
pub enum CachedOutcome {
    /// A fault-free evaluation from a [`SharedSimEvaluator`]
    /// [hi_core::SharedSimEvaluator] stream.
    Nominal {
        /// The evaluated design point.
        point: DesignPoint,
        /// Its nominal evaluation.
        eval: Evaluation,
    },
    /// A full fault-suite scorecard from a [`RobustEvaluator`]
    /// [hi_core::RobustEvaluator] stream.
    Robust {
        /// The evaluated design point.
        point: DesignPoint,
        /// Its per-scenario scorecard.
        card: RobustEvaluation,
    },
}

impl CachedOutcome {
    /// The design point this outcome belongs to.
    pub fn point(&self) -> DesignPoint {
        match self {
            CachedOutcome::Nominal { point, .. } | CachedOutcome::Robust { point, .. } => *point,
        }
    }

    /// The point's fingerprint — the dedup key within one segment.
    pub fn fingerprint(&self) -> u64 {
        self.point().fingerprint()
    }
}

fn push_quad(out: &mut String, eval: &Evaluation) {
    out.push_str(&format!(
        " {:016x} {:016x} {:016x} {:016x}",
        eval.pdr.to_bits(),
        eval.nlt_days.to_bits(),
        eval.power_mw.to_bits(),
        eval.latency_ms.to_bits()
    ));
}

/// Renders one outcome's payload line (no framing, no newline). Floats
/// travel as exact bit patterns, so a loaded entry seeds the cache with
/// values bit-identical to the simulation that produced them.
pub fn render_entry(outcome: &CachedOutcome) -> String {
    match outcome {
        CachedOutcome::Nominal { point, eval } => {
            let mut s = format!("n {:016x}", point.fingerprint());
            push_quad(&mut s, eval);
            s
        }
        CachedOutcome::Robust { point, card } => {
            let mut s = format!("r {:016x} {}", point.fingerprint(), card.scenarios.len());
            push_quad(&mut s, &card.nominal);
            for scenario in &card.scenarios {
                push_quad(&mut s, scenario);
            }
            s
        }
    }
}

/// Frames a payload as `entry <len> <crc32>\n<payload>\n` bytes.
pub fn frame_entry(payload: &str) -> Vec<u8> {
    let mut out = format!(
        "entry {} {:08x}\n",
        payload.len(),
        crc32_ieee(payload.as_bytes())
    )
    .into_bytes();
    out.extend_from_slice(payload.as_bytes());
    out.push(b'\n');
    out
}

/// Reads one evaluation's hex-bit floats. `legacy` entries (written
/// before latency joined the [`Evaluation`]) carry three values and
/// load with latency zero; current entries carry four. `what` names
/// the evaluation in errors and is only formatted when one is built.
fn take_eval<'a>(
    tokens: &mut impl Iterator<Item = &'a str>,
    what: &dyn std::fmt::Display,
    legacy: bool,
) -> Result<Evaluation, String> {
    let width = if legacy { 3 } else { 4 };
    let mut bits = [0u64; 4];
    for slot in bits.iter_mut().take(width) {
        let token = tokens
            .next()
            .ok_or_else(|| format!("{what}: missing field"))?;
        *slot = u64::from_str_radix(token, 16).map_err(|_| format!("{what}: bad hex `{token}`"))?;
    }
    Ok(Evaluation {
        pdr: f64::from_bits(bits[0]),
        nlt_days: f64::from_bits(bits[1]),
        power_mw: f64::from_bits(bits[2]),
        latency_ms: f64::from_bits(bits[3]),
    })
}

/// Parses one payload line back into a [`CachedOutcome`].
pub fn parse_entry(payload: &str) -> Result<CachedOutcome, String> {
    let mut tokens = payload.split_ascii_whitespace();
    let kind = tokens
        .next()
        .ok_or_else(|| "empty entry payload".to_string())?;
    let fp_token = tokens
        .next()
        .ok_or_else(|| "missing point fingerprint".to_string())?;
    let fp = u64::from_str_radix(fp_token, 16)
        .map_err(|_| format!("bad point fingerprint `{fp_token}`"))?;
    let point = DesignPoint::from_fingerprint(fp)
        .ok_or_else(|| format!("fingerprint {fp:016x} encodes no valid design point"))?;
    // Width detection: an entry is current (four floats per evaluation)
    // exactly when its token count says so; anything else parses at the
    // legacy three-float width, whose own missing-field/trailing checks
    // produce the right diagnostics for malformed counts.
    let total_tokens = payload.split_ascii_whitespace().count();
    let outcome = match kind {
        "n" => CachedOutcome::Nominal {
            point,
            eval: take_eval(&mut tokens, &"nominal evaluation", total_tokens != 2 + 4)?,
        },
        "r" => {
            let count: usize = tokens
                .next()
                .ok_or_else(|| "missing scenario count".to_string())?
                .parse()
                .map_err(|_| "bad scenario count".to_string())?;
            let legacy =
                total_tokens != count.saturating_add(1).saturating_mul(4).saturating_add(3);
            // A megabyte-scale count with no payload behind it must fail
            // on the missing fields, not pre-allocate.
            let nominal = take_eval(&mut tokens, &"nominal evaluation", legacy)?;
            let mut scenarios = Vec::with_capacity(count.min(1024));
            for i in 0..count {
                scenarios.push(take_eval(
                    &mut tokens,
                    &format_args!("scenario {i}"),
                    legacy,
                )?);
            }
            CachedOutcome::Robust {
                point,
                card: RobustEvaluation { nominal, scenarios },
            }
        }
        other => return Err(format!("unknown entry kind `{other}`")),
    };
    if tokens.next().is_some() {
        return Err("trailing fields after entry payload".to_string());
    }
    Ok(outcome)
}

/// The evaluation-cache log format: `cache-<key>.seg` files of
/// [`CachedOutcome`] entries.
#[derive(Debug, Clone, Copy)]
pub struct CacheCodec;

impl LogCodec for CacheCodec {
    type Entry = CachedOutcome;
    const PREFIX: &'static str = "cache";
    const HEADER: &'static str = "hi-serve cache segment v1";
    const LABEL: &'static str = "cache segment";
    const LOADED_METRIC: &'static str = wk::SERVE_CACHE_LOADED;
    const PERSISTED_METRIC: &'static str = wk::SERVE_CACHE_PERSISTED;
    const NOUN: &'static str = "entries";
    const SUBJECT: &'static str = "stream";
    // A chaos-dropped in-memory entry must stay on disk: the cache
    // snapshot may lack what the log rightly holds.
    const FOLDS_STALE: bool = false;

    fn render(entry: &CachedOutcome) -> String {
        render_entry(entry)
    }

    fn parse(payload: &str) -> Result<CachedOutcome, String> {
        parse_entry(payload)
    }

    fn fingerprint(entry: &CachedOutcome) -> u64 {
        entry.fingerprint()
    }
}

/// The durable side of the fleet pool: one append-mostly segment file
/// per evaluator stream, loaded and verified at daemon start.
pub type SegmentStore = LogStore<CacheCodec>;

/// The outcome of parsing one cache segment file.
pub type SegmentLoad = LogLoad<CachedOutcome>;

/// Parses a cache segment file — see [`LogCodec::parse_file`].
pub fn parse_segment(bytes: &[u8]) -> Result<SegmentLoad, String> {
    CacheCodec::parse_file(bytes)
}

/// Renders a complete cache segment file (header, key line, framed
/// entries).
pub fn render_segment(key: u64, entries: &[CachedOutcome]) -> Vec<u8> {
    CacheCodec::render_file(key, entries)
}

/// The segment path for stream `key` under `cache_dir`.
pub fn segment_path(cache_dir: &Path, key: u64) -> PathBuf {
    CacheCodec::path(cache_dir, key)
}

/// The payload codec of one append-only log format. [`LogStore`] owns
/// the framing, the crash consistency and the bookkeeping; a codec
/// names its files and counters and renders and parses one entry.
pub trait LogCodec {
    /// One logged entry.
    type Entry: Clone + fmt::Debug;
    /// File-name prefix: stream `key` logs to `<PREFIX>-<key:016x>.seg`.
    const PREFIX: &'static str;
    /// The exact first line of every file.
    const HEADER: &'static str;
    /// The format's name in not-ours diagnostics (`not a <LABEL>`).
    const LABEL: &'static str;
    /// Counter bumped by the entries loaded at open.
    const LOADED_METRIC: &'static str;
    /// Counter bumped by the entries persisted.
    const PERSISTED_METRIC: &'static str;
    /// What repair notes call the recovered entries.
    const NOUN: &'static str;
    /// What quarantine notes say starts cold.
    const SUBJECT: &'static str;
    /// Whether logged entries the snapshot lacks are stale. If so, the
    /// drain-time [`LogStore::flush`] rewrites the file to fold them
    /// out; if not, they stay on disk.
    const FOLDS_STALE: bool;

    /// Renders one entry's payload line (no framing, no newline).
    fn render(entry: &Self::Entry) -> String;
    /// Parses one payload line back into an entry.
    fn parse(payload: &str) -> Result<Self::Entry, String>;
    /// The entry's dedup key within one file.
    fn fingerprint(entry: &Self::Entry) -> u64;

    /// The log path for stream `key` under `dir`.
    fn path(dir: &Path, key: u64) -> PathBuf {
        dir.join(format!("{}-{key:016x}.seg", Self::PREFIX))
    }

    /// Renders a complete file: header, key line, framed entries.
    fn render_file(key: u64, entries: &[Self::Entry]) -> Vec<u8> {
        let mut out = format!("{}\nkey {key:016x}\n", Self::HEADER).into_bytes();
        for entry in entries {
            out.extend_from_slice(&frame_entry(&Self::render(entry)));
        }
        out
    }

    /// Parses a file, separating torn tails from bit rot.
    ///
    /// `Ok` means the intact prefix is trustworthy: `entries` carries it,
    /// and [`LogLoad::torn`] notes a truncated tail if the file ends
    /// mid-entry (the crash-during-append signature). `Err` means bit rot
    /// — CRC mismatch, framing violated mid-file, a garbled or foreign
    /// header, or a payload this codec rejects — with a byte-precise
    /// diagnostic; the caller should quarantine the file.
    fn parse_file(bytes: &[u8]) -> Result<LogLoad<Self::Entry>, String> {
        let (key, payloads, torn) = parse_framed(bytes, Self::HEADER, Self::LABEL)?;
        let mut entries = Vec::with_capacity(payloads.len());
        for (index, (payload, entry_at)) in payloads.iter().enumerate() {
            entries.push(
                Self::parse(payload)
                    .map_err(|e| format!("entry {index} at byte {entry_at}: {e}"))?,
            );
        }
        Ok(LogLoad { key, entries, torn })
    }
}

/// The outcome of parsing one log file.
#[derive(Debug, Clone, PartialEq)]
pub struct LogLoad<E> {
    /// The stream key stated in the file's `key` line.
    pub key: u64,
    /// Intact entries, in file (append) order.
    pub entries: Vec<E>,
    /// `Some(note)` if a torn tail was found after the intact prefix —
    /// the caller should truncate or rewrite the file before appending.
    pub torn: Option<String>,
}

/// Reads one newline-terminated line starting at `pos`. Returns the line
/// (newline excluded), the position after it, and whether the terminator
/// was present (`false` means the file ends mid-line — a torn tail).
fn read_line(bytes: &[u8], pos: usize) -> (&[u8], usize, bool) {
    match bytes[pos..].iter().position(|&b| b == b'\n') {
        Some(nl) => (&bytes[pos..pos + nl], pos + nl + 1, true),
        None => (&bytes[pos..], bytes.len(), false),
    }
}

/// Intact payloads in append order, each with the byte offset of its
/// `entry` header line (for diagnostics).
type Payloads<'a> = Vec<(&'a str, usize)>;

/// Parses the framing (header line, key line, `entry <len> <crc32>`
/// frames) down to raw payloads, separating torn tails from bit rot.
/// `header_line` is the exact expected first line; `label` names the
/// format in not-ours diagnostics.
fn parse_framed<'a>(
    bytes: &'a [u8],
    header_line: &str,
    label: &str,
) -> Result<(u64, Payloads<'a>, Option<String>), String> {
    // Header line. A short unterminated prefix of the expected header is
    // a torn first write; anything else that differs is not our file.
    let (line, mut pos, terminated) = read_line(bytes, 0);
    if !terminated {
        return if header_line.as_bytes().starts_with(line) {
            Ok((
                0,
                Vec::new(),
                Some("file torn inside the header line".to_string()),
            ))
        } else {
            Err(format!("not a {label} (garbled header)"))
        };
    }
    if line != header_line.as_bytes() {
        return Err(format!(
            "not a {label}: expected `{header_line}`, found {} header bytes",
            line.len()
        ));
    }
    // Key line.
    let (line, after_key, terminated) = read_line(bytes, pos);
    if !terminated {
        return if line.is_empty() || b"key ".starts_with(&line[..line.len().min(4)]) {
            Ok((
                0,
                Vec::new(),
                Some("file torn inside the key line".to_string()),
            ))
        } else {
            Err(format!("garbled key line at byte {pos}"))
        };
    }
    let key = std::str::from_utf8(line)
        .ok()
        .and_then(|l| l.strip_prefix("key "))
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| format!("malformed key line at byte {pos}"))?;
    pos = after_key;

    let mut payloads = Vec::new();
    let mut index = 0usize;
    while pos < bytes.len() {
        let entry_at = pos;
        let (line, after_header, terminated) = read_line(bytes, pos);
        if !terminated {
            let torn =
                format!("entry {index} header torn at byte {entry_at} (end of file mid-line)");
            return Ok((key, payloads, Some(torn)));
        }
        let header = std::str::from_utf8(line)
            .map_err(|_| format!("entry {index} header at byte {entry_at} is not UTF-8"))?;
        let mut fields = header.split_ascii_whitespace();
        let (len, stated_crc) = match (
            fields.next(),
            fields.next().and_then(|t| t.parse::<usize>().ok()),
            fields.next().and_then(|t| u32::from_str_radix(t, 16).ok()),
            fields.next(),
        ) {
            (Some("entry"), Some(len), Some(crc), None) => (len, crc),
            _ => {
                return Err(format!(
                    "malformed entry {index} header at byte {entry_at}: `{header}`"
                ))
            }
        };
        let payload_at = after_header;
        if payload_at + len >= bytes.len() {
            // Payload (or its terminating newline) runs past the end of
            // the file: the append died partway through.
            let torn = format!(
                "entry {index} payload torn at byte {payload_at} \
                 ({len} bytes declared, {} present)",
                bytes.len().saturating_sub(payload_at)
            );
            return Ok((key, payloads, Some(torn)));
        }
        let payload = &bytes[payload_at..payload_at + len];
        if bytes[payload_at + len] != b'\n' {
            return Err(format!(
                "entry {index} framing violated at byte {}: \
                 declared length {len} does not end at a newline",
                payload_at + len
            ));
        }
        let actual = crc32_ieee(payload);
        if actual != stated_crc {
            return Err(format!(
                "entry {index} crc32 mismatch at byte {payload_at}: \
                 header says {stated_crc:08x}, payload hashes to {actual:08x} (bit rot?)"
            ));
        }
        let payload = std::str::from_utf8(payload)
            .map_err(|_| format!("entry {index} payload at byte {payload_at} is not UTF-8"))?;
        payloads.push((payload, entry_at));
        pos = payload_at + len + 1;
        index += 1;
    }
    Ok((key, payloads, None))
}

/// What one [`LogStore::settle`] call did, for logging and metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SettleOutcome {
    /// Entries newly persisted (appended or folded into a compaction).
    pub persisted: usize,
    /// True if the whole file was compacted (atomic rewrite).
    pub compacted: bool,
    /// True if chaos injection silently dropped this batch.
    pub chaos_dropped: bool,
    /// True if chaos injection tore the batch's final entry.
    pub chaos_torn: bool,
}

#[derive(Debug, Default)]
struct KeyState {
    /// Entry fingerprints known to be durably on disk.
    persisted: BTreeSet<u64>,
    /// Appends since the file was last fully rewritten.
    appends_since_compact: u32,
    /// Settle-batch counter: the chaos roll index, so injection is a
    /// pure function of `(key, batch)` and replays identically.
    sequence: u32,
    /// Set after a chaos-torn append: the file tail is garbage, so the
    /// next settle must compact (rewrite) instead of appending after it.
    needs_compact: bool,
}

/// One append-mostly log file per evaluator stream, loaded and verified
/// at open, in the format codec `C` names.
///
/// Writes happen on the scheduler thread (jobs run serially), reads at
/// startup; the mutex is for the occasional STATS reader.
#[derive(Debug)]
pub struct LogStore<C: LogCodec> {
    dir: PathBuf,
    compact_threshold: u32,
    chaos: Option<ChaosPolicy>,
    state: Mutex<BTreeMap<u64, KeyState>>,
    /// Entries recovered at open, waiting for their stream to claim them.
    preloaded: Mutex<BTreeMap<u64, Vec<C::Entry>>>,
    loaded: AtomicU64,
    persisted_total: AtomicU64,
    compactions: AtomicU64,
    quarantined: AtomicU64,
}

/// Cumulative [`LogStore`] counters, mirrored into the wellknown
/// metrics and printed by `STATS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogStats {
    /// Entries loaded back from disk at open.
    pub loaded: u64,
    /// Entries written durably (appends + compaction folds).
    pub persisted: u64,
    /// Full-file compactions performed.
    pub compactions: u64,
    /// Files quarantined for bit rot at open.
    pub quarantined: u64,
}

impl<C: LogCodec> LogStore<C> {
    /// Opens (creating if needed) the directory, loading and verifying
    /// every `C` log in it. Returns the store plus human-readable notes
    /// for anything abnormal: torn tails truncated, bit-rotted files
    /// quarantined. Notes are diagnostics, not errors — the daemon
    /// always starts; damaged streams just start cold.
    pub fn open(
        dir: PathBuf,
        compact_threshold: u32,
        chaos: Option<ChaosPolicy>,
    ) -> std::io::Result<(Self, Vec<String>)> {
        std::fs::create_dir_all(&dir)?;
        let store = Self {
            dir,
            compact_threshold: compact_threshold.max(1),
            chaos,
            state: Mutex::new(BTreeMap::new()),
            preloaded: Mutex::new(BTreeMap::new()),
            loaded: AtomicU64::new(0),
            persisted_total: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        };
        let notes = store.load_existing()?;
        Ok((store, notes))
    }

    /// The directory the logs live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn load_existing(&self) -> std::io::Result<Vec<String>> {
        let mut notes = Vec::new();
        let mut keys: Vec<u64> = std::fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name();
                let hex = name
                    .to_str()?
                    .strip_prefix(C::PREFIX)?
                    .strip_prefix('-')?
                    .strip_suffix(".seg")?;
                u64::from_str_radix(hex, 16).ok()
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        for key in keys {
            let path = C::path(&self.dir, key);
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) => {
                    notes.push(format!("{}: unreadable: {e}", path.display()));
                    continue;
                }
            };
            let load = match C::parse_file(&bytes) {
                Ok(load) => load,
                Err(diag) => {
                    self.quarantine(&path, &mut notes, &diag);
                    continue;
                }
            };
            if !load.entries.is_empty() && load.key != key {
                // The file claims to belong to a different stream —
                // misplaced or renamed by hand. Seeding it under this
                // key would serve wrong physics.
                let diag = format!(
                    "key line says {:016x} but the file is named for {key:016x}",
                    load.key
                );
                self.quarantine(&path, &mut notes, &diag);
                continue;
            }
            if let Some(torn) = &load.torn {
                // Repair in place: rewrite the intact prefix atomically
                // so future appends land on a clean tail.
                store::write_atomic(&path, &C::render_file(key, &load.entries))?;
                notes.push(format!(
                    "{}: torn tail truncated ({torn}); {} {} recovered",
                    path.display(),
                    load.entries.len(),
                    C::NOUN
                ));
            }
            let count = load.entries.len() as u64;
            hi_trace::counter(C::LOADED_METRIC, count);
            self.loaded.fetch_add(count, Ordering::Relaxed);
            self.lock_state()
                .entry(key)
                .or_default()
                .persisted
                .extend(load.entries.iter().map(C::fingerprint));
            if !load.entries.is_empty() {
                self.preloaded
                    .lock()
                    .expect("log store poisoned")
                    .insert(key, load.entries);
            }
        }
        Ok(notes)
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, KeyState>> {
        self.state.lock().expect("log store poisoned")
    }

    fn quarantine(&self, path: &Path, notes: &mut Vec<String>, diag: &str) {
        let mut target = path.as_os_str().to_os_string();
        target.push(".quarantine");
        let verdict = match std::fs::rename(path, &target) {
            Ok(()) => format!("quarantined as {}", PathBuf::from(&target).display()),
            Err(e) => format!("quarantine rename failed ({e}); file left in place, ignored"),
        };
        hi_trace::counter(wk::SERVE_CACHE_QUARANTINED, 1);
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        notes.push(format!(
            "{}: bit rot: {diag}; {verdict}; {} starts cold",
            path.display(),
            C::SUBJECT
        ));
    }

    /// Claims the entries recovered for `key` at open, if any. Intended
    /// for the stream's first build: seed (or re-insert) each returned
    /// entry before the first job touches the stream.
    pub fn hydrate(&self, key: u64) -> Vec<C::Entry> {
        self.preloaded
            .lock()
            .expect("log store poisoned")
            .remove(&key)
            .unwrap_or_default()
    }

    /// Rewrites `key`'s file atomically from `snapshot` and records it
    /// as exactly what disk holds.
    fn compact(
        &self,
        entry: &mut KeyState,
        key: u64,
        snapshot: &[C::Entry],
    ) -> std::io::Result<()> {
        let path = C::path(&self.dir, key);
        store::write_atomic(&path, &C::render_file(key, snapshot))?;
        entry.persisted = snapshot.iter().map(C::fingerprint).collect();
        entry.appends_since_compact = 0;
        entry.needs_compact = false;
        hi_trace::counter(wk::SERVE_CACHE_COMPACTIONS, 1);
        self.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Persists whatever `snapshot` holds that disk does not: the settle
    /// path, called with the stream's full current snapshot. Entries
    /// already persisted are skipped; fresh ones are appended (one fsync
    /// per batch), and every `compact_threshold` appends the file is
    /// rewritten atomically from the snapshot instead, folding the tail.
    pub fn settle(&self, key: u64, snapshot: &[C::Entry]) -> std::io::Result<SettleOutcome> {
        let mut state = self.lock_state();
        let entry = state.entry(key).or_default();
        let fresh: Vec<&C::Entry> = snapshot
            .iter()
            .filter(|e| !entry.persisted.contains(&C::fingerprint(e)))
            .collect();
        if fresh.is_empty() {
            return Ok(SettleOutcome::default());
        }
        let sequence = entry.sequence;
        entry.sequence += 1;
        if let Some(chaos) = &self.chaos {
            if chaos.drops_segment(key, sequence) {
                // The batch silently never reaches disk — the crash-consistency
                // story must absorb it. Not marked persisted, so a later
                // batch (different roll) retries these entries.
                hi_trace::counter(wk::EXEC_CHAOS_EVENTS, 1);
                return Ok(SettleOutcome {
                    chaos_dropped: true,
                    ..SettleOutcome::default()
                });
            }
        }
        let compact =
            entry.needs_compact || entry.appends_since_compact + 1 >= self.compact_threshold;
        if compact {
            self.compact(entry, key, snapshot)?;
            hi_trace::counter(C::PERSISTED_METRIC, fresh.len() as u64);
            self.persisted_total
                .fetch_add(fresh.len() as u64, Ordering::Relaxed);
            return Ok(SettleOutcome {
                persisted: fresh.len(),
                compacted: true,
                ..SettleOutcome::default()
            });
        }
        let mut batch = Vec::new();
        let mut complete = Vec::new();
        for e in &fresh {
            batch.extend_from_slice(&frame_entry(&C::render(e)));
            complete.push(C::fingerprint(e));
        }
        let mut chaos_torn = false;
        if let Some(chaos) = &self.chaos {
            if chaos.tears_segment(key, sequence) {
                // Simulate a crash mid-append: only a prefix of the last
                // frame reaches disk. The entry is not marked persisted,
                // and the next settle compacts over the garbage tail —
                // exactly what restart recovery would do.
                let last = frame_entry(&C::render(fresh[fresh.len() - 1]));
                batch.truncate(batch.len() - last.len() + last.len() / 2);
                complete.pop();
                chaos_torn = true;
                hi_trace::counter(wk::EXEC_CHAOS_EVENTS, 1);
            }
        }
        {
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(C::path(&self.dir, key))?;
            if file.metadata()?.len() == 0 {
                file.write_all(format!("{}\nkey {key:016x}\n", C::HEADER).as_bytes())?;
            }
            file.write_all(&batch)?;
            file.sync_all()?;
        }
        let persisted = complete.len();
        entry.persisted.extend(complete);
        entry.appends_since_compact += 1;
        entry.needs_compact = chaos_torn;
        hi_trace::counter(C::PERSISTED_METRIC, persisted as u64);
        self.persisted_total
            .fetch_add(persisted as u64, Ordering::Relaxed);
        Ok(SettleOutcome {
            persisted,
            chaos_torn,
            ..SettleOutcome::default()
        })
    }

    /// Drain-time flush: compacts `key`'s file from the stream's full
    /// snapshot, leaving one clean, tear-free file for the next process.
    /// Called by SHUTDOWN after the queue drains. The rewrite is skipped
    /// when disk provably holds the snapshot already — and, for a codec
    /// that [folds stale entries](LogCodec::FOLDS_STALE), nothing else.
    pub fn flush(&self, key: u64, snapshot: &[C::Entry]) -> std::io::Result<()> {
        if snapshot.is_empty() {
            return Ok(());
        }
        let mut state = self.lock_state();
        let entry = state.entry(key).or_default();
        let clean = !entry.needs_compact
            && C::path(&self.dir, key).exists()
            && (!C::FOLDS_STALE || entry.persisted.len() == snapshot.len())
            && snapshot
                .iter()
                .all(|e| entry.persisted.contains(&C::fingerprint(e)));
        if clean {
            return Ok(());
        }
        self.compact(entry, key, snapshot)
    }

    /// Cumulative counters since open.
    pub fn stats(&self) -> LogStats {
        LogStats {
            loaded: self.loaded.load(Ordering::Relaxed),
            persisted: self.persisted_total.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    /// Number of entries known durable for `key` (tests and STATS).
    pub fn persisted_len(&self, key: u64) -> usize {
        self.lock_state().get(&key).map_or(0, |s| s.persisted.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front::FrontCodec;
    use hi_core::{MacChoice, Placement, RouteChoice};
    use hi_net::TxPower;
    use hi_pareto::FrontPoint;

    fn point(i: u8) -> DesignPoint {
        DesignPoint {
            placement: Placement::from_indices([0, 1, 3, (5 + i % 3) as usize]),
            tx_power: TxPower::ZeroDbm,
            mac: MacChoice::Tdma,
            routing: if i.is_multiple_of(2) {
                RouteChoice::Star
            } else {
                RouteChoice::Mesh
            },
        }
    }

    fn ev(x: f64) -> Evaluation {
        Evaluation {
            pdr: 0.9 + x,
            nlt_days: 100.0 * x,
            power_mw: 1.0 / (x + 1.0),
            latency_ms: 3.0 + x,
        }
    }

    fn nominal(i: u8) -> CachedOutcome {
        CachedOutcome::Nominal {
            point: point(i),
            eval: ev(f64::from(i)),
        }
    }

    fn robust(i: u8) -> CachedOutcome {
        CachedOutcome::Robust {
            point: point(i),
            card: RobustEvaluation {
                nominal: ev(f64::from(i)),
                scenarios: vec![ev(0.25), ev(0.5)],
            },
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hi-seg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Sample entries for the store tests, which run once per codec:
    /// `entry(i)` has a distinct fingerprint for each `i` in `0..6`.
    trait Fixture: LogCodec<Entry: PartialEq> {
        fn entry(i: u8) -> Self::Entry;

        fn entries(range: std::ops::Range<u8>) -> Vec<Self::Entry> {
            range.map(Self::entry).collect()
        }

        /// A scratch directory private to this codec and test.
        fn tmpdir(tag: &str) -> PathBuf {
            tmpdir(&format!("{}-{tag}", Self::PREFIX))
        }

        fn read(dir: &Path, key: u64) -> LogLoad<Self::Entry> {
            Self::parse_file(&std::fs::read(Self::path(dir, key)).unwrap()).unwrap()
        }
    }

    impl Fixture for CacheCodec {
        fn entry(i: u8) -> CachedOutcome {
            if i.is_multiple_of(2) {
                nominal(i)
            } else {
                robust(i)
            }
        }
    }

    impl Fixture for FrontCodec {
        fn entry(i: u8) -> FrontPoint {
            FrontPoint {
                fingerprint: point(i).fingerprint(),
                power_mw: 1.0 + f64::from(i),
                pdr: 0.9,
                latency_ms: 5.0,
                nlt_days: 40.0,
            }
        }
    }

    /// Runs one generic store test over both log formats.
    macro_rules! over_both_codecs {
        ($check:ident) => {
            $check::<CacheCodec>();
            $check::<FrontCodec>();
        };
    }

    #[test]
    fn entries_roundtrip_bit_for_bit() {
        for outcome in [nominal(0), robust(1)] {
            let parsed = parse_entry(&render_entry(&outcome)).unwrap();
            assert_eq!(parsed, outcome);
        }
        // NaN and infinities survive via bit patterns.
        let weird = CachedOutcome::Nominal {
            point: point(2),
            eval: Evaluation {
                pdr: f64::NAN,
                nlt_days: f64::INFINITY,
                power_mw: -0.0,
                latency_ms: f64::MIN_POSITIVE,
            },
        };
        match parse_entry(&render_entry(&weird)).unwrap() {
            CachedOutcome::Nominal { eval, .. } => {
                assert!(eval.pdr.is_nan());
                assert_eq!(eval.nlt_days, f64::INFINITY);
                assert_eq!(eval.power_mw.to_bits(), (-0.0f64).to_bits());
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn pre_latency_entries_parse_with_latency_zeroed() {
        // Entries written by a pre-latency daemon carry three floats per
        // evaluation; they must still hydrate (latency zero), and the
        // width detection must not misread a current robust entry.
        let legacy_n = "n 0000000000000216 3fee666666666666 4056ab851eb851ec 3ff3ae147ae147ae";
        match parse_entry(legacy_n).unwrap() {
            CachedOutcome::Nominal { eval, .. } => {
                assert_eq!(eval.pdr, f64::from_bits(0x3fee666666666666));
                assert_eq!(eval.latency_ms.to_bits(), 0.0f64.to_bits());
            }
            other => panic!("wrong kind: {other:?}"),
        }
        let legacy_r = "r 0000000000000216 1 \
                        3fee666666666666 4056ab851eb851ec 3ff3ae147ae147ae \
                        3fe0000000000000 4040000000000000 3ff8000000000000";
        match parse_entry(legacy_r).unwrap() {
            CachedOutcome::Robust { card, .. } => {
                assert_eq!(card.scenarios.len(), 1);
                assert_eq!(card.nominal.latency_ms.to_bits(), 0.0f64.to_bits());
                assert_eq!(card.scenarios[0].latency_ms.to_bits(), 0.0f64.to_bits());
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn segments_roundtrip_and_report_their_key() {
        let entries = vec![nominal(0), robust(1), nominal(2)];
        let bytes = render_segment(0xabc, &entries);
        let load = parse_segment(&bytes).unwrap();
        assert_eq!(load.key, 0xabc);
        assert_eq!(load.entries, entries);
        assert_eq!(load.torn, None);
    }

    #[test]
    fn torn_tails_keep_the_intact_prefix() {
        let entries = vec![nominal(0), robust(1)];
        let bytes = render_segment(7, &entries);
        let first_entry_end = render_segment(7, &entries[..1]).len();
        // Any truncation point strictly inside the second entry must
        // recover exactly the first.
        for cut in (first_entry_end + 1)..bytes.len() {
            let load = parse_segment(&bytes[..cut]).unwrap();
            assert_eq!(load.entries, entries[..1], "cut at {cut}");
            assert!(load.torn.is_some(), "cut at {cut}");
        }
        // Truncation at the exact boundary is indistinguishable from a
        // shorter (clean) file.
        let load = parse_segment(&bytes[..first_entry_end]).unwrap();
        assert_eq!(load.entries, entries[..1]);
        assert_eq!(load.torn, None);
    }

    #[test]
    fn payload_corruption_is_bit_rot_not_torn() {
        let bytes = render_segment(7, &[nominal(0), nominal(2)]);
        let text = String::from_utf8(bytes.clone()).unwrap();
        let payload_at = text.find("\nn ").unwrap() + 1;
        let mut rotted = bytes.clone();
        rotted[payload_at + 5] ^= 0x04;
        let err = parse_segment(&rotted).unwrap_err();
        assert!(err.contains("crc32 mismatch"), "{err}");
        // Framing violation mid-file (length that does not land on a
        // newline) is also bit rot.
        let mut bad_frame = text.clone();
        let at = bad_frame.find("entry ").unwrap();
        bad_frame.replace_range(at..at + 7, "entry 9");
        let err = parse_segment(bad_frame.as_bytes()).unwrap_err();
        assert!(
            err.contains("framing") || err.contains("crc32") || err.contains("malformed"),
            "{err}"
        );
    }

    #[test]
    fn store_settles_hydrates_and_recovers_across_reopen() {
        fn check<C: Fixture>() {
            let dir = C::tmpdir("reopen");
            let key = 0x51;
            {
                let (store, notes) = LogStore::<C>::open(dir.clone(), 256, None).unwrap();
                assert!(notes.is_empty(), "{notes:?}");
                let out = store.settle(key, &C::entries(0..2)).unwrap();
                assert_eq!(out.persisted, 2);
                // Settling the same snapshot again is a no-op.
                let again = store.settle(key, &C::entries(0..2)).unwrap();
                assert_eq!(again.persisted, 0);
                // A grown snapshot appends only the delta.
                let grown = store.settle(key, &C::entries(0..3)).unwrap();
                assert_eq!(grown.persisted, 1);
                assert_eq!(store.persisted_len(key), 3);
            }
            let (store, notes) = LogStore::<C>::open(dir.clone(), 256, None).unwrap();
            assert!(notes.is_empty(), "{notes:?}");
            assert_eq!(store.hydrate(key), C::entries(0..3));
            // Hydrate drains: a second call returns nothing.
            assert!(store.hydrate(key).is_empty());
            assert_eq!(store.persisted_len(key), 3);
            assert_eq!(store.stats().loaded, 3);
            std::fs::remove_dir_all(&dir).unwrap();
        }
        over_both_codecs!(check);
    }

    #[test]
    fn torn_files_are_repaired_and_rotted_files_quarantined_at_open() {
        fn check<C: Fixture>() {
            let dir = C::tmpdir("repair");
            let torn_key = 0x60;
            let rotted_key = 0x61;
            let bytes = C::render_file(torn_key, &C::entries(0..2));
            std::fs::write(C::path(&dir, torn_key), &bytes[..bytes.len() - 3]).unwrap();
            let mut rotted = C::render_file(rotted_key, &C::entries(2..3));
            let flip_at = rotted.len() - 10;
            rotted[flip_at] ^= 0x01;
            std::fs::write(C::path(&dir, rotted_key), &rotted).unwrap();
            let (store, notes) = LogStore::<C>::open(dir.clone(), 256, None).unwrap();
            assert_eq!(notes.len(), 2, "{notes:?}");
            assert!(
                notes.iter().any(|n| n.contains("torn tail truncated")
                    && n.contains(&format!("1 {} recovered", C::NOUN))),
                "{notes:?}"
            );
            assert!(
                notes
                    .iter()
                    .any(|n| n.contains("bit rot")
                        && n.contains(&format!("{} starts cold", C::SUBJECT))),
                "{notes:?}"
            );
            assert_eq!(store.hydrate(torn_key), C::entries(0..1));
            assert!(store.hydrate(rotted_key).is_empty());
            assert!(C::path(&dir, rotted_key)
                .with_extension("seg.quarantine")
                .exists());
            assert_eq!(store.stats().quarantined, 1);
            // The repaired file parses clean on a third open.
            let load = C::read(&dir, torn_key);
            assert_eq!(load.torn, None);
            assert_eq!(load.entries, C::entries(0..1));
            std::fs::remove_dir_all(&dir).unwrap();
        }
        over_both_codecs!(check);
    }

    #[test]
    fn compaction_folds_the_append_tail() {
        fn check<C: Fixture>() {
            let dir = C::tmpdir("compact");
            let key = 0x70;
            let (store, _) = LogStore::<C>::open(dir.clone(), 2, None).unwrap();
            store.settle(key, &C::entries(0..1)).unwrap();
            // Second append hits the threshold: the file is rewritten whole.
            let out = store.settle(key, &C::entries(0..2)).unwrap();
            assert!(out.compacted);
            let out = store.settle(key, &C::entries(0..3)).unwrap();
            assert!(!out.compacted);
            assert_eq!(C::read(&dir, key).entries, C::entries(0..3));
            assert_eq!(store.stats().compactions, 1);
            std::fs::remove_dir_all(&dir).unwrap();
        }
        over_both_codecs!(check);
    }

    #[test]
    fn chaos_torn_append_recovers_via_forced_compaction() {
        fn check<C: Fixture>() {
            let dir = C::tmpdir("chaos");
            let key = 0x80;
            // torn=1 tears every batch; drops off.
            let chaos = ChaosPolicy::parse("seed=5,torn=1").unwrap();
            let (store, _) = LogStore::<C>::open(dir.clone(), 256, Some(chaos)).unwrap();
            let out = store.settle(key, &C::entries(0..1)).unwrap();
            assert!(out.chaos_torn);
            assert_eq!(out.persisted, 0);
            // The file now has a garbage tail; parse sees a torn entry.
            assert!(C::read(&dir, key).torn.is_some());
            // The next settle compacts over it (atomic rewrite is immune
            // to the append-tear injection), leaving a clean file.
            let out = store.settle(key, &C::entries(0..2)).unwrap();
            assert!(out.compacted);
            assert_eq!(out.persisted, 2);
            let load = C::read(&dir, key);
            assert_eq!(load.torn, None);
            assert_eq!(load.entries, C::entries(0..2));
            // A fully dropped batch leaves no file at all for a fresh key.
            let dropping = ChaosPolicy::parse("seed=5,segdrop=1").unwrap();
            let dir2 = C::tmpdir("chaos2");
            let (store2, _) = LogStore::<C>::open(dir2.clone(), 256, Some(dropping)).unwrap();
            let out = store2.settle(key, &C::entries(0..1)).unwrap();
            assert!(out.chaos_dropped);
            assert!(!C::path(&dir2, key).exists());
            std::fs::remove_dir_all(&dir).unwrap();
            std::fs::remove_dir_all(&dir2).unwrap();
        }
        over_both_codecs!(check);
    }

    #[test]
    fn flush_leaves_one_clean_file() {
        fn check<C: Fixture>() {
            let dir = C::tmpdir("flush");
            let key = 0x90;
            let (store, _) = LogStore::<C>::open(dir.clone(), 256, None).unwrap();
            store.settle(key, &C::entries(0..1)).unwrap();
            store.flush(key, &C::entries(0..2)).unwrap();
            let load = C::read(&dir, key);
            assert_eq!(load.entries, C::entries(0..2));
            assert_eq!(load.torn, None);
            // Disk now holds exactly the snapshot: a second flush is free.
            store.flush(key, &C::entries(0..2)).unwrap();
            assert_eq!(store.stats().compactions, 1);
            std::fs::remove_dir_all(&dir).unwrap();
        }
        over_both_codecs!(check);
    }

    #[test]
    fn miskeyed_segment_files_are_quarantined() {
        fn check<C: Fixture>() {
            let dir = C::tmpdir("miskey");
            // A file named for key 0xAA whose key line says 0xBB.
            std::fs::write(C::path(&dir, 0xAA), C::render_file(0xBB, &C::entries(0..1))).unwrap();
            let (store, notes) = LogStore::<C>::open(dir.clone(), 256, None).unwrap();
            assert!(notes.iter().any(|n| n.contains("named for")), "{notes:?}");
            assert!(store.hydrate(0xAA).is_empty());
            assert_eq!(store.stats().quarantined, 1);
            std::fs::remove_dir_all(&dir).unwrap();
        }
        over_both_codecs!(check);
    }
}
