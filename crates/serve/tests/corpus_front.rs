//! Corpus fuzz tests for the Pareto-front segment format
//! (`parse_front_segment` / `parse_front_entry` /
//! `render_front_segment`), in the same idiom as `corpus_segments.rs`.
//!
//! The front segment shares the cache segment's framing discipline —
//! torn tails are recoverable prefixes, CRC mismatches fail the whole
//! file — but carries a different header and payload grammar, so the
//! two formats must *reject each other* instead of half-parsing: a
//! warm restart that hydrated a Pareto archive from a cache segment
//! (or vice versa) would serve a front built from the wrong numbers.
//!
//! The committed seeds are real artifacts: `front_warm.seg` was written
//! by an actual daemon run (the same run that produced
//! `segment_warm.seg`), and the torn/bit-rot variants are byte-surgery
//! on it (a truncated tail; one flipped payload bit).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use hi_core::{parse_fault_suite, ExploreCheckpoint};
use hi_serve::{
    frame_entry, parse_front_segment, parse_profiles, parse_segment, render_front_entry,
    render_front_segment, FrontLoad, JobRecord,
};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_bytes(name: &str) -> Vec<u8> {
    let path = corpus_dir().join(name);
    std::fs::read(&path)
        .unwrap_or_else(|e| panic!("corpus file {} unreadable: {e}", path.display()))
}

/// `parse_front_segment` must return — Ok or Err — on `bytes`, never
/// panic.
fn parse_survives(context: &str, bytes: &[u8]) -> Result<FrontLoad, String> {
    catch_unwind(AssertUnwindSafe(|| parse_front_segment(bytes)))
        .unwrap_or_else(|_| panic!("front parser panicked on {context}"))
}

#[test]
fn the_wellformed_seed_parses_and_roundtrips() {
    let bytes = corpus_bytes("front_warm.seg");
    let load = parse_front_segment(&bytes).expect("the committed warm front is valid");
    assert!(load.torn.is_none(), "{:?}", load.torn);
    assert!(load.entries.len() >= 8, "suspiciously small seed");
    // Render-parse roundtrip is byte-identical: the seed really is in
    // canonical form, so compaction rewrites are stable.
    let rendered = render_front_segment(load.key, &load.entries);
    assert_eq!(rendered, bytes);
}

#[test]
fn the_torn_seed_keeps_its_intact_prefix() {
    let warm = parse_front_segment(&corpus_bytes("front_warm.seg")).unwrap();
    let torn = parse_front_segment(&corpus_bytes("front_torn.seg"))
        .expect("a torn tail is recoverable, not fatal");
    let note = torn.torn.expect("the tear must be reported");
    assert!(note.contains("torn"), "{note}");
    assert_eq!(torn.key, warm.key);
    assert_eq!(
        torn.entries.len(),
        warm.entries.len() - 1,
        "exactly the final, half-written point is lost"
    );
    assert_eq!(torn.entries, warm.entries[..warm.entries.len() - 1]);
}

#[test]
fn the_bit_rot_seed_is_rejected_whole() {
    let err = parse_front_segment(&corpus_bytes("front_bit_rot.seg"))
        .expect_err("a CRC mismatch mid-file is bit rot, not a tear");
    assert!(err.contains("crc"), "diagnostic must name the check: {err}");
}

#[test]
fn truncation_at_every_byte_never_panics_and_never_misloads() {
    let bytes = corpus_bytes("front_warm.seg");
    let full = parse_front_segment(&bytes).unwrap();
    // Clean cut points: after the key line and after each framed entry.
    // A cut exactly there is indistinguishable from a complete shorter
    // file — the append-only format's one honest blind spot. Everywhere
    // else, a cut MUST be flagged torn.
    let mut boundaries = vec![];
    let mut edge = bytes
        .windows(1)
        .enumerate()
        .filter(|(_, w)| w == b"\n")
        .map(|(i, _)| i + 1)
        .nth(1)
        .expect("header and key lines exist");
    boundaries.push(edge);
    for point in &full.entries {
        edge += frame_entry(&render_front_entry(point)).len();
        boundaries.push(edge);
    }
    for cut in 0..bytes.len() {
        let load = parse_survives(&format!("truncation at byte {cut}"), &bytes[..cut]);
        if let Ok(load) = load {
            // Whatever survives a cut must be a *prefix* of the truth —
            // never a reordering, never an invented point — and a cut
            // off a frame boundary must be flagged torn.
            assert!(load.entries.len() <= full.entries.len());
            assert_eq!(
                load.entries,
                full.entries[..load.entries.len()],
                "cut {cut}"
            );
            assert!(
                load.torn.is_some() || boundaries.contains(&cut),
                "silent data loss at cut {cut}"
            );
        }
    }
    // And the empty file is a torn (empty) front, not an error: a crash
    // can land exactly between create and first write.
    let load = parse_front_segment(b"").unwrap();
    assert!(load.entries.is_empty());
}

#[test]
fn every_single_bit_flip_under_the_crc_is_caught() {
    let bytes = corpus_bytes("front_warm.seg");
    let full = parse_front_segment(&bytes).unwrap();
    // CRC-32 detects every single-bit error, so flipping any one bit of
    // any payload byte must fail the file — exhaustively, not sampled.
    // Payload bytes are exactly the rendered point lines.
    let mut covered = 0usize;
    let mut cursor = 0usize;
    for point in &full.entries {
        let payload = render_front_entry(point);
        let start = bytes[cursor..]
            .windows(payload.len())
            .position(|w| w == payload.as_bytes())
            .map(|p| p + cursor)
            .expect("payload bytes present verbatim in the file");
        for offset in 0..payload.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[start + offset] ^= 1 << bit;
                let context = format!("bit {bit} of payload byte {offset}");
                assert!(
                    parse_survives(&context, &mutated).is_err(),
                    "undetected corruption: {context}"
                );
                covered += 1;
            }
        }
        cursor = start + payload.len();
    }
    assert!(covered >= 8 * 8 * 86, "flip sweep lost its coverage");
}

#[test]
fn garbage_payloads_error_without_panicking() {
    let key = 0x42u64;
    let header = format!("hi-serve pareto front v1\nkey {key:016x}\n");

    // Correctly framed garbage: the CRC passes, the payload parser must
    // still produce a typed error naming the entry.
    let mut bytes = header.clone().into_bytes();
    bytes.extend_from_slice(&frame_entry("z".repeat(1 << 20).as_str()));
    let err = parse_survives("a megabyte garbage point", &bytes).unwrap_err();
    assert!(err.contains("entry 0"), "diagnostic names the entry: {err}");

    // A point whose fingerprint decodes to no design point is refused:
    // a hydrated archive must never carry unreportable members.
    let mut bytes = header.clone().into_bytes();
    bytes.extend_from_slice(&frame_entry(
        "p ffffffffffffffff 3fe0000000000000 3fe0000000000000 3fe0000000000000 3fe0000000000000",
    ));
    let err = parse_survives("an impossible fingerprint", &bytes).unwrap_err();
    assert!(err.contains("no valid design point"), "{err}");

    // Trailing fields are refused, not ignored: a fifth float means the
    // writer and reader disagree about the schema.
    let mut bytes = header.into_bytes();
    bytes.extend_from_slice(&frame_entry(
        "p 00000000000002b0 3fe0000000000000 3fe0000000000000 \
         3fe0000000000000 3fe0000000000000 3fe0000000000000",
    ));
    let err = parse_survives("a five-float point", &bytes).unwrap_err();
    assert!(err.contains("trailing"), "{err}");
}

#[test]
fn fronts_cross_feed_into_every_other_parser_as_typed_errors() {
    let front = corpus_bytes("front_warm.seg");
    let text = String::from_utf8(front.clone()).expect("the seed is ASCII");

    // A front fed to the five sibling parsers: typed errors, no panics.
    let cache = catch_unwind(AssertUnwindSafe(|| parse_segment(&front)))
        .expect("cache-segment parser panicked on a front");
    assert!(
        cache.unwrap_err().contains("not a cache segment"),
        "the cache parser must name its own header"
    );
    let profile = catch_unwind(AssertUnwindSafe(|| parse_profiles(&text)))
        .expect("profile parser panicked on a front");
    assert!(profile.is_err());
    let record = catch_unwind(AssertUnwindSafe(|| JobRecord::from_text(&text)))
        .expect("record parser panicked on a front");
    assert!(record.is_err());
    let ck = catch_unwind(AssertUnwindSafe(|| ExploreCheckpoint::from_text(&text)))
        .expect("checkpoint parser panicked on a front");
    assert!(ck.is_err());
    let suite = catch_unwind(AssertUnwindSafe(|| parse_fault_suite(&text)))
        .expect("suite parser panicked on a front");
    assert!(suite.is_err());

    // And every *other* corpus format fed to the front parser: a cache
    // segment, a checkpoint, a record, a profile and a fault suite all
    // miss the header and fail with the expected-header diagnostic.
    for name in [
        "segment_warm.seg",
        "profile_demo.profile",
        "record_done.rec",
        "record_torn.rec",
        "record_bit_rot.rec",
        "xfeed_checkpoint_v2.ck",
        "xfeed_suite_demo.suite",
    ] {
        let err = parse_survives(name, &corpus_bytes(name)).unwrap_err();
        assert!(err.contains("not a pareto front"), "{name}: {err}");
    }
}
