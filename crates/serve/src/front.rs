//! Durable Pareto-front segments: each evaluator stream's archive
//! spilled to disk, so a restarted daemon answers `FRONT` queries warm —
//! `simulations 0` — instead of re-sweeping the design space.
//!
//! One file per stream, `front-<key>.seg` next to the evaluation-cache
//! segments (`key` is the profile's evaluation fingerprint, so a physics
//! change keys a different file and old fronts never leak):
//!
//! ```text
//! hi-serve pareto front v1
//! key 00000afc1d2e3f40
//! entry 85 1a2b3c4d
//! p 0000000000000216 3ff3ae147ae147ae 3fee666666666666 4010cccccccccccd 4056ab851eb851ec
//! ```
//!
//! A front point travels as its fingerprint plus four bit-exact floats —
//! power, PDR, latency, lifetime. This module is only the payload codec
//! ([`FrontCodec`]): the framing, torn-tail recovery, bit-rot quarantine
//! and compaction are the one [`LogStore`] of [`crate::segment`]. The
//! header differs from the cache segments', so a cross-fed file fails
//! fast with a "not a pareto front" (or "not a cache segment")
//! diagnostic instead of being half-parsed.
//!
//! The log is **append-only over accepted points**: settle appends every
//! front member not yet on disk, and displaced members are *not*
//! scrubbed eagerly. Hydration re-offers every logged point to a fresh
//! [`ParetoArchive`](hi_pareto::ParetoArchive), whose
//! insertion-order-invariant dominance filters the stale ones — the disk
//! format never has to encode deletions. Compaction (every
//! `compact_threshold` appends, at drain, or over a chaos-torn tail)
//! rewrites the file with the *current* front only.

use std::path::{Path, PathBuf};

use hi_core::DesignPoint;
use hi_pareto::FrontPoint;
use hi_trace::wellknown as wk;

use crate::segment::{LogCodec, LogLoad, LogStore};

/// Renders one front point's payload line (no framing, no newline).
/// Floats travel as exact bit patterns, so a hydrated archive is
/// bit-identical to the one that was persisted.
pub fn render_front_entry(point: &FrontPoint) -> String {
    format!(
        "p {:016x} {:016x} {:016x} {:016x} {:016x}",
        point.fingerprint,
        point.power_mw.to_bits(),
        point.pdr.to_bits(),
        point.latency_ms.to_bits(),
        point.nlt_days.to_bits()
    )
}

/// Parses one payload line back into a [`FrontPoint`].
pub fn parse_front_entry(payload: &str) -> Result<FrontPoint, String> {
    let mut tokens = payload.split_ascii_whitespace();
    match tokens.next() {
        Some("p") => {}
        Some(other) => return Err(format!("unknown front entry kind `{other}`")),
        None => return Err("empty front entry payload".to_string()),
    }
    let fp_token = tokens
        .next()
        .ok_or_else(|| "missing point fingerprint".to_string())?;
    let fingerprint = u64::from_str_radix(fp_token, 16)
        .map_err(|_| format!("bad point fingerprint `{fp_token}`"))?;
    if DesignPoint::from_fingerprint(fingerprint).is_none() {
        return Err(format!(
            "fingerprint {fingerprint:016x} encodes no valid design point"
        ));
    }
    let mut take = |what: &str| -> Result<f64, String> {
        let token = tokens
            .next()
            .ok_or_else(|| format!("{what}: missing field"))?;
        u64::from_str_radix(token, 16)
            .map(f64::from_bits)
            .map_err(|_| format!("{what}: bad hex `{token}`"))
    };
    let point = FrontPoint {
        fingerprint,
        power_mw: take("power")?,
        pdr: take("pdr")?,
        latency_ms: take("latency")?,
        nlt_days: take("lifetime")?,
    };
    if tokens.next().is_some() {
        return Err("trailing fields after front entry payload".to_string());
    }
    Ok(point)
}

/// The Pareto-front log format: `front-<key>.seg` files of
/// [`FrontPoint`] entries.
#[derive(Debug, Clone, Copy)]
pub struct FrontCodec;

impl LogCodec for FrontCodec {
    type Entry = FrontPoint;
    const PREFIX: &'static str = "front";
    const HEADER: &'static str = "hi-serve pareto front v1";
    const LABEL: &'static str = "pareto front";
    const LOADED_METRIC: &'static str = wk::SERVE_PARETO_LOADED;
    const PERSISTED_METRIC: &'static str = wk::SERVE_PARETO_PERSISTED;
    const NOUN: &'static str = "front points";
    const SUBJECT: &'static str = "front";
    // Displaced points fold out: disk must hold exactly the current front.
    const FOLDS_STALE: bool = true;

    fn render(point: &FrontPoint) -> String {
        render_front_entry(point)
    }

    fn parse(payload: &str) -> Result<FrontPoint, String> {
        parse_front_entry(payload)
    }

    fn fingerprint(point: &FrontPoint) -> u64 {
        point.fingerprint
    }
}

/// The durable side of the Pareto archives: one append-mostly front
/// segment per evaluator stream, sharing the cache directory with
/// [`crate::SegmentStore`].
pub type FrontStore = LogStore<FrontCodec>;

/// The outcome of parsing one front segment file.
pub type FrontLoad = LogLoad<FrontPoint>;

/// Parses a front segment file, separating torn tails from bit rot —
/// see [`LogCodec::parse_file`].
pub fn parse_front_segment(bytes: &[u8]) -> Result<FrontLoad, String> {
    FrontCodec::parse_file(bytes)
}

/// Renders a complete front segment file (header, key line, framed
/// entries).
pub fn render_front_segment(key: u64, points: &[FrontPoint]) -> Vec<u8> {
    FrontCodec::render_file(key, points)
}

/// The front segment path for stream `key` under `cache_dir`.
pub fn front_path(cache_dir: &Path, key: u64) -> PathBuf {
    FrontCodec::path(cache_dir, key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{render_segment, segment_path, CachedOutcome};
    use hi_core::{Evaluation, MacChoice, Placement, RouteChoice};
    use hi_net::TxPower;
    use hi_pareto::ParetoArchive;

    fn design(i: u8) -> DesignPoint {
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

    fn point(i: u8, power: f64, pdr: f64, latency: f64) -> FrontPoint {
        FrontPoint {
            fingerprint: design(i).fingerprint(),
            power_mw: power,
            pdr,
            latency_ms: latency,
            nlt_days: 101.25 / power,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hi-front-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn front_entries_roundtrip_bit_for_bit() {
        let p = point(0, 1.25, 0.9137, 5.5);
        assert_eq!(parse_front_entry(&render_front_entry(&p)).unwrap(), p);
        let weird = FrontPoint {
            fingerprint: design(1).fingerprint(),
            power_mw: f64::MIN_POSITIVE,
            pdr: -0.0,
            latency_ms: f64::INFINITY,
            nlt_days: f64::NAN,
        };
        let parsed = parse_front_entry(&render_front_entry(&weird)).unwrap();
        assert_eq!(parsed.power_mw.to_bits(), f64::MIN_POSITIVE.to_bits());
        assert_eq!(parsed.pdr.to_bits(), (-0.0f64).to_bits());
        assert!(parsed.nlt_days.is_nan());
    }

    #[test]
    fn malformed_front_entries_are_rejected_precisely() {
        for (payload, needle) in [
            ("", "empty front entry"),
            ("q 0000000000000216", "unknown front entry kind"),
            ("p", "missing point fingerprint"),
            ("p zzzz", "bad point fingerprint"),
            ("p ffffffffffffffff 0 0 0 0", "no valid design point"),
            ("p 0000000000000216 3ff0", "pdr: missing field"),
            ("p 0000000000000216 0 0 0 0 deadbeef", "trailing fields"),
        ] {
            let err = parse_front_entry(payload).unwrap_err();
            assert!(err.contains(needle), "`{payload}` → {err}");
        }
    }

    #[test]
    fn front_segments_roundtrip_and_cross_feeding_fails_fast() {
        let points = vec![point(0, 1.0, 0.9, 5.0), point(1, 0.8, 0.85, 6.0)];
        let bytes = render_front_segment(0xabc, &points);
        let load = parse_front_segment(&bytes).unwrap();
        assert_eq!(load.key, 0xabc);
        assert_eq!(load.entries, points);
        assert_eq!(load.torn, None);
        // A cache segment fed to the front parser (and vice versa) is
        // rejected at the header, not half-parsed.
        let cache = render_segment(
            0xabc,
            &[CachedOutcome::Nominal {
                point: design(0),
                eval: Evaluation {
                    pdr: 0.9,
                    nlt_days: 40.0,
                    power_mw: 1.0,
                    latency_ms: 5.0,
                },
            }],
        );
        let err = parse_front_segment(&cache).unwrap_err();
        assert!(err.contains("not a pareto front"), "{err}");
        let err = crate::parse_segment(&bytes).unwrap_err();
        assert!(err.contains("not a cache segment"), "{err}");
    }

    #[test]
    fn torn_front_tails_keep_the_intact_prefix() {
        let points = vec![point(0, 1.0, 0.9, 5.0), point(1, 0.8, 0.85, 6.0)];
        let bytes = render_front_segment(7, &points);
        let first_end = render_front_segment(7, &points[..1]).len();
        for cut in (first_end + 1)..bytes.len() {
            let load = parse_front_segment(&bytes[..cut]).unwrap();
            assert_eq!(load.entries, points[..1], "cut at {cut}");
            assert!(load.torn.is_some(), "cut at {cut}");
        }
    }

    #[test]
    fn store_settles_hydrates_and_filters_stale_points_across_reopen() {
        let dir = tmpdir("reopen");
        let key = 0x51;
        let better = point(2, 0.7, 0.95, 4.0); // dominates point(0)
        {
            let (store, notes) = FrontStore::open(dir.clone(), 256, None).unwrap();
            assert!(notes.is_empty(), "{notes:?}");
            let out = store
                .settle(key, &[point(0, 1.0, 0.9, 5.0), point(1, 0.5, 0.6, 9.0)])
                .unwrap();
            assert_eq!(out.persisted, 2);
            // The archive evolves: point(0) is displaced, `better` joins.
            // Settle sees only the current front and appends the delta.
            let out = store
                .settle(key, &[better, point(1, 0.5, 0.6, 9.0)])
                .unwrap();
            assert_eq!(out.persisted, 1);
            assert_eq!(store.persisted_len(key), 3);
        }
        // Reopen: the log holds all three points; re-inserting them into
        // a fresh archive filters the displaced one.
        let (store, notes) = FrontStore::open(dir.clone(), 256, None).unwrap();
        assert!(notes.is_empty(), "{notes:?}");
        let logged = store.hydrate(key);
        assert_eq!(logged.len(), 3);
        let mut archive = ParetoArchive::default();
        for p in &logged {
            archive.insert(*p);
        }
        let front = archive.front();
        assert_eq!(front.len(), 2);
        assert!(front.contains(&better));
        assert!(store.hydrate(key).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_folds_displaced_points_out_of_the_file() {
        // The one policy the two log formats differ in: disk holds two
        // entries, the drain-time snapshot only the second.
        let dir = tmpdir("flush");
        let key = 0x90;
        let (store, _) = FrontStore::open(dir.clone(), 256, None).unwrap();
        store
            .settle(key, &[point(0, 1.0, 0.9, 5.0), point(2, 0.7, 0.95, 4.0)])
            .unwrap();
        // point(0) has since been displaced; only point(2) remains, and
        // the front file is rewritten to hold exactly that.
        let current = [point(2, 0.7, 0.95, 4.0)];
        store.flush(key, &current).unwrap();
        let load = parse_front_segment(&std::fs::read(front_path(&dir, key)).unwrap()).unwrap();
        assert_eq!(load.entries, current);
        assert_eq!(load.torn, None);
        // A cache segment keeps what its snapshot lacks (a chaos-dropped
        // in-memory entry is still a valid simulation), so the same
        // sequence leaves both entries on disk and rewrites nothing.
        let cached = |i: u8| CachedOutcome::Nominal {
            point: design(i),
            eval: Evaluation {
                pdr: 0.9,
                nlt_days: 40.0,
                power_mw: 1.0,
                latency_ms: 5.0,
            },
        };
        let (caches, _) = crate::SegmentStore::open(dir.clone(), 256, None).unwrap();
        caches.settle(key, &[cached(0), cached(2)]).unwrap();
        caches.flush(key, &[cached(2)]).unwrap();
        let load = crate::parse_segment(&std::fs::read(segment_path(&dir, key)).unwrap()).unwrap();
        assert_eq!(load.entries, [cached(0), cached(2)]);
        assert_eq!(caches.stats().compactions, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_files_repair_and_rotted_files_quarantine_at_open() {
        let dir = tmpdir("repair");
        let torn_key = 0x60;
        let rot_key = 0x61;
        let bytes = render_front_segment(
            torn_key,
            &[point(0, 1.0, 0.9, 5.0), point(1, 0.5, 0.6, 9.0)],
        );
        std::fs::write(front_path(&dir, torn_key), &bytes[..bytes.len() - 3]).unwrap();
        let mut rotted = render_front_segment(rot_key, &[point(2, 0.7, 0.95, 4.0)]);
        let at = rotted.len() - 10;
        rotted[at] ^= 0x01;
        std::fs::write(front_path(&dir, rot_key), &rotted).unwrap();
        let (store, notes) = FrontStore::open(dir.clone(), 256, None).unwrap();
        assert_eq!(notes.len(), 2, "{notes:?}");
        assert!(
            notes.iter().any(|n| n.contains("torn tail truncated")),
            "{notes:?}"
        );
        assert!(notes.iter().any(|n| n.contains("bit rot")), "{notes:?}");
        assert_eq!(store.hydrate(torn_key), [point(0, 1.0, 0.9, 5.0)]);
        assert!(store.hydrate(rot_key).is_empty());
        assert!(front_path(&dir, rot_key)
            .with_extension("seg.quarantine")
            .exists());
        assert_eq!(store.stats().quarantined, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_torn_append_recovers_via_forced_compaction() {
        let dir = tmpdir("chaos");
        let key = 0x80;
        let chaos = hi_core::ChaosPolicy::parse("seed=5,torn=1").unwrap();
        let (store, _) = FrontStore::open(dir.clone(), 256, Some(chaos)).unwrap();
        let out = store.settle(key, &[point(0, 1.0, 0.9, 5.0)]).unwrap();
        assert!(out.chaos_torn);
        assert_eq!(out.persisted, 0);
        let load = parse_front_segment(&std::fs::read(front_path(&dir, key)).unwrap()).unwrap();
        assert!(load.torn.is_some());
        let out = store
            .settle(key, &[point(0, 1.0, 0.9, 5.0), point(1, 0.5, 0.6, 9.0)])
            .unwrap();
        assert!(out.compacted);
        assert_eq!(out.persisted, 2);
        let load = parse_front_segment(&std::fs::read(front_path(&dir, key)).unwrap()).unwrap();
        assert_eq!(load.torn, None);
        assert_eq!(load.entries.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn front_and_cache_segments_share_a_directory_without_collisions() {
        let dir = tmpdir("shared");
        let key = 0x33;
        std::fs::write(
            segment_path(&dir, key),
            render_segment(
                key,
                &[CachedOutcome::Nominal {
                    point: design(0),
                    eval: Evaluation {
                        pdr: 0.9,
                        nlt_days: 40.0,
                        power_mw: 1.0,
                        latency_ms: 5.0,
                    },
                }],
            ),
        )
        .unwrap();
        std::fs::write(
            front_path(&dir, key),
            render_front_segment(key, &[point(0, 1.0, 0.9, 5.0)]),
        )
        .unwrap();
        // Each store sees only its own files.
        let (fronts, notes) = FrontStore::open(dir.clone(), 256, None).unwrap();
        assert!(notes.is_empty(), "{notes:?}");
        assert_eq!(fronts.hydrate(key).len(), 1);
        let (caches, notes) = crate::SegmentStore::open(dir.clone(), 256, None).unwrap();
        assert!(notes.is_empty(), "{notes:?}");
        assert_eq!(caches.hydrate(key).len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn miskeyed_front_files_are_quarantined() {
        let dir = tmpdir("miskey");
        std::fs::write(
            front_path(&dir, 0xAA),
            render_front_segment(0xBB, &[point(0, 1.0, 0.9, 5.0)]),
        )
        .unwrap();
        let (store, notes) = FrontStore::open(dir.clone(), 256, None).unwrap();
        assert!(notes.iter().any(|n| n.contains("named for")), "{notes:?}");
        assert!(store.hydrate(0xAA).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
