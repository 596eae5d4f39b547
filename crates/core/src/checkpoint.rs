//! Checkpoint/resume for Algorithm 1.
//!
//! An [`ExploreCheckpoint`] captures the full exploration state after any
//! completed iteration: the power-cut ladder (which determines the MILP's
//! remaining admissible region), the incumbent, and the effort counters.
//! Replaying the ladder into a fresh encoding visits exactly the levels a
//! straight-through run would have visited next, so checkpoint-and-resume
//! is bit-identical to never stopping (`resume_is_bit_identical` in
//! `tests/determinism.rs` certifies this; CI byte-diffs the CLI
//! transcripts).
//!
//! The on-disk format is a line-oriented text file. Every `f64` is
//! round-tripped through [`f64::to_bits`] as 16 hex digits — decimal
//! formatting would lose bits and silently break the bit-identity
//! contract. The design point travels as its
//! [`fingerprint`](DesignPoint::fingerprint). No external serialization
//! crate is involved.
//!
//! # Crash safety (format v2)
//!
//! Version 2 is the v1 body sealed with the [`crate::store`] CRC-32
//! trailer, so truncation and bit rot are *detected*, never resumed
//! from. Callers write it with [`store::write_atomic`] and read it back
//! with [`store::load_recovering`] over [`load_checkpoint_file`], whose
//! typed [`CheckpointLoadError`] lets the CLI tell an unreadable file
//! (exit 3) from a corrupt one (exit 4).
//!
//! Version 1 files (no trailer) still parse, so pre-v2 checkpoints
//! remain resumable.

use std::path::Path;

use crate::algorithm1::{ExploreError, ExploreOptions, Problem};
use crate::evaluator::Evaluation;
use crate::point::DesignPoint;
use crate::store;

/// Engine label recorded in checkpoints by the paper's Algorithm 1 (the
/// default: a checkpoint with no `engine` line belongs to it).
pub const ENGINE_ALGORITHM1: &str = "algorithm1";
/// Engine label recorded in checkpoints by the Γ-robust MILP engine.
pub const ENGINE_ROBUST_MILP: &str = "robust-milp";
/// Engine label recorded in checkpoints by the ILP restriction-and-repair
/// heuristic.
pub const ENGINE_ILP_HEURISTIC: &str = "ilp-heuristic";

/// The resumable state of an exploration (Algorithm 1 or one of the
/// robust engines).
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreCheckpoint {
    /// The engine that recorded the checkpoint
    /// ([`ENGINE_ALGORITHM1`] when the file carries no `engine` line);
    /// resume exits with a diagnostic when it does not match the engine
    /// asked to continue, because each engine's cut ladder replays into a
    /// different encoding.
    pub engine: String,
    /// The reliability floor the exploration ran at (resume validates it).
    pub pdr_min: f64,
    /// Whether the α-corrected bound was active (resume validates it).
    pub alpha_correction: bool,
    /// The power-cut ladder, in application order.
    pub cuts: Vec<f64>,
    /// MILP iterations completed.
    pub iterations: u32,
    /// Candidates proposed so far.
    pub candidates_proposed: u64,
    /// Unique simulations spent so far.
    pub simulations: u64,
    /// The incumbent, if any.
    pub best: Option<(DesignPoint, Evaluation)>,
}

/// Validates a resume checkpoint against the engine about to continue
/// it: the recording engine, the `pdr_min` bits and `alpha_correction`
/// must all match, because each engine's cut ladder replays into its own
/// encoding under the problem it was recorded for.
pub(crate) fn validate_resume(
    resume: Option<&ExploreCheckpoint>,
    engine: &str,
    problem: &Problem,
    options: ExploreOptions,
) -> Result<(), ExploreError> {
    let Some(cp) = resume else { return Ok(()) };
    if cp.engine != engine {
        return Err(ExploreError::Checkpoint(format!(
            "checkpoint was recorded by engine `{}`, this run uses `{engine}`",
            cp.engine
        )));
    }
    if cp.pdr_min.to_bits() != problem.pdr_min.to_bits() {
        return Err(ExploreError::Checkpoint(format!(
            "checkpoint was recorded at pdr_min = {}, this run uses {}",
            cp.pdr_min, problem.pdr_min
        )));
    }
    if cp.alpha_correction != options.alpha_correction {
        return Err(ExploreError::Checkpoint(
            "checkpoint and this run disagree on alpha_correction".into(),
        ));
    }
    Ok(())
}

const HEADER_V1: &str = "hi-opt explore checkpoint v1";
const HEADER_V2: &str = "hi-opt explore checkpoint v2";

fn f64_to_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn f64_from_hex(s: &str) -> Result<f64, String> {
    if s.len() != 16 {
        return Err(format!("expected 16 hex digits, got {s:?}"));
    }
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("bad float bits {s:?}"))
}

impl ExploreCheckpoint {
    /// Captures the state of a finished (or budget-stopped) exploration.
    pub fn from_outcome(
        pdr_min: f64,
        alpha_correction: bool,
        outcome: &crate::ExplorationOutcome,
    ) -> Self {
        Self {
            engine: ENGINE_ALGORITHM1.to_string(),
            pdr_min,
            alpha_correction,
            cuts: outcome.cuts.clone(),
            iterations: outcome.iterations,
            candidates_proposed: outcome.candidates_proposed,
            simulations: outcome.simulations,
            best: outcome.best,
        }
    }

    /// The same checkpoint relabeled as belonging to `engine` — the
    /// robust engines stamp their label on the snapshots they record.
    #[must_use]
    pub fn with_engine(mut self, engine: &str) -> Self {
        self.engine = engine.to_string();
        self
    }

    /// Renders the checkpoint as its text format (v2: body + CRC-32
    /// trailer).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER_V2);
        out.push('\n');
        out.push_str(&format!("pdr_min {}\n", f64_to_hex(self.pdr_min)));
        out.push_str(&format!(
            "alpha_correction {}\n",
            u8::from(self.alpha_correction)
        ));
        out.push_str(&format!("iterations {}\n", self.iterations));
        out.push_str(&format!("candidates {}\n", self.candidates_proposed));
        out.push_str(&format!("simulations {}\n", self.simulations));
        // Only non-default engines write the line: Algorithm 1 checkpoints
        // stay byte-identical to every pre-engine file (and resumable by
        // pre-engine readers, which reject unknown keys).
        if self.engine != ENGINE_ALGORITHM1 {
            out.push_str(&format!("engine {}\n", self.engine));
        }
        for cut in &self.cuts {
            out.push_str(&format!("cut {}\n", f64_to_hex(*cut)));
        }
        match &self.best {
            None => out.push_str("best none\n"),
            Some((point, eval)) => out.push_str(&format!(
                "best {:x} {} {} {} {}\n",
                point.fingerprint(),
                f64_to_hex(eval.pdr),
                f64_to_hex(eval.nlt_days),
                f64_to_hex(eval.power_mw),
                f64_to_hex(eval.latency_ms),
            )),
        }
        out.push_str("end\n");
        store::seal(out)
    }

    /// Parses the text format written by [`to_text`](Self::to_text), or
    /// the legacy v1 format (no CRC trailer).
    ///
    /// # Errors
    ///
    /// Returns a line-attributed message on any malformed content; for v2
    /// files the CRC trailer is verified before any field is trusted, so
    /// a torn or bit-rotted file is named as corrupt rather than parsed
    /// partially.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let header = text.lines().next().ok_or("empty checkpoint file")?.trim();
        if header == HEADER_V1 {
            return Self::parse_body(text, HEADER_V1);
        }
        if header != HEADER_V2 {
            return Err(format!(
                "line 1: expected {HEADER_V2:?} (or legacy {HEADER_V1:?}), got {header:?}"
            ));
        }
        Self::parse_body(store::unseal(text)?, HEADER_V2)
    }

    /// Parses the line-oriented body shared by both format versions.
    fn parse_body(text: &str, expected_header: &str) -> Result<Self, String> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or("empty checkpoint file")?;
        if header.trim() != expected_header {
            return Err(format!(
                "line 1: expected {expected_header:?}, got {header:?}"
            ));
        }
        let mut engine: Option<String> = None;
        let mut pdr_min = None;
        let mut alpha_correction = None;
        let mut iterations = None;
        let mut candidates = None;
        let mut simulations = None;
        let mut cuts = Vec::new();
        let mut best: Option<Option<(DesignPoint, Evaluation)>> = None;
        let mut ended = false;
        for (i, line) in lines {
            let lineno = i + 1;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if ended {
                return Err(format!("line {lineno}: content after \"end\""));
            }
            let bad = |what: &str| format!("line {lineno}: {what}");
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "engine" => {
                    if rest.is_empty() {
                        return Err(bad("empty engine name"));
                    }
                    engine = Some(rest.to_string());
                }
                "pdr_min" => pdr_min = Some(f64_from_hex(rest).map_err(|e| bad(&e))?),
                "alpha_correction" => {
                    alpha_correction = Some(match rest {
                        "0" => false,
                        "1" => true,
                        other => return Err(bad(&format!("bad alpha flag {other:?}"))),
                    })
                }
                "iterations" => {
                    iterations = Some(
                        rest.parse::<u32>()
                            .map_err(|_| bad("bad iteration count"))?,
                    )
                }
                "candidates" => {
                    candidates = Some(
                        rest.parse::<u64>()
                            .map_err(|_| bad("bad candidate count"))?,
                    )
                }
                "simulations" => {
                    simulations = Some(
                        rest.parse::<u64>()
                            .map_err(|_| bad("bad simulation count"))?,
                    )
                }
                "cut" => cuts.push(f64_from_hex(rest).map_err(|e| bad(&e))?),
                "best" if rest == "none" => best = Some(None),
                "best" => {
                    let fields: Vec<&str> = rest.split_whitespace().collect();
                    // Four fields is the pre-latency format; those
                    // checkpoints stay resumable with latency zeroed.
                    if fields.len() != 4 && fields.len() != 5 {
                        return Err(bad(
                            "best needs <fingerprint> <pdr> <nlt> <power> [<latency>]",
                        ));
                    }
                    let fp =
                        u64::from_str_radix(fields[0], 16).map_err(|_| bad("bad fingerprint"))?;
                    let point = DesignPoint::from_fingerprint(fp)
                        .ok_or_else(|| bad("fingerprint decodes to no design point"))?;
                    let eval = Evaluation {
                        pdr: f64_from_hex(fields[1]).map_err(|e| bad(&e))?,
                        nlt_days: f64_from_hex(fields[2]).map_err(|e| bad(&e))?,
                        power_mw: f64_from_hex(fields[3]).map_err(|e| bad(&e))?,
                        latency_ms: match fields.get(4) {
                            Some(raw) => f64_from_hex(raw).map_err(|e| bad(&e))?,
                            None => 0.0,
                        },
                    };
                    best = Some(Some((point, eval)));
                }
                "end" => ended = true,
                other => return Err(bad(&format!("unknown key {other:?}"))),
            }
        }
        if !ended {
            return Err("truncated checkpoint: missing \"end\" line".into());
        }
        Ok(Self {
            engine: engine.unwrap_or_else(|| ENGINE_ALGORITHM1.to_string()),
            pdr_min: pdr_min.ok_or("missing pdr_min")?,
            alpha_correction: alpha_correction.ok_or("missing alpha_correction")?,
            cuts,
            iterations: iterations.ok_or("missing iterations")?,
            candidates_proposed: candidates.ok_or("missing candidates")?,
            simulations: simulations.ok_or("missing simulations")?,
            best: best.ok_or("missing best")?,
        })
    }
}

/// Why a checkpoint could not be loaded, typed by whose fault it is so
/// the CLI can exit 3 (the OS refused the file) or 4 (the file is
/// malformed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointLoadError {
    /// The file (and any `.prev` rotation) could not be read at all.
    Io(String),
    /// The file was read but is corrupt, truncated or malformed — the
    /// message carries the offending line.
    Spec(String),
}

impl std::fmt::Display for CheckpointLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(msg) | Self::Spec(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CheckpointLoadError {}

/// Reads and parses the checkpoint at `path` (either format version).
pub fn load_checkpoint_file(path: &Path) -> Result<ExploreCheckpoint, CheckpointLoadError> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        CheckpointLoadError::Io(format!("cannot read checkpoint `{}`: {e}", path.display()))
    })?;
    ExploreCheckpoint::from_text(&text)
        .map_err(|e| CheckpointLoadError::Spec(format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{MacChoice, Placement, RouteChoice};
    use hi_net::TxPower;

    fn sample() -> ExploreCheckpoint {
        ExploreCheckpoint {
            engine: ENGINE_ALGORITHM1.to_string(),
            pdr_min: 0.9,
            alpha_correction: true,
            cuts: vec![1.25, 1.5000000000000002, f64::MIN_POSITIVE],
            iterations: 3,
            candidates_proposed: 71,
            simulations: 68,
            best: Some((
                DesignPoint {
                    placement: Placement::from_indices([0, 2, 4, 7]),
                    tx_power: TxPower::Minus10Dbm,
                    mac: MacChoice::Csma,
                    routing: RouteChoice::Mesh,
                },
                Evaluation {
                    pdr: 0.9375,
                    nlt_days: 181.2345678901234,
                    power_mw: 1.0000000000000004,
                    latency_ms: 7.891011121314152,
                },
            )),
        }
    }

    /// Re-signs a (possibly tampered) v2 body so parse errors in the body
    /// itself are reachable past the CRC gate.
    fn resign(body_and_old_trailer: &str) -> String {
        let end = body_and_old_trailer
            .rfind("crc32 ")
            .expect("v2 text has a trailer");
        store::seal(body_and_old_trailer[..end].to_string())
    }

    #[test]
    fn text_roundtrip_is_bit_exact() {
        let cp = sample();
        let parsed = ExploreCheckpoint::from_text(&cp.to_text()).unwrap();
        assert_eq!(parsed, cp);
        // PartialEq on f64 misses the -0.0/0.0 and NaN subtleties; check
        // the actual bits of every float too.
        let (_, e1) = cp.best.unwrap();
        let (_, e2) = parsed.best.unwrap();
        assert_eq!(e1.power_mw.to_bits(), e2.power_mw.to_bits());
        for (a, b) in cp.cuts.iter().zip(&parsed.cuts) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn engine_line_roundtrips_and_defaults_to_algorithm1() {
        // The default engine writes no line at all: pre-engine readers
        // (which reject unknown keys) keep resuming Algorithm 1 files.
        let default = sample();
        assert!(!default.to_text().contains("engine "));
        // Non-default engines stamp their label and it round-trips.
        let robust = sample().with_engine(ENGINE_ROBUST_MILP);
        let text = robust.to_text();
        assert!(text.contains("engine robust-milp\n"), "{text}");
        let parsed = ExploreCheckpoint::from_text(&text).unwrap();
        assert_eq!(parsed.engine, ENGINE_ROBUST_MILP);
        assert_eq!(parsed, robust);
        // A file with no engine line parses as Algorithm 1's.
        assert_eq!(
            ExploreCheckpoint::from_text(&default.to_text())
                .unwrap()
                .engine,
            ENGINE_ALGORITHM1
        );
    }

    #[test]
    fn infeasible_checkpoint_roundtrips() {
        let cp = ExploreCheckpoint {
            best: None,
            cuts: vec![],
            ..sample()
        };
        assert_eq!(ExploreCheckpoint::from_text(&cp.to_text()).unwrap(), cp);
    }

    #[test]
    fn legacy_v1_files_still_parse() {
        let cp = sample();
        let v1 = cp
            .to_text()
            .replace("checkpoint v2", "checkpoint v1")
            .lines()
            .filter(|l| !l.starts_with("crc32 "))
            .map(|l| format!("{l}\n"))
            .collect::<String>();
        assert_eq!(ExploreCheckpoint::from_text(&v1).unwrap(), cp);
    }

    #[test]
    fn pre_latency_best_lines_parse_with_latency_zeroed() {
        // Checkpoints written before latency joined the evaluation carry
        // four fields after "best"; they must stay resumable.
        let text = sample().to_text();
        let old_best = text
            .lines()
            .find(|l| l.starts_with("best "))
            .map(|l| l.rsplit_once(' ').unwrap().0.to_string())
            .unwrap();
        let four_field = resign(&text.replace(
            text.lines().find(|l| l.starts_with("best ")).unwrap(),
            &old_best,
        ));
        let parsed = ExploreCheckpoint::from_text(&four_field).unwrap();
        let (_, eval) = parsed.best.unwrap();
        assert_eq!(eval.latency_ms.to_bits(), 0.0f64.to_bits());
        assert_eq!(eval.pdr, sample().best.unwrap().1.pdr);
    }

    #[test]
    fn malformed_files_are_rejected_with_line_numbers() {
        assert!(ExploreCheckpoint::from_text("").is_err());
        assert!(ExploreCheckpoint::from_text("not a checkpoint\n")
            .unwrap_err()
            .contains("line 1"));
        let truncated = sample().to_text().replace("end\n", "");
        assert!(ExploreCheckpoint::from_text(&truncated)
            .unwrap_err()
            .contains("truncated"));
        let garbled = sample().to_text().replace("cut ", "cut zz");
        assert!(ExploreCheckpoint::from_text(&garbled).is_err());
        // Past the CRC gate, body errors stay line-attributed (the first
        // cut line is line 7: header + five counters precede it).
        let garbled = resign(&garbled);
        assert!(ExploreCheckpoint::from_text(&garbled)
            .unwrap_err()
            .contains("line 7"));
        let bad_fp = resign(
            &sample()
                .to_text()
                .replace("best ", "best ffffffffffffffff "),
        );
        // Six fields after "best" — rejected before fingerprint decode.
        assert!(ExploreCheckpoint::from_text(&bad_fp).is_err());
    }

    #[test]
    fn bit_rot_is_named_corrupt_not_parsed() {
        let text = sample().to_text();
        // Flip one content bit without touching the trailer.
        let mut bytes = text.clone().into_bytes();
        let flip_at = text.find("pdr_min ").unwrap() + 9;
        bytes[flip_at] ^= 0x01;
        let tampered = String::from_utf8(bytes).unwrap();
        let err = ExploreCheckpoint::from_text(&tampered).unwrap_err();
        assert!(err.contains("crc32 mismatch"), "{err}");
        assert!(err.contains("corrupt or truncated"), "{err}");
        // Truncating just before the trailer is caught as a missing one.
        let cut = &text[..text.rfind("crc32").unwrap() - 1];
        assert!(ExploreCheckpoint::from_text(cut)
            .unwrap_err()
            .contains("missing crc32 trailer"));
    }

    #[test]
    fn atomic_writes_rotate_and_recovery_prefers_the_primary() {
        let dir = std::env::temp_dir().join(format!("hi-opt-ck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ck");

        let first = ExploreCheckpoint {
            iterations: 1,
            ..sample()
        };
        let second = ExploreCheckpoint {
            iterations: 2,
            ..sample()
        };
        let write = |cp: &ExploreCheckpoint| store::write_atomic(&path, cp.to_text().as_bytes());
        let load = |path: &Path| store::load_recovering(path, load_checkpoint_file);
        write(&first).unwrap();
        assert_eq!(load(&path).unwrap(), (first.clone(), None));

        write(&second).unwrap();
        assert_eq!(load(&path).unwrap().0, second);
        // The rotation holds the previous state...
        assert_eq!(
            load_checkpoint_file(&store::prev_path(&path)).unwrap(),
            first
        );

        // ...and a torn primary falls back to it with a diagnostic.
        let torn = &second.to_text()[..40];
        std::fs::write(&path, torn).unwrap();
        let (recovered, fallback) = load(&path).unwrap();
        assert_eq!(recovered, first);
        let note = fallback.unwrap().to_string();
        assert!(note.contains("state.ck"), "{note}");
        assert!(note.contains("missing crc32 trailer"), "{note}");

        // Both gone bad: the primary's line-precise spec error survives.
        std::fs::write(store::prev_path(&path), "not a checkpoint\n").unwrap();
        match load(&path).unwrap_err() {
            CheckpointLoadError::Spec(msg) => {
                assert!(msg.contains("state.ck"), "{msg}")
            }
            other => panic!("wrong kind: {other:?}"),
        }
        // Primary missing entirely, rotation bad: an I/O error.
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            load(&path).unwrap_err(),
            CheckpointLoadError::Io(_)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
