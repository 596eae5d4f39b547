//! The fleet user-profile format and its total, typed parser.
//!
//! A profile file describes one *user* of the fleet service: how their
//! body scales the paper's link geometry, how their radio environment
//! shifts the channel matrix, what traffic their application generates,
//! which reliability floor and search engine their job runs under, and
//! (optionally) which fault suite hardens the answer. One file may hold
//! many `profile` blocks — that is a *fleet* submission, and every block
//! becomes its own job.
//!
//! ```text
//! # free-form comments anywhere
//! profile alice              # starts a block; id = rest of line
//! geometry 1.1               # body scale: all link distances ×1.1
//! channel 3.5                # uniform channel-matrix shift, dB
//! traffic 25 64              # packets/second [packet bytes]
//! pdrmin 0.9                 # reliability floor in [0, 1]
//! engine algorithm1          # algorithm1 | exhaustive | robust-milp | ilp-heuristic
//! gamma 2                    # Γ budget (robust engines only)
//! tsim 60                    # per-replication simulated seconds
//! runs 3                     # replications averaged per evaluation
//! seed 7                     # master seed
//! faults body.suite worst    # optional fault suite [worst|nominal|qNN]
//! ```
//!
//! The parser follows `hi_core::suitefile`'s contract: **total** (any
//! byte sequence yields a value or a typed error, never a panic), typed
//! errors carrying 1-based line numbers, `#` comments, CRLF tolerated,
//! trailing fields rejected. It deliberately accepts *semantically*
//! broken but well-formed profiles (PDRmin 1.5, zero traffic, duplicate
//! ids): semantics are `hi_lint::lint_profile`'s job (HL042), so the
//! daemon, the CLI linter and the tests all share one answer.
//!
//! Lowering is exact: a body-geometry scale `s` multiplies every link
//! distance, and under the log-distance model
//! `PL = pl0 + 10·n·log10(d/d0) + penalties` that factors out as
//! `10·n·log10(s)` added to `pl0_db`; a uniform channel shift adds
//! straight to `pl0_db` as well. Both therefore fold into the existing
//! [`SimProtocol`] without touching per-link code.

use std::fmt;
use std::str::SplitWhitespace;

use hi_channel::ChannelParams;
use hi_core::{Engine, Problem, RobustMode, SimProtocol};
use hi_des::SimDuration;
use hi_net::AppParams;

/// An optional fault-suite reference: robustness as part of a profile.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsRef {
    /// Path to the suite file, read by the daemon at submit and again
    /// when it restarts.
    pub path: String,
    /// How scenario evaluations aggregate into one score.
    pub mode: RobustMode,
}

/// One fleet user: everything a job needs, parsed from one `profile`
/// block by [`parse_profiles`]; a bare block takes the defaults of
/// [`UserProfile::named`].
#[derive(Debug, Clone, PartialEq)]
pub struct UserProfile {
    /// The user id results are routed back under (may be empty — HL042).
    pub id: String,
    /// Body-geometry scale: every link distance is multiplied by this.
    pub geometry_scale: f64,
    /// Uniform channel-matrix shift, dB (positive = lossier).
    pub channel_offset_db: f64,
    /// Application packet generation rate, packets/second.
    pub packets_per_second: f64,
    /// Application packet length, bytes.
    pub packet_len_bytes: usize,
    /// Reliability floor `PDRmin`.
    pub pdr_min: f64,
    /// Which search engine runs the job. A robust engine carries the
    /// profile's `gamma` line, if any (the parser rejects `gamma` on the
    /// other engines).
    pub engine: Engine,
    /// Per-replication simulated duration, seconds.
    pub t_sim_secs: f64,
    /// Replications averaged per evaluation.
    pub runs: u32,
    /// Master seed.
    pub seed: u64,
    /// Optional fault suite the exploration is hardened against.
    pub faults: Option<FaultsRef>,
}

impl UserProfile {
    /// The defaults a bare `profile <id>` block gets: the paper's §4.1
    /// traffic and channel at scale 1, a 0.9 floor, Algorithm 1, and the
    /// CLI's demo protocol (60 s, 3 runs, seed `0xDAC2017`).
    pub fn named(id: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            geometry_scale: 1.0,
            channel_offset_db: 0.0,
            packets_per_second: 10.0,
            packet_len_bytes: 100,
            pdr_min: 0.9,
            engine: Engine::Algorithm1,
            t_sim_secs: 60.0,
            runs: 3,
            seed: 0xDAC_2017,
            faults: None,
        }
    }

    /// The simulation protocol this profile lowers to (geometry and
    /// channel shift folded into `pl0_db`, traffic into `AppParams`).
    /// The daemon layers its own `--max-events` deadline on top.
    pub fn protocol(&self) -> SimProtocol {
        let mut channel = ChannelParams::default();
        channel.path_loss.pl0_db += 10.0 * channel.path_loss.exponent * self.geometry_scale.log10()
            + self.channel_offset_db;
        let mut protocol = SimProtocol::new(
            SimDuration::from_secs(self.t_sim_secs),
            self.runs,
            self.seed,
        )
        .with_app(AppParams {
            packet_len_bytes: self.packet_len_bytes,
            packets_per_second: self.packets_per_second,
            ..AppParams::default()
        });
        protocol.channel = channel;
        protocol
    }

    /// The optimization problem this profile poses (paper design space,
    /// the profile's floor and traffic).
    pub fn problem(&self) -> Problem {
        Problem {
            space: hi_core::DesignSpace::paper_default(),
            pdr_min: self.pdr_min,
            app: self.protocol().app,
        }
    }

    /// The *evaluation* fingerprint: a hash over exactly the fields that
    /// determine simulation results — the lowered channel, the protocol
    /// (duration, replications, seed), the traffic, and the fault suite's
    /// *content* and aggregation mode. Deliberately excluded: the profile
    /// id, `pdr_min` and `engine` (Γ included), which steer the *search* but
    /// not any per-point evaluation — so two users who differ only there
    /// share every simulation through the fleet cache.
    pub fn eval_fingerprint(&self, suite_text: Option<&str>) -> u64 {
        let protocol = self.protocol();
        let mut h = Fnv::new();
        h.f64(protocol.channel.path_loss.pl0_db);
        h.f64(protocol.channel.path_loss.ref_distance_m);
        h.f64(protocol.channel.path_loss.exponent);
        h.f64(protocol.channel.path_loss.nlos_penalty_db);
        h.f64(protocol.channel.path_loss.limb_penalty_db);
        h.f64(self.t_sim_secs);
        h.u64(self.runs as u64);
        h.u64(self.seed);
        h.f64(protocol.app.baseline_power_w);
        h.u64(protocol.app.packet_len_bytes as u64);
        h.f64(protocol.app.packets_per_second);
        match suite_text {
            None => h.u64(0),
            Some(text) => {
                h.u64(1);
                h.bytes(text.as_bytes());
                match self.faults.as_ref().map(|f| f.mode) {
                    Some(RobustMode::Nominal) | None => h.u64(0),
                    Some(RobustMode::WorstCase) => h.u64(1),
                    Some(RobustMode::Quantile(q)) => {
                        h.u64(2);
                        h.f64(q);
                    }
                }
            }
        }
        h.finish()
    }

    /// Lowers this profile for `hi_lint::lint_profile` (HL042).
    pub fn lint_spec(&self) -> hi_lint::ProfileSpec {
        hi_lint::ProfileSpec {
            id: self.id.clone(),
            packets_per_second: self.packets_per_second,
            pdr_min: self.pdr_min,
            geometry_scale: self.geometry_scale,
            runs: self.runs,
        }
    }

    /// The canonical text of this profile: parsing it back yields an
    /// equal `UserProfile` (floats print in Rust's shortest-roundtrip
    /// form). This is what job records persist.
    pub fn to_text(&self) -> String {
        let mut out = format!("profile {}\n", self.id);
        out.push_str(&format!("geometry {}\n", self.geometry_scale));
        out.push_str(&format!("channel {}\n", self.channel_offset_db));
        out.push_str(&format!(
            "traffic {} {}\n",
            self.packets_per_second, self.packet_len_bytes
        ));
        out.push_str(&format!("pdrmin {}\n", self.pdr_min));
        out.push_str(&format!("engine {}\n", self.engine));
        if let Some(gamma) = self.engine.gamma() {
            out.push_str(&format!("gamma {gamma}\n"));
        }
        out.push_str(&format!("tsim {}\n", self.t_sim_secs));
        out.push_str(&format!("runs {}\n", self.runs));
        out.push_str(&format!("seed {}\n", self.seed));
        if let Some(faults) = &self.faults {
            let mode = match faults.mode {
                RobustMode::Nominal => "nominal".to_string(),
                RobustMode::WorstCase => "worst".to_string(),
                RobustMode::Quantile(q) => format!("q{}", q * 100.0),
            };
            out.push_str(&format!("faults {} {}\n", faults.path, mode));
        }
        out
    }
}

/// Lints a parsed fleet (HL042 over every profile in submission order).
pub fn lint_profiles(profiles: &[UserProfile]) -> hi_lint::Report {
    let specs: Vec<hi_lint::ProfileSpec> = profiles.iter().map(UserProfile::lint_spec).collect();
    hi_lint::lint_profile(&specs)
}

/// A demo fleet: three users sharing one evaluation protocol (so the
/// fleet cache dedups their simulations) plus one user with genuinely
/// different physics. Used by docs, `hi-opt lint` and the bench.
pub const DEMO_FLEET: &str = "\
# Three office workers with identical radios and bodies: their jobs
# share every simulation through the fleet cache.
profile alice
pdrmin 0.9

profile bob
pdrmin 0.85

profile carol
pdrmin 0.9
engine exhaustive

# A taller user with a lossier environment and chattier sensors:
# different physics, so a separate evaluation stream.
profile dave
geometry 1.15
channel 2.0
traffic 25 64
pdrmin 0.9
";

/// Why a profile file failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileParseError {
    /// A malformed line, by 1-based line number.
    Line {
        /// 1-based line number in the input text.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The file contains no `profile` block at all.
    NoProfile,
}

impl fmt::Display for ProfileParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileParseError::Line { line, message } => {
                write!(f, "profile file line {line}: {message}")
            }
            ProfileParseError::NoProfile => {
                write!(f, "profile file declares no `profile` block")
            }
        }
    }
}

impl std::error::Error for ProfileParseError {}

fn field<'a>(fields: &mut SplitWhitespace<'a>, what: &str) -> Result<&'a str, String> {
    fields.next().ok_or_else(|| format!("missing {what}"))
}

fn finite_field(fields: &mut SplitWhitespace<'_>, what: &str) -> Result<f64, String> {
    let raw = field(fields, what)?;
    let value: f64 = raw
        .parse()
        .map_err(|_| format!("bad {what} `{raw}` (expected a number)"))?;
    if !value.is_finite() {
        return Err(format!("bad {what} `{raw}` (must be finite)"));
    }
    Ok(value)
}

fn no_trailing(fields: &mut SplitWhitespace<'_>) -> Result<(), String> {
    if let Some(extra) = fields.next() {
        return Err(format!("unexpected trailing field `{extra}`"));
    }
    Ok(())
}

/// Parses a profile file (one or more `profile` blocks) into the fleet
/// it describes. Total: any input yields profiles or a typed
/// [`ProfileParseError`] with a 1-based line number — never a panic.
pub fn parse_profiles(text: &str) -> Result<Vec<UserProfile>, ProfileParseError> {
    let mut profiles: Vec<UserProfile> = Vec::new();
    // `gamma` may legally precede the block's `engine` line, so Γ joins
    // the engine after the whole file is read; this records each block's
    // Γ and the line to point an error at.
    let mut gammas: Vec<Option<(usize, u32)>> = Vec::new();
    for (index, raw) in text.lines().enumerate() {
        let err = |message: String| ProfileParseError::Line {
            line: index + 1,
            message,
        };
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let keyword = fields.next().expect("non-empty line has a first field");
        if keyword == "profile" {
            // The id is the rest of the line (ids with spaces are legal;
            // an *empty* id is representable and HL042's problem).
            let id = line["profile".len()..].trim().to_string();
            profiles.push(UserProfile::named(id));
            gammas.push(None);
            continue;
        }
        let current = profiles
            .last_mut()
            .ok_or_else(|| err(format!("`{keyword}` before any `profile` line")))?;
        match keyword {
            "geometry" => {
                current.geometry_scale =
                    finite_field(&mut fields, "geometry scale").map_err(&err)?;
            }
            "channel" => {
                current.channel_offset_db =
                    finite_field(&mut fields, "channel offset (dB)").map_err(&err)?;
            }
            "traffic" => {
                current.packets_per_second =
                    finite_field(&mut fields, "traffic rate (packets/s)").map_err(&err)?;
                if let Some(raw) = fields.next() {
                    let bytes: usize = raw.parse().map_err(|_| {
                        err(format!("bad packet length `{raw}` (expected an integer)"))
                    })?;
                    if bytes == 0 {
                        return Err(err("packet length must be at least 1 byte".into()));
                    }
                    current.packet_len_bytes = bytes;
                }
            }
            "pdrmin" => {
                current.pdr_min = finite_field(&mut fields, "PDRmin").map_err(&err)?;
            }
            "engine" => {
                let raw = field(&mut fields, "engine name").map_err(&err)?;
                current.engine = Engine::parse(raw).ok_or_else(|| {
                    err(format!(
                        "unknown engine `{raw}` (expected `algorithm1`, `exhaustive`, \
                         `robust-milp` or `ilp-heuristic`)"
                    ))
                })?;
            }
            "gamma" => {
                let raw = field(&mut fields, "gamma budget").map_err(&err)?;
                let gamma: u32 = raw.parse().map_err(|_| {
                    err(format!(
                        "bad gamma budget `{raw}` (expected a non-negative integer)"
                    ))
                })?;
                *gammas.last_mut().expect("current profile exists") = Some((index + 1, gamma));
            }
            "tsim" => {
                let secs = finite_field(&mut fields, "simulated duration (s)").map_err(&err)?;
                if secs <= 0.0 {
                    return Err(err(format!(
                        "bad simulated duration `{secs}` (must be positive)"
                    )));
                }
                current.t_sim_secs = secs;
            }
            "runs" => {
                let raw = field(&mut fields, "replication count").map_err(&err)?;
                current.runs = raw.parse().map_err(|_| {
                    err(format!(
                        "bad replication count `{raw}` (expected an integer)"
                    ))
                })?;
            }
            "seed" => {
                let raw = field(&mut fields, "seed").map_err(&err)?;
                current.seed = raw
                    .parse()
                    .map_err(|_| err(format!("bad seed `{raw}` (expected an integer)")))?;
            }
            "faults" => {
                let path = field(&mut fields, "fault-suite path")
                    .map_err(&err)?
                    .to_string();
                let mode = match fields.next() {
                    None | Some("worst") => RobustMode::WorstCase,
                    Some("nominal") => RobustMode::Nominal,
                    Some(m) => {
                        // `qNN` is a percentile, matching the CLI's
                        // `--robust q25` convention.
                        let pct: f64 = m
                            .strip_prefix('q')
                            .and_then(|q| q.parse().ok())
                            .filter(|q: &f64| q.is_finite() && (0.0..=100.0).contains(q))
                            .ok_or_else(|| {
                                err(format!(
                                    "bad robust mode `{m}` (expected `worst`, `nominal` \
                                     or `qNN` with a percentile in [0, 100], e.g. q25)"
                                ))
                            })?;
                        RobustMode::Quantile(pct / 100.0)
                    }
                };
                current.faults = Some(FaultsRef { path, mode });
            }
            other => {
                return Err(err(format!("unknown keyword `{other}`")));
            }
        }
        no_trailing(&mut fields).map_err(&err)?;
    }
    if profiles.is_empty() {
        return Err(ProfileParseError::NoProfile);
    }
    for (profile, gamma) in profiles.iter_mut().zip(gammas) {
        let Some((line, gamma)) = gamma else { continue };
        profile.engine =
            profile
                .engine
                .with_gamma(gamma)
                .ok_or_else(|| ProfileParseError::Line {
                    line,
                    message: format!(
                        "`gamma` requires a robust engine (`robust-milp` or \
                     `ilp-heuristic`), but the profile uses `{}`",
                        profile.engine
                    ),
                })?;
    }
    Ok(profiles)
}

/// FNV-1a, 64-bit: tiny, dependency-free, and stable across platforms —
/// exactly what a persistent dedup key needs.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_fleet_parses_and_lints_clean() {
        let fleet = parse_profiles(DEMO_FLEET).unwrap();
        assert_eq!(fleet.len(), 4);
        assert_eq!(fleet[0].id, "alice");
        assert_eq!(fleet[1].pdr_min, 0.85);
        assert_eq!(fleet[2].engine, Engine::Exhaustive);
        assert_eq!(fleet[3].packets_per_second, 25.0);
        assert_eq!(fleet[3].packet_len_bytes, 64);
        assert!(lint_profiles(&fleet).is_clean());
    }

    #[test]
    fn canonical_text_roundtrips() {
        let fleet = parse_profiles(DEMO_FLEET).unwrap();
        for profile in &fleet {
            let reparsed = parse_profiles(&profile.to_text()).unwrap();
            assert_eq!(reparsed, vec![profile.clone()], "{}", profile.to_text());
        }
        let mut robust = UserProfile::named("eve");
        robust.faults = Some(FaultsRef {
            path: "scenarios/demo.suite".into(),
            mode: RobustMode::Quantile(0.25),
        });
        let reparsed = parse_profiles(&robust.to_text()).unwrap();
        assert_eq!(reparsed, vec![robust]);
        // A Γ-robust profile round-trips through its `gamma` line too.
        let mut gamma = UserProfile::named("frank");
        gamma.engine = Engine::RobustMilp { gamma: Some(3) };
        gamma.faults = Some(FaultsRef {
            path: "scenarios/demo.suite".into(),
            mode: RobustMode::WorstCase,
        });
        assert!(gamma.to_text().contains("gamma 3\n"), "{}", gamma.to_text());
        let reparsed = parse_profiles(&gamma.to_text()).unwrap();
        assert_eq!(reparsed, vec![gamma]);
    }

    #[test]
    fn robust_engines_parse_and_carry_gamma() {
        let fleet = parse_profiles(
            "profile a\nengine robust-milp\ngamma 2\n\
             profile b\nengine ilp-heuristic\n",
        )
        .unwrap();
        assert_eq!(fleet[0].engine, Engine::RobustMilp { gamma: Some(2) });
        assert_eq!(
            fleet[1].engine,
            Engine::IlpHeuristic { gamma: None },
            "gamma defaults to the engine's"
        );
        // ...and with no `gamma` line it persists without one.
        assert!(
            !fleet[1].to_text().contains("gamma"),
            "{}",
            fleet[1].to_text()
        );
        // The engine names are on disk (profiles, job records, checkpoint
        // headers): each parses back from its label, and a rename would
        // orphan every file that holds the old one.
        let labels: Vec<&str> = Engine::ALL.iter().map(|e| e.label()).collect();
        assert_eq!(
            labels,
            ["algorithm1", "exhaustive", "robust-milp", "ilp-heuristic"]
        );
        for engine in Engine::ALL {
            assert_eq!(Engine::parse(engine.label()), Some(engine));
            assert_eq!(engine.to_string(), engine.label());
            if let Some(robust) = engine.with_gamma(2) {
                assert_eq!(robust.label(), engine.label(), "Γ is not in the name");
                assert_eq!(robust.gamma(), Some(2));
            }
        }
    }

    #[test]
    fn gamma_without_a_robust_engine_is_rejected() {
        // ...even when `gamma` precedes the `engine` line, and the error
        // points at the `gamma` line.
        let err = parse_profiles("profile a\ngamma 2\nengine algorithm1\n").unwrap_err();
        assert_eq!(
            err,
            ProfileParseError::Line {
                line: 2,
                message: "`gamma` requires a robust engine (`robust-milp` or \
                          `ilp-heuristic`), but the profile uses `algorithm1`"
                    .into()
            }
        );
        let err = parse_profiles("profile a\nengine exhaustive\ngamma 1\n").unwrap_err();
        assert!(
            matches!(err, ProfileParseError::Line { line: 3, .. }),
            "{err}"
        );
        // The default engine is algorithm1, so a bare gamma bounces too.
        assert!(parse_profiles("profile a\ngamma 1\n").is_err());
        assert!(parse_profiles("profile a\nengine robust-milp\ngamma -1\n").is_err());
        assert!(parse_profiles("profile a\nengine robust-milp\ngamma two\n").is_err());
    }

    #[test]
    fn geometry_folds_exactly_into_pl0() {
        let unit = UserProfile::named("u");
        let mut scaled = UserProfile::named("s");
        scaled.geometry_scale = 2.0;
        scaled.channel_offset_db = 3.0;
        let base = unit.protocol().channel.path_loss;
        let got = scaled.protocol().channel.path_loss;
        assert_eq!(
            got.pl0_db,
            base.pl0_db + 10.0 * base.exponent * 2f64.log10() + 3.0
        );
        assert_eq!(got.exponent, base.exponent);
    }

    #[test]
    fn fingerprint_ignores_search_knobs_but_not_physics() {
        let base = UserProfile::named("a");
        let mut floor = UserProfile::named("b");
        floor.pdr_min = 0.5;
        floor.engine = Engine::Exhaustive;
        assert_eq!(
            base.eval_fingerprint(None),
            floor.eval_fingerprint(None),
            "id/floor/engine must not split the cache"
        );
        let mut robust = UserProfile::named("c");
        robust.engine = Engine::RobustMilp { gamma: Some(3) };
        assert_eq!(
            base.eval_fingerprint(None),
            robust.eval_fingerprint(None),
            "gamma steers the search, not the simulations"
        );
        let mut tall = base.clone();
        tall.geometry_scale = 1.2;
        assert_ne!(base.eval_fingerprint(None), tall.eval_fingerprint(None));
        let mut chatty = base.clone();
        chatty.packets_per_second = 50.0;
        assert_ne!(base.eval_fingerprint(None), chatty.eval_fingerprint(None));
        assert_ne!(
            base.eval_fingerprint(None),
            base.eval_fingerprint(Some("scenario s\n")),
            "a fault suite changes what is simulated"
        );
    }

    #[test]
    fn typed_errors_carry_one_based_lines() {
        let err = parse_profiles("profile a\ngeometry fast\n").unwrap_err();
        assert_eq!(
            err,
            ProfileParseError::Line {
                line: 2,
                message: "bad geometry scale `fast` (expected a number)".into()
            }
        );
        let err = parse_profiles("geometry 1\n").unwrap_err();
        assert!(
            matches!(err, ProfileParseError::Line { line: 1, .. }),
            "{err}"
        );
        assert_eq!(
            parse_profiles("# only comments\n"),
            Err(ProfileParseError::NoProfile)
        );
        assert_eq!(parse_profiles(""), Err(ProfileParseError::NoProfile));
    }

    #[test]
    fn trailing_fields_and_unknown_keywords_are_rejected() {
        assert!(parse_profiles("profile a\npdrmin 0.9 0.8\n").is_err());
        assert!(parse_profiles("profile a\nbandwidth 9000\n").is_err());
        assert!(parse_profiles("profile a\ntsim 0\n").is_err());
        assert!(parse_profiles("profile a\ntraffic 10 0\n").is_err());
        assert!(parse_profiles("profile a\nfaults s.suite q101\n").is_err());
        assert!(parse_profiles("profile a\nfaults s.suite sometimes\n").is_err());
        assert!(parse_profiles("profile a\ngeometry inf\n").is_err());
    }

    #[test]
    fn crlf_and_comments_are_tolerated() {
        let fleet = parse_profiles("profile a # the id\r\npdrmin 0.8\r\n").unwrap();
        assert_eq!(fleet[0].id, "a");
        assert_eq!(fleet[0].pdr_min, 0.8);
    }

    #[test]
    fn empty_id_is_representable_for_hl042() {
        let fleet = parse_profiles("profile\n").unwrap();
        assert_eq!(fleet[0].id, "");
        let report = lint_profiles(&fleet);
        assert!(report.has_rule(hi_lint::RuleId::ProfileInvalid));
    }
}
