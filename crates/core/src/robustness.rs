//! Γ-robustness specifications: per-link deviation bounds derived from a
//! fault suite, ready for the Bertsimas–Sim dualization in
//! [`MilpEncoding`](crate::MilpEncoding).
//!
//! PR 3's [`RobustEvaluator`](crate::RobustEvaluator) bolts robustness
//! onto *evaluation*: every candidate is simulated under every scenario.
//! This module is the other half of ROADMAP item 4 — robustness in the
//! *formulation*. A [`RobustnessSpec`] summarizes a
//! [`FaultSuite`](crate::FaultSuite) as one deviation bound `δ_l` (dB)
//! per body-site pair: the worst extra path loss any scenario can inject
//! on that link. The Γ-robust MILP then charges the objective for the Γ
//! worst active deviations, so its optimum is immune (in the analytic
//! model) to up to Γ links deviating at once — and simulation is only
//! needed to *verify* the final candidate, not to search.
//!
//! The derivation is deliberately coarse and deterministic:
//!
//! * a link blackout on pair `(a, b)` → the pair deviates by the full
//!   [`DEVIATION_CAP_DB`] (the real injection is [`BLACKOUT_LOSS_DB`],
//!   but any loss past the cap already kills every link budget in the
//!   paper's channel, so the cap keeps the MILP well conditioned);
//! * a site outage or battery depletion at site `s` → every pair
//!   touching `s` deviates by the cap (a dead endpoint is a dead link);
//! * an interference burst → every pair deviates by the burst's
//!   `extra_loss_db` (bursts are wideband).
//!
//! Each pair keeps the *maximum* deviation over all scenarios, capped.
//! Pairs with zero deviation are omitted: they are not protected, and
//! Γ budgets only count protected links.

use hi_channel::BodyLocation;
use hi_net::AppParams;

use crate::point::RouteChoice;
use crate::power::radio_power_mw;
use crate::robust::FaultSuite;
use hi_net::TxPower;

/// Deviation bounds saturate here: a 40 dB extra loss already exceeds
/// the whole dynamic range between the paper's Tx power levels, so
/// larger values (e.g. a blackout's `1e9` dB) add no information and
/// would wreck the MILP's conditioning.
pub const DEVIATION_CAP_DB: f64 = 40.0;

/// One protected link: a body-site pair and its worst-case extra path
/// loss (dB) across the fault suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDeviation {
    /// Lower body-site index of the (unordered) pair.
    pub site_a: usize,
    /// Higher body-site index of the pair.
    pub site_b: usize,
    /// Worst-case extra path loss on the link, dB, in
    /// `(0, DEVIATION_CAP_DB]`.
    pub delta_db: f64,
}

/// A Γ-robustness specification: protect against up to `gamma` links
/// deviating by their bounds simultaneously.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessSpec {
    /// The deviation budget Γ: how many protected links the adversary
    /// may push to their bounds at once. `0` degenerates to nominal.
    pub gamma: u32,
    /// The protected links, sorted by `(site_a, site_b)`.
    pub deviations: Vec<LinkDeviation>,
}

impl RobustnessSpec {
    /// Derives per-link deviation bounds from `suite`: a blackout or a
    /// dead endpoint puts a pair at [`DEVIATION_CAP_DB`], a burst applies
    /// its extra loss to every pair, and each pair keeps its maximum over
    /// the scenarios.
    pub fn from_suite(suite: &FaultSuite, gamma: u32) -> Self {
        let n = BodyLocation::COUNT;
        let mut delta = vec![vec![0.0f64; n]; n];
        for scenario in &suite.scenarios {
            // Bursts are wideband: the worst one hits every pair.
            let burst_db = scenario
                .bursts
                .iter()
                .map(|b| b.extra_loss_db)
                .fold(0.0f64, f64::max);
            // Dead endpoints: outages and depletions kill every link of
            // their site. (Not `touches_site`, which also counts blackout
            // endpoints — a blackout only kills its own link.)
            let dead = |s: usize| {
                scenario.outages.iter().any(|o| o.site == s)
                    || scenario.depletions.iter().any(|d| d.site == s)
            };
            for (a, row) in delta.iter_mut().enumerate() {
                for (b, slot) in row.iter_mut().enumerate().skip(a + 1) {
                    let mut d = burst_db;
                    if dead(a) || dead(b) {
                        d = DEVIATION_CAP_DB;
                    }
                    if scenario.blackouts.iter().any(|bl| {
                        (bl.site_a, bl.site_b) == (a, b) || (bl.site_a, bl.site_b) == (b, a)
                    }) {
                        d = DEVIATION_CAP_DB;
                    }
                    *slot = slot.max(d.min(DEVIATION_CAP_DB));
                }
            }
        }
        let mut deviations = Vec::new();
        for (a, row) in delta.iter().enumerate() {
            for (b, &delta_db) in row.iter().enumerate().skip(a + 1) {
                if delta_db > 0.0 {
                    deviations.push(LinkDeviation {
                        site_a: a,
                        site_b: b,
                        delta_db,
                    });
                }
            }
        }
        Self { gamma, deviations }
    }

    /// True when the spec cannot change any solution: no budget or no
    /// protected links. Degenerate specs make the robust engines
    /// delegate to plain Algorithm 1, bit for bit.
    pub fn is_degenerate(&self) -> bool {
        self.gamma == 0 || self.deviations.is_empty()
    }

    /// The deviation bound of pair `(a, b)` (order-insensitive), dB;
    /// `0` for unprotected pairs.
    pub fn delta_db(&self, a: usize, b: usize) -> f64 {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        self.deviations
            .iter()
            .find(|d| (d.site_a, d.site_b) == (lo, hi))
            .map_or(0.0, |d| d.delta_db)
    }
}

/// Converts a deviation bound (dB) into the power margin (mW) the
/// Γ-robust objective charges for it.
///
/// The analytic model (eq. 5) has no explicit path-loss term, so the
/// conversion uses the model's own dB-to-mW exchange rate: the paper's
/// Tx ladder spans 20 dB (−20 → 0 dBm) and, for the reference 4-node
/// star, costs `radio_power_mw(0 dBm) − radio_power_mw(−20 dBm)` to
/// climb — i.e. the power a node pays to buy 20 dB of link margin.
/// A link deviating by `δ` dB therefore costs `δ/20` of that climb.
/// The mapping is monotone, strictly positive for positive `δ`, and a
/// pure function of `app` — everything determinism needs.
pub fn deviation_power_mw(delta_db: f64, app: &AppParams) -> f64 {
    let climb = radio_power_mw(4, TxPower::ZeroDbm, RouteChoice::Star, app)
        - radio_power_mw(4, TxPower::Minus20Dbm, RouteChoice::Star, app);
    (delta_db.clamp(0.0, DEVIATION_CAP_DB) / 20.0) * climb
}

#[cfg(test)]
mod tests {
    use super::*;
    use hi_des::{SimDuration, SimTime, Window};
    use hi_net::{BatteryDepletion, FaultScenario, InterferenceBurst, LinkBlackout, SiteOutage};

    fn demo_like_suite() -> FaultSuite {
        let mut outage = FaultScenario::named("outage");
        outage.outages.push(SiteOutage {
            site: 5,
            window: Window::open_ended(SimTime::ZERO),
        });
        let mut blackout = FaultScenario::named("blackout");
        blackout.blackouts.push(LinkBlackout {
            site_a: 0,
            site_b: 3,
            window: Window::from_secs(1.0, 2.0),
        });
        blackout.blackouts.push(LinkBlackout {
            site_a: 4,
            site_b: 0,
            window: Window::from_secs(1.0, 2.0),
        });
        let mut burst = FaultScenario::named("burst");
        burst.bursts.push(InterferenceBurst {
            window: Window::from_secs(0.0, 5.0),
            extra_loss_db: 9.0,
        });
        FaultSuite::new(vec![outage, blackout, burst])
    }

    #[test]
    fn deviations_cover_every_pair_touched_by_the_suite() {
        let spec = RobustnessSpec::from_suite(&demo_like_suite(), 2);
        assert_eq!(spec.gamma, 2);
        // The burst touches all 45 pairs, so every pair is protected.
        assert_eq!(spec.deviations.len(), 45);
        // Outage at site 5: every pair touching 5 is capped.
        assert_eq!(spec.delta_db(5, 7), DEVIATION_CAP_DB);
        assert_eq!(spec.delta_db(0, 5), DEVIATION_CAP_DB);
        // Blackouts, order-insensitive.
        assert_eq!(spec.delta_db(0, 3), DEVIATION_CAP_DB);
        assert_eq!(spec.delta_db(4, 0), DEVIATION_CAP_DB);
        // Everything else only sees the 9 dB burst.
        assert_eq!(spec.delta_db(1, 2), 9.0);
        assert_eq!(spec.delta_db(0, 7), 9.0);
        // Pairs are canonical (a < b) and sorted.
        for w in spec.deviations.windows(2) {
            assert!(w[0].site_a < w[0].site_b);
            assert!((w[0].site_a, w[0].site_b) < (w[1].site_a, w[1].site_b));
        }
    }

    #[test]
    fn depletions_count_as_dead_endpoints() {
        let mut s = FaultScenario::named("drained");
        s.depletions.push(BatteryDepletion {
            site: 2,
            at: SimDuration::from_secs(1.0),
        });
        let spec = RobustnessSpec::from_suite(&FaultSuite::new(vec![s]), 1);
        assert_eq!(spec.deviations.len(), 9, "pairs touching site 2 only");
        assert!(spec
            .deviations
            .iter()
            .all(|d| (d.site_a == 2 || d.site_b == 2) && d.delta_db == DEVIATION_CAP_DB));
        assert_eq!(spec.delta_db(1, 3), 0.0, "untouched pair is unprotected");
    }

    #[test]
    fn empty_suite_is_degenerate() {
        let spec = RobustnessSpec::from_suite(&FaultSuite::empty(), 3);
        assert!(spec.deviations.is_empty());
        assert!(spec.is_degenerate());
        assert!(RobustnessSpec::from_suite(&demo_like_suite(), 0).is_degenerate());
        assert!(!RobustnessSpec::from_suite(&demo_like_suite(), 1).is_degenerate());
    }

    #[test]
    fn deviation_power_is_monotone_and_capped() {
        let app = AppParams::default();
        assert_eq!(deviation_power_mw(0.0, &app), 0.0);
        let p9 = deviation_power_mw(9.0, &app);
        let p20 = deviation_power_mw(20.0, &app);
        let p40 = deviation_power_mw(40.0, &app);
        assert!(p9 > 0.0 && p20 > p9 && p40 > p20);
        // 20 dB of margin costs exactly the −20 → 0 dBm ladder climb.
        let climb = radio_power_mw(4, TxPower::ZeroDbm, RouteChoice::Star, &app)
            - radio_power_mw(4, TxPower::Minus20Dbm, RouteChoice::Star, &app);
        assert!((p20 - climb).abs() < 1e-12);
        // The cap saturates the exchange rate.
        assert_eq!(
            deviation_power_mw(400.0, &app).to_bits(),
            p40.to_bits(),
            "past the cap all deviations price the same"
        );
    }
}
