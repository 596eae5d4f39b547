//! The event-driven WBAN simulation: application, routing, MAC and radio
//! state machines over the [`hi_des`] kernel.

use std::collections::VecDeque;

use hi_channel::{BodyLocation, ChannelModel};
use hi_des::{rng, Engine, SimDuration, SimTime};

use hi_des::stats::Tally;

use crate::medium::Medium;
use crate::metrics::{network_lifetime_days, LatencyStats, SimOutcome, TrafficCounts};
use crate::packet::Packet;
use crate::params::{ConfigError, FloodMode, MacKind, NetworkConfig, Routing};
use crate::trace::TraceEvent;

/// Simulation events. The slot events (`TdmaSlot`, `AlohaSlot`,
/// `HybridSlot`) form the run's one self-re-arming slot chain and ride the
/// engine's tick lane; all others go through its heap.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Node's application layer emits its next periodic packet. `epoch`
    /// ties the event to one generation chain: a crash/recover cycle
    /// bumps the node's epoch, so a stale chain scheduled before the
    /// crash dies instead of double-scheduling alongside the restarted
    /// one.
    Generate { node: usize, epoch: u32 },
    /// CSMA: node wakes up to sense the channel and maybe transmit.
    MacAttempt { node: usize },
    /// Node's in-flight transmission completes.
    TxEnd { node: usize },
    /// CSMA: the Rx→Tx turnaround elapsed; the committed transmission
    /// starts regardless of current channel state.
    TxCommit { node: usize },
    /// TDMA: slot boundary; the owner may transmit.
    TdmaSlot { index: u64 },
    /// Slotted ALOHA: slot boundary; every backlogged node may transmit.
    AlohaSlot { index: u64 },
    /// Hybrid superframe: mini-slot boundary (scheduled or contention).
    HybridSlot { index: u64 },
    /// A scheduled node failure fires. `permanent` failures (legacy
    /// [`NodeFault`](crate::NodeFault) entries, battery depletions) can
    /// never be undone by a later `NodeUp`.
    NodeDown { node: usize, permanent: bool },
    /// A crash/recover window closes: the node reboots with an empty
    /// queue and a restarted application chain.
    NodeUp { node: usize },
}

/// A set of one origin's sequence numbers, as a dense bitset.
///
/// Sequence numbers are dense per origin (each origin counts up from zero
/// and never reuses one), so a bitset indexed by `seq` is exact and never
/// larger than one bit per packet the origin generated.
#[derive(Debug, Clone, Default)]
struct SeqSet {
    words: Vec<u64>,
    len: u64,
}

impl SeqSet {
    /// Adds `seq`; returns whether it was absent.
    fn insert(&mut self, seq: u32) -> bool {
        let word = seq as usize / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let bit = 1u64 << (seq % 64);
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        self.len += u64::from(fresh);
        fresh
    }

    /// Number of distinct sequence numbers inserted.
    fn len(&self) -> u64 {
        self.len
    }
}

/// Per-node protocol state.
#[derive(Debug)]
struct NodeState {
    loc: BodyLocation,
    queue: VecDeque<Packet>,
    transmitting: bool,
    /// CSMA: a `MacAttempt` is already scheduled.
    mac_pending: bool,
    /// CSMA: busy-channel backoffs taken for the head-of-queue packet.
    attempts: u32,
    next_seq: u32,
    generated: u64,
    /// `received[origin]` = set of unique sequence numbers seen.
    received: Vec<SeqSet>,
    /// `relayed[origin]` = packets this node has already relayed, for
    /// duplicate suppression.
    relayed: Vec<SeqSet>,
    tx_energy_j: f64,
    rx_energy_j: f64,
    /// Cleared by a scheduled [`NodeFault`](crate::NodeFault) or an
    /// active [`SiteOutage`](crate::SiteOutage) window.
    alive: bool,
    /// Set by a permanent failure; a `NodeUp` cannot revive the node.
    retired: bool,
    /// Generation-chain epoch; bumped on every recovery so stale
    /// `Generate` events are ignored.
    epoch: u32,
}

impl NodeState {
    fn new(loc: BodyLocation, num_nodes: usize) -> Self {
        Self {
            loc,
            queue: VecDeque::new(),
            transmitting: false,
            mac_pending: false,
            attempts: 0,
            next_seq: 0,
            generated: 0,
            received: vec![SeqSet::default(); num_nodes],
            relayed: vec![SeqSet::default(); num_nodes],
            tx_energy_j: 0.0,
            rx_energy_j: 0.0,
            alive: true,
            retired: false,
            epoch: 0,
        }
    }
}

/// A *logical* deadline trip: the simulation dispatched more DES events
/// than its budget allows.
///
/// Budgets count dispatched events — never wall clock — so whether a
/// given configuration trips is a pure function of the configuration and
/// seed, identical on every host and at every thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineExceeded {
    /// Events dispatched when the budget was found exceeded.
    pub events: u64,
    /// The configured event budget.
    pub budget: u64,
    /// Simulated time reached when the trip happened.
    pub at: SimTime,
}

impl std::fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "event budget exceeded: {} events dispatched (budget {}) at t={:.3}s",
            self.events,
            self.budget,
            self.at.as_secs_f64()
        )
    }
}

impl std::error::Error for DeadlineExceeded {}

/// One full network simulation.
///
/// Construct with [`NetworkSim::new`], drive to completion with
/// [`run`](NetworkSim::run). Most users want the crate-level convenience
/// functions ([`crate::simulate`], [`crate::simulate_averaged`]) instead.
pub struct NetworkSim<C: ChannelModel> {
    cfg: NetworkConfig,
    channel: C,
    engine: Engine<Event>,
    nodes: Vec<NodeState>,
    medium: Medium,
    rngs: Vec<rng::Rng>,
    t_sim: SimDuration,
    tpkt: SimDuration,
    transmissions: u64,
    deliveries: u64,
    buffer_drops: u64,
    mac_drops: u64,
    /// `gen_times[origin][seq]`: generation instant of each packet, for
    /// latency samples (dense because `seq` is).
    gen_times: Vec<Vec<SimTime>>,
    latency: Tally,
    /// Event trace, populated only by [`run_traced`](NetworkSim::run_traced).
    trace: Option<Vec<TraceEvent>>,
    /// Logical deadline: maximum DES events this run may dispatch.
    event_budget: Option<u64>,
    /// Slot ticks fast-forwarded as provable no-ops (counted as
    /// dispatched, never handled).
    ticks_skipped: u64,
}

impl<C: ChannelModel> std::fmt::Debug for NetworkSim<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkSim")
            .field("nodes", &self.nodes.len())
            .field("engine", &self.engine)
            .finish()
    }
}

impl<C: ChannelModel> NetworkSim<C> {
    /// Prepares a simulation of `cfg` over `channel` for `t_sim` simulated
    /// time. `seed` drives MAC backoffs and application phases (channel
    /// randomness is owned by the `channel` value itself).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is structurally
    /// invalid (see [`NetworkConfig::validate`]).
    ///
    /// # Panics
    ///
    /// Panics if `t_sim` is zero — metrics are rates over the simulated
    /// duration and would be undefined.
    pub fn new(
        cfg: NetworkConfig,
        channel: C,
        t_sim: SimDuration,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        assert!(!t_sim.is_zero(), "simulation duration must be positive");
        cfg.validate()?;
        let n = cfg.num_nodes();
        let nodes = cfg
            .placements
            .iter()
            .map(|&loc| NodeState::new(loc, n))
            .collect();
        // Stream 0 is reserved; nodes use streams 1..=n.
        let rngs = (0..n).map(|i| rng::stream(seed, 1 + i as u64)).collect();
        let tpkt = cfg.packet_duration();
        let mut engine = Engine::new();
        engine.set_horizon(SimTime::ZERO + t_sim);
        Ok(Self {
            cfg,
            channel,
            engine,
            nodes,
            medium: Medium::new(),
            rngs,
            t_sim,
            tpkt,
            transmissions: 0,
            deliveries: 0,
            buffer_drops: 0,
            mac_drops: 0,
            gen_times: vec![Vec::new(); n],
            latency: Tally::new(),
            trace: None,
            event_budget: None,
            ticks_skipped: 0,
        })
    }

    /// Runs the simulation with packet-journey tracing enabled, returning
    /// the outcome together with the ordered [`TraceEvent`] log.
    ///
    /// Tracing allocates per event; prefer [`run`](NetworkSim::run) for
    /// sweeps and use this for debugging and demonstrations.
    pub fn run_traced(mut self) -> (SimOutcome, Vec<TraceEvent>) {
        self.trace = Some(Vec::new());
        let mut trace_out = Vec::new();
        let outcome = self.run_inner(&mut trace_out);
        (outcome, trace_out)
    }

    /// Runs the simulation to the horizon and computes the outcome.
    pub fn run(self) -> SimOutcome {
        let mut ignored = Vec::new();
        self.run_inner(&mut ignored)
    }

    /// Runs the simulation under a logical deadline of `budget` dispatched
    /// DES events. Slot ticks the engine skips as provable no-ops count as
    /// dispatched, so a run trips on exactly the event, and at exactly the
    /// instant, it would trip on if every tick fired.
    ///
    /// # Errors
    ///
    /// Returns [`DeadlineExceeded`] if the run dispatches more than
    /// `budget` events before reaching the horizon; the partial outcome is
    /// discarded (a truncated run would bias every rate metric).
    pub fn run_budgeted(mut self, budget: u64) -> Result<SimOutcome, DeadlineExceeded> {
        self.event_budget = Some(budget);
        let mut ignored = Vec::new();
        self.run_checked(&mut ignored)
    }

    fn run_inner(self, trace_out: &mut Vec<TraceEvent>) -> SimOutcome {
        debug_assert!(self.event_budget.is_none());
        self.run_checked(trace_out)
            .expect("unbudgeted runs cannot trip a deadline")
    }

    fn run_checked(
        mut self,
        trace_out: &mut Vec<TraceEvent>,
    ) -> Result<SimOutcome, DeadlineExceeded> {
        // Application phases: uniform random offset within one period so
        // nodes do not generate in lock-step.
        for i in 0..self.nodes.len() {
            let phase =
                SimDuration::from_secs(self.rngs[i].gen_f64() * self.node_period(i).as_secs_f64());
            self.engine
                .schedule_at(SimTime::ZERO + phase, Event::Generate { node: i, epoch: 0 });
        }
        let first_slot = match self.cfg.mac {
            MacKind::Tdma(_) => Some(Event::TdmaSlot { index: 0 }),
            MacKind::SlottedAloha(_) => Some(Event::AlohaSlot { index: 0 }),
            MacKind::Hybrid(_) => Some(Event::HybridSlot { index: 0 }),
            MacKind::Csma(_) => None,
        };
        if let Some(slot) = first_slot {
            self.engine.schedule_tick_at(SimTime::ZERO, slot);
        }
        for fault in self.cfg.faults.clone() {
            self.engine.schedule_at(
                SimTime::ZERO + fault.at,
                Event::NodeDown {
                    node: fault.node,
                    permanent: true,
                },
            );
        }
        self.schedule_scenario();

        while let Some((now, event)) = self.engine.pop() {
            if let Some(budget) = self.event_budget {
                // `pop` just counted this event as dispatched.
                let events = self.engine.delivered();
                if events > budget {
                    self.emit_event_counters();
                    return Err(DeadlineExceeded {
                        events,
                        budget,
                        at: now,
                    });
                }
            }
            match event {
                Event::Generate { node, epoch } => self.on_generate(now, node, epoch),
                Event::MacAttempt { node } => self.on_mac_attempt(now, node),
                Event::TxCommit { node } => self.on_tx_commit(now, node),
                Event::TxEnd { node } => self.on_tx_end(now, node),
                Event::TdmaSlot { index } => self.on_tdma_slot(now, index),
                Event::AlohaSlot { index } => self.on_aloha_slot(now, index),
                Event::HybridSlot { index } => self.on_hybrid_slot(now, index),
                Event::NodeDown { node, permanent } => self.on_node_down(now, node, permanent),
                Event::NodeUp { node } => self.on_node_up(now, node),
            }
        }
        if let Some(tr) = self.trace.take() {
            *trace_out = tr;
        }
        self.emit_event_counters();
        Ok(self.finish())
    }

    /// Reports the dispatched events (skipped ticks included) and, of
    /// those, the skipped ticks.
    fn emit_event_counters(&self) {
        use hi_trace::wellknown as wk;
        hi_trace::counter(wk::DES_EVENTS_DISPATCHED, self.engine.delivered());
        hi_trace::counter(wk::DES_TICKS_SKIPPED, self.ticks_skipped);
    }

    #[inline]
    fn record(&mut self, event: TraceEvent) {
        if let Some(tr) = &mut self.trace {
            tr.push(event);
        }
    }

    // --- fault injection -----------------------------------------------------

    /// Schedules the scripted fault scenario. Entries reference body
    /// *sites*; a site not occupied by this configuration is a no-op, so
    /// one scenario value applies uniformly across every design point.
    fn schedule_scenario(&mut self) {
        let scenario = self.cfg.scenario.clone();
        let node_at = |site: usize| self.nodes.iter().position(|n| n.loc.index() == site);
        for outage in &scenario.outages {
            let Some(node) = node_at(outage.site) else {
                continue;
            };
            if outage.window.is_inverted() {
                continue; // lint flags these; the sim treats them as inert
            }
            self.engine.schedule_at(
                outage.window.from,
                Event::NodeDown {
                    node,
                    permanent: false,
                },
            );
            if !outage.window.is_open_ended() {
                self.engine
                    .schedule_at(outage.window.until, Event::NodeUp { node });
            }
        }
        for depletion in &scenario.depletions {
            let Some(node) = node_at(depletion.site) else {
                continue;
            };
            self.engine.schedule_at(
                SimTime::ZERO + depletion.at,
                Event::NodeDown {
                    node,
                    permanent: true,
                },
            );
        }
        // Blackouts and interference bursts need no events: they are
        // evaluated lazily inside `link_loss_db` at every channel query.
    }

    fn on_node_down(&mut self, now: SimTime, node: usize, permanent: bool) {
        let st = &mut self.nodes[node];
        st.retired |= permanent;
        if !st.alive {
            return;
        }
        st.alive = false;
        // A crash loses volatile state: the MAC queue empties. Any
        // transmission already on the air completes (the radio front-end
        // drains), matching the legacy `NodeFault` semantics.
        st.queue.clear();
        st.attempts = 0;
        self.record(TraceEvent::NodeFailed { t: now, node });
    }

    fn on_node_up(&mut self, now: SimTime, node: usize) {
        let st = &mut self.nodes[node];
        if st.retired || st.alive {
            // A permanently failed node never reboots; overlapping
            // outage windows can also produce an `Up` for a node that a
            // later window already revived.
            return;
        }
        st.alive = true;
        st.epoch += 1;
        let epoch = st.epoch;
        self.record(TraceEvent::NodeRecovered { t: now, node });
        // Restart the application with a fresh random phase, exactly as
        // at boot.
        let phase = SimDuration::from_secs(
            self.rngs[node].gen_f64() * self.node_period(node).as_secs_f64(),
        );
        self.engine
            .schedule_at(now + phase, Event::Generate { node, epoch });
    }

    /// Whether a frame sent from `from` now reaches `to`: the link budget
    /// against the channel model's loss plus whatever the fault scenario
    /// injects (an active link blackout, interference bursts). Takes its
    /// fields apart from `self` so callers can iterate the medium while
    /// querying the channel.
    fn link_closes(
        channel: &mut C,
        cfg: &NetworkConfig,
        from: BodyLocation,
        to: BodyLocation,
        now: SimTime,
    ) -> bool {
        let loss = channel.path_loss_db(from, to, now)
            + cfg
                .scenario
                .link_extra_loss_db(from.index(), to.index(), now);
        cfg.radio.link_closes(loss)
    }

    /// The generation period of `node` (honours per-node rate overrides).
    fn node_period(&self, node: usize) -> SimDuration {
        match &self.cfg.per_node_rates {
            Some(rates) => SimDuration::from_secs(1.0 / rates[node]),
            None => self.cfg.app.period(),
        }
    }

    // --- application layer -------------------------------------------------

    fn on_generate(&mut self, now: SimTime, node: usize, epoch: u32) {
        if !self.nodes[node].alive || epoch != self.nodes[node].epoch {
            // Dead nodes stop generating; a stale epoch is a chain the
            // node's last crash already severed.
            return;
        }
        let seq = self.nodes[node].next_seq;
        self.nodes[node].next_seq += 1;
        self.nodes[node].generated += 1;
        let pkt = Packet::new(node, seq);
        debug_assert_eq!(self.gen_times[node].len(), seq as usize, "seq is dense");
        self.gen_times[node].push(now);
        self.record(TraceEvent::Generated { t: now, node, seq });
        self.enqueue(now, node, pkt);
        let period = self.node_period(node);
        // Horizon cuts generation off automatically.
        self.engine
            .schedule_at(now + period, Event::Generate { node, epoch });
    }

    // --- MAC layer ----------------------------------------------------------

    fn enqueue(&mut self, now: SimTime, node: usize, pkt: Packet) {
        if self.nodes[node].queue.len() >= self.cfg.mac_buffer {
            self.buffer_drops += 1;
            self.record(TraceEvent::BufferDrop { t: now, node });
            return;
        }
        self.nodes[node].queue.push_back(pkt);
        self.mac_kick(now, node);
    }

    /// CSMA: ensure a sensing attempt is scheduled when there is traffic.
    fn mac_kick(&mut self, _now: SimTime, node: usize) {
        let MacKind::Csma(csma) = self.cfg.mac else {
            return; // TDMA/ALOHA transmissions are driven by slot events
        };
        let st = &mut self.nodes[node];
        if st.transmitting || st.mac_pending || st.queue.is_empty() {
            return;
        }
        st.mac_pending = true;
        let delay =
            SimDuration::from_secs(self.rngs[node].gen_f64() * csma.initial_backoff.as_secs_f64());
        self.engine.schedule_in(delay, Event::MacAttempt { node });
    }

    fn on_mac_attempt(&mut self, now: SimTime, node: usize) {
        let MacKind::Csma(csma) = self.cfg.mac else {
            unreachable!("MacAttempt event under TDMA");
        };
        self.nodes[node].mac_pending = false;
        if !self.nodes[node].alive
            || self.nodes[node].transmitting
            || self.nodes[node].queue.is_empty()
        {
            return;
        }
        let busy = self.channel_busy_at(now, node);
        match csma.access_mode {
            crate::params::CsmaAccessMode::NonPersistent => {
                if busy {
                    self.nodes[node].attempts += 1;
                    if self.nodes[node].attempts >= csma.max_attempts {
                        // Non-persistent CSMA gives up: drop the head packet.
                        self.nodes[node].queue.pop_front();
                        self.nodes[node].attempts = 0;
                        self.mac_drops += 1;
                        self.record(TraceEvent::MacDrop { t: now, node });
                        self.mac_kick(now, node);
                    } else {
                        self.nodes[node].mac_pending = true;
                        let delay = SimDuration::from_secs(
                            self.rngs[node].gen_f64() * csma.backoff.as_secs_f64(),
                        );
                        self.engine.schedule_in(delay, Event::MacAttempt { node });
                    }
                    return;
                }
            }
            crate::params::CsmaAccessMode::PPersistent { p, sense_period } => {
                // Persistent access never abandons the packet: it waits
                // for the channel to free (transmissions always end, so
                // this cannot livelock) and re-senses at that instant —
                // which is exactly why 1-persistent CSMA collides when
                // several nodes wait out the same transmission. On an
                // idle sense it defers one period with probability 1 - p.
                if busy {
                    // Re-attempt when the last audible transmission ends.
                    let busy_until = self.audible_busy_until(now, node);
                    self.nodes[node].mac_pending = true;
                    self.engine
                        .schedule_at(busy_until.max(now), Event::MacAttempt { node });
                    return;
                }
                if self.rngs[node].gen_f64() >= p {
                    self.nodes[node].mac_pending = true;
                    self.engine
                        .schedule_in(sense_period, Event::MacAttempt { node });
                    return;
                }
            }
        }
        self.nodes[node].attempts = 0;
        // Clear channel: commit. The radio turns around from receive to
        // transmit; during this blind window other nodes still sense an
        // idle channel, which is where CSMA collisions come from.
        self.nodes[node].mac_pending = true; // suppress further attempts
        self.engine
            .schedule_in(csma.turnaround, Event::TxCommit { node });
    }

    fn on_tx_commit(&mut self, now: SimTime, node: usize) {
        self.nodes[node].mac_pending = false;
        if !self.nodes[node].alive
            || self.nodes[node].transmitting
            || self.nodes[node].queue.is_empty()
        {
            return;
        }
        self.start_transmission(now, node);
    }

    fn on_aloha_slot(&mut self, now: SimTime, index: u64) {
        let MacKind::SlottedAloha(aloha) = self.cfg.mac else {
            unreachable!("AlohaSlot event under a different MAC");
        };
        for node in 0..self.nodes.len() {
            if self.can_send(node) && self.rngs[node].gen_f64() < aloha.p {
                self.start_transmission(now, node);
            }
        }
        // Every node that can send draws from its stream in a slot, so a
        // slot is a no-op only while no node can send.
        let idle = if (0..self.nodes.len()).any(|node| self.can_send(node)) {
            0
        } else {
            u64::MAX
        };
        self.rearm_slot(aloha.slot, index, idle, |index| Event::AlohaSlot { index });
    }

    fn on_hybrid_slot(&mut self, now: SimTime, index: u64) {
        let MacKind::Hybrid(h) = self.cfg.mac else {
            unreachable!("HybridSlot event under a different MAC");
        };
        let frame_len = self.nodes.len() as u64 + u64::from(h.contention_slots);
        let within = index % frame_len;
        if within < self.nodes.len() as u64 {
            // Managed phase: the owner's guaranteed slot.
            let owner = within as usize;
            if self.can_send(owner) {
                self.start_transmission(now, owner);
            }
        } else {
            // Random access phase: only *backlogged* nodes (more than one
            // queued packet) gamble for the slot — a lone fresh packet is
            // safer waiting for its guaranteed slot than risking a
            // collision it cannot retransmit.
            for node in 0..self.nodes.len() {
                if self.can_contend(node) && self.rngs[node].gen_f64() < h.p {
                    self.start_transmission(now, node);
                }
            }
        }
        // The next slot that is not a no-op: a managed slot whose owner
        // can send, or a contention slot while any node can contend.
        let n = self.nodes.len();
        let next = (index + 1) % frame_len;
        let mut idle = u64::MAX;
        if h.contention_slots > 0 && (0..n).any(|node| self.can_contend(node)) {
            idle = (n as u64).saturating_sub(next);
        }
        for node in (0..n).filter(|&node| self.can_send(node)) {
            idle = idle.min((node as u64 + frame_len - next) % frame_len);
        }
        self.rearm_slot(h.slot, index, idle, |index| Event::HybridSlot { index });
    }

    fn on_tdma_slot(&mut self, now: SimTime, index: u64) {
        let MacKind::Tdma(tdma) = self.cfg.mac else {
            unreachable!("TdmaSlot event under a different MAC");
        };
        let n = self.nodes.len();
        let owner = (index % n as u64) as usize;
        if self.can_send(owner) {
            self.start_transmission(now, owner);
        }
        // Skip to the next slot whose owner can send.
        let next = (owner + 1) % n;
        let idle = (next..n)
            .chain(0..next)
            .position(|node| self.can_send(node))
            .map_or(u64::MAX, |k| k as u64);
        self.rearm_slot(tdma.slot, index, idle, |index| Event::TdmaSlot { index });
    }

    /// Whether `node` may start a transmission in a slot it owns (or, under
    /// slotted ALOHA, in any slot).
    fn can_send(&self, node: usize) -> bool {
        let st = &self.nodes[node];
        st.alive && !st.transmitting && !st.queue.is_empty()
    }

    /// Whether `node` gambles for a hybrid contention slot: only a
    /// backlogged node (more than one queued packet) does.
    fn can_contend(&self, node: usize) -> bool {
        let st = &self.nodes[node];
        st.alive && !st.transmitting && st.queue.len() > 1
    }

    /// Re-arms the slot chain after slot `index`, first fast-forwarding
    /// over up to `idle` following slots that the caller proved are no-ops
    /// (`u64::MAX`: every slot until the next heap event). Slot verdicts
    /// read only node state that heap events change, so they hold until
    /// the heap head; the engine stops strictly before it, at the horizon
    /// and — so a budgeted run trips on the same event — at the budget.
    fn rearm_slot(&mut self, slot: SimDuration, index: u64, idle: u64, event: fn(u64) -> Event) {
        let max = match self.event_budget {
            Some(budget) => idle.min(budget.saturating_sub(self.engine.delivered())),
            None => idle,
        };
        let skipped = self.engine.skip_ticks(slot, max);
        self.ticks_skipped += skipped;
        self.engine
            .schedule_tick_in(slot * (skipped + 1), event(index + skipped + 1));
    }

    /// The end time of the last in-flight transmission audible at `node`
    /// (current time if none are audible).
    fn audible_busy_until(&mut self, now: SimTime, node: usize) -> SimTime {
        let Self {
            channel,
            cfg,
            nodes,
            medium,
            tpkt,
            ..
        } = self;
        let loc = nodes[node].loc;
        let mut until = now;
        for (tx, start) in medium.active_transmissions() {
            if Self::link_closes(channel, cfg, nodes[tx].loc, loc, now) {
                until = until.max(start + *tpkt);
            }
        }
        until
    }

    /// Carrier sense: is any in-flight transmission audible at `node`?
    /// (CCA threshold taken equal to the receiver sensitivity.)
    fn channel_busy_at(&mut self, now: SimTime, node: usize) -> bool {
        let Self {
            channel,
            cfg,
            nodes,
            medium,
            ..
        } = self;
        let loc = nodes[node].loc;
        medium
            .active_transmitters()
            .any(|tx| Self::link_closes(channel, cfg, nodes[tx].loc, loc, now))
    }

    // --- radio layer ----------------------------------------------------------

    fn start_transmission(&mut self, now: SimTime, node: usize) {
        let pkt = self.nodes[node]
            .queue
            .pop_front()
            .expect("start_transmission on empty queue");
        self.nodes[node].transmitting = true;
        self.transmissions += 1;
        // Determine audibility per receiver at transmission start.
        let tx_loc = self.nodes[node].loc;
        let mut audible = 0u16;
        for r in 0..self.nodes.len() {
            let st = &self.nodes[r];
            if r == node || st.transmitting || !st.alive {
                continue;
            }
            if Self::link_closes(&mut self.channel, &self.cfg, tx_loc, st.loc, now) {
                audible |= 1 << r;
            }
        }
        self.medium.start_tx(node, pkt, now, audible);
        self.record(TraceEvent::TxStart {
            t: now,
            node,
            origin: pkt.origin,
            seq: pkt.seq,
            relay: pkt.relay,
        });
        self.nodes[node].tx_energy_j +=
            self.tpkt.as_secs_f64() * self.cfg.radio.tx_power.consumption_mw() * 1e-3;
        self.engine.schedule_in(self.tpkt, Event::TxEnd { node });
    }

    fn on_tx_end(&mut self, now: SimTime, node: usize) {
        self.nodes[node].transmitting = false;
        let (pkt, receptions) = self.medium.end_tx(node);
        let rx_energy = self.tpkt.as_secs_f64() * self.cfg.radio.rx_consumption_mw * 1e-3;
        for rec in receptions {
            self.nodes[rec.receiver].rx_energy_j += rx_energy;
            if !rec.corrupted {
                self.deliveries += 1;
                self.record(TraceEvent::Delivered {
                    t: now,
                    rx: rec.receiver,
                    origin: pkt.origin,
                    seq: pkt.seq,
                });
                self.deliver(now, rec.receiver, pkt);
            } else {
                self.record(TraceEvent::Corrupted {
                    t: now,
                    rx: rec.receiver,
                    tx: node,
                });
            }
        }
        self.mac_kick(now, node);
    }

    // --- routing + application reception -----------------------------------

    fn deliver(&mut self, now: SimTime, node: usize, pkt: Packet) {
        // Application bookkeeping: count unique (origin, seq) arrivals.
        if pkt.origin != node {
            let origin = pkt.origin;
            let seq = pkt.seq;
            if self.nodes[node].received[origin].insert(seq) {
                // First arrival of this packet at this receiver: a latency
                // sample from generation to application delivery.
                let t0 = self.gen_times[origin][seq as usize];
                self.latency
                    .record(now.duration_since(t0).as_secs_f64() * 1e3);
            }
        }
        // Routing decision.
        match self.cfg.routing {
            Routing::Star { coordinator } => {
                if node == coordinator
                    && !pkt.relay
                    && pkt.origin != node
                    && self.nodes[node].relayed[pkt.origin].insert(pkt.seq)
                {
                    let copy = pkt.relayed_by(node);
                    self.enqueue(now, node, copy);
                }
            }
            Routing::Mesh {
                max_hops,
                flood_mode,
            } => {
                if !pkt.has_visited(node) && pkt.hops < max_hops {
                    let relay_ok = match flood_mode {
                        FloodMode::DedupPerNode => {
                            self.nodes[node].relayed[pkt.origin].insert(pkt.seq)
                        }
                        FloodMode::HistoryOnly => true,
                    };
                    if relay_ok {
                        let copy = pkt.relayed_by(node);
                        self.enqueue(now, node, copy);
                    }
                }
            }
        }
    }

    // --- metrics -------------------------------------------------------------

    fn finish(self) -> SimOutcome {
        let n = self.nodes.len();
        let secs = self.t_sim.as_secs_f64();

        // Eq. (6): PDR_k = 1/(N-1) * sum_{i != k} received_{i->k} / sent_i.
        let node_pdr: Vec<f64> = (0..n)
            .map(|k| {
                let mut sum = 0.0;
                let mut pairs = 0u32;
                for i in 0..n {
                    if i == k || self.nodes[i].generated == 0 {
                        continue;
                    }
                    sum += self.nodes[k].received[i].len() as f64 / self.nodes[i].generated as f64;
                    pairs += 1;
                }
                if pairs == 0 {
                    0.0
                } else {
                    sum / pairs as f64
                }
            })
            .collect();
        // Eq. (7): network PDR.
        let pdr = node_pdr.iter().sum::<f64>() / n as f64;

        let node_power_mw: Vec<f64> = self
            .nodes
            .iter()
            .map(|st| {
                let radio_w = (st.tx_energy_j + st.rx_energy_j) / secs;
                (self.cfg.app.baseline_power_w + radio_w) * 1e3
            })
            .collect();

        // Eq. (4): the coordinator is exempt in a star (bigger battery),
        // and nodes killed by fault injection no longer limit lifetime.
        // Harvested power offsets the drain (net-zero nodes live forever).
        let coordinator = self.cfg.coordinator();
        let considered = (0..n).filter(|&i| Some(i) != coordinator && self.nodes[i].alive);
        let harvest_mw = self.cfg.harvest_power_w * 1e3;
        let net_power_mw: Vec<f64> = node_power_mw
            .iter()
            .map(|&p| (p - harvest_mw).max(0.0))
            .collect();
        let nlt_days = network_lifetime_days(&net_power_mw, self.cfg.battery_j, considered.clone());
        let max_power_mw = considered.map(|i| node_power_mw[i]).fold(0.0f64, f64::max);

        let generated = self.nodes.iter().map(|s| s.generated).sum();
        let latency = if self.latency.count() == 0 {
            LatencyStats::default()
        } else {
            LatencyStats {
                samples: self.latency.count(),
                mean_ms: self.latency.mean(),
                std_ms: self.latency.std_dev(),
                max_ms: self.latency.max(),
            }
        };
        SimOutcome {
            pdr,
            node_pdr,
            nlt_days,
            node_power_mw,
            max_power_mw,
            latency,
            counts: TrafficCounts {
                generated,
                transmissions: self.transmissions,
                deliveries: self.deliveries,
                collisions: self.medium.collisions(),
                buffer_drops: self.buffer_drops,
                mac_drops: self.mac_drops,
            },
            sim_seconds: secs,
        }
    }
}
