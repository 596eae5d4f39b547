//! Shared-medium arbitration: concurrent transmissions and collisions.
//!
//! The body-area network shares a single wireless channel. A transmission
//! is *audible* at a receiver when the link budget closes at transmission
//! start (`TxdBm ≥ RxdBm + PL(i,j,t)`). Two audible transmissions that
//! overlap in time at the same receiver corrupt each other there (no
//! capture effect). A node that starts transmitting while a reception is
//! in progress loses that reception (half-duplex radio).
//!
//! Corruption is applied *eagerly* when the second transmission starts, so
//! no interval history is needed; at `end_tx` the surviving receptions are
//! handed to the protocol stack.
//!
//! Receiver sets are node bitmasks (bit `i` set ⇔ node `i`), the same
//! `u16` encoding as [`Packet::visited`], so node indices must be below
//! [`MAX_NODES`]. Placements are distinct body sites, of which there are
//! fewer than that.

use hi_des::SimTime;

use crate::packet::Packet;

/// Exclusive upper bound on node indices the medium can track.
pub const MAX_NODES: usize = u16::BITS as usize;

/// The outcome of one reception attempt at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reception {
    /// Receiving node index.
    pub receiver: usize,
    /// Whether an overlapping transmission (or the receiver's own
    /// transmission) corrupted this reception.
    pub corrupted: bool,
}

/// The reception outcomes of one completed transmission, in ascending
/// receiver index. A plain value: iterating it allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Receptions {
    audible: u16,
    corrupted: u16,
}

impl Iterator for Receptions {
    type Item = Reception;

    fn next(&mut self) -> Option<Reception> {
        if self.audible == 0 {
            return None;
        }
        let receiver = self.audible.trailing_zeros() as usize;
        self.audible &= self.audible - 1;
        Some(Reception {
            receiver,
            corrupted: self.corrupted & (1 << receiver) != 0,
        })
    }
}

#[derive(Debug)]
struct ActiveTx {
    tx: usize,
    packet: Packet,
    start: SimTime,
    /// Receivers whose link budget closed at transmission start.
    audible: u16,
    /// The subset of `audible` whose reception is already lost.
    corrupted: u16,
}

/// The shared channel's bookkeeping of in-flight transmissions.
#[derive(Debug, Default)]
pub struct Medium {
    active: Vec<ActiveTx>,
    collisions: u64,
}

/// The bitmask bit of node `node`.
///
/// # Panics
///
/// Panics if `node` is not below [`MAX_NODES`].
fn bit(node: usize) -> u16 {
    assert!(
        node < MAX_NODES,
        "node index {node} exceeds the medium's {MAX_NODES}-node limit"
    );
    1 << node
}

impl Medium {
    /// An idle medium.
    pub fn new() -> Self {
        Self::default()
    }

    /// Node indices currently transmitting, in a stable order (start
    /// order, perturbed only by completions).
    pub fn active_transmitters(&self) -> impl Iterator<Item = usize> + '_ {
        self.active.iter().map(|a| a.tx)
    }

    /// `(transmitter, start time)` of each in-flight transmission, in the
    /// order of [`active_transmitters`](Medium::active_transmitters) —
    /// persistent CSMA uses this to re-sense exactly when the channel
    /// frees.
    pub fn active_transmissions(&self) -> impl Iterator<Item = (usize, SimTime)> + '_ {
        self.active.iter().map(|a| (a.tx, a.start))
    }

    /// Number of in-flight transmissions.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Total receptions corrupted by collisions so far.
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// Registers a transmission starting now.
    ///
    /// `audible` is the bitmask of receivers whose link budget closes for
    /// this transmission (already excluding `tx` itself and nodes that are
    /// transmitting). Overlap corruption with concurrently active
    /// transmissions is applied immediately, in both directions.
    ///
    /// # Panics
    ///
    /// Panics if `tx` already has an active transmission or is not below
    /// [`MAX_NODES`].
    pub fn start_tx(&mut self, tx: usize, packet: Packet, start: SimTime, audible: u16) {
        assert!(
            self.active.iter().all(|a| a.tx != tx),
            "node {tx} started a transmission while already transmitting"
        );
        let tx_bit = bit(tx);
        debug_assert_eq!(audible & tx_bit, 0, "node {tx} cannot hear itself");
        let mut corrupted = 0u16;
        for a in &mut self.active {
            // The new transmitter abandons any reception in progress, and
            // both transmissions are lost wherever both are audible. Each
            // reception counts as one collision the first time it is lost.
            let shared = a.audible & audible;
            let lost = ((a.audible & tx_bit) | shared) & !a.corrupted;
            self.collisions += u64::from(lost.count_ones() + (shared & !corrupted).count_ones());
            a.corrupted |= lost;
            corrupted |= shared;
        }
        self.active.push(ActiveTx {
            tx,
            packet,
            start,
            audible,
            corrupted,
        });
    }

    /// Completes `tx`'s transmission, returning the packet and the final
    /// reception outcomes (corrupted and clean alike — the radio spent
    /// receive energy either way).
    ///
    /// # Panics
    ///
    /// Panics if `tx` has no active transmission.
    pub fn end_tx(&mut self, tx: usize) -> (Packet, Receptions) {
        let idx = self
            .active
            .iter()
            .position(|a| a.tx == tx)
            .unwrap_or_else(|| panic!("node {tx} has no active transmission to end"));
        let a = self.active.swap_remove(idx);
        let receptions = Receptions {
            audible: a.audible,
            corrupted: a.corrupted,
        };
        (a.packet, receptions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(origin: usize) -> Packet {
        Packet::new(origin, 0)
    }

    fn mask(nodes: &[usize]) -> u16 {
        nodes.iter().fold(0, |m, &n| m | bit(n))
    }

    fn receptions(m: &mut Medium, tx: usize) -> Vec<Reception> {
        m.end_tx(tx).1.collect()
    }

    #[test]
    fn single_tx_delivers_clean() {
        let mut m = Medium::new();
        m.start_tx(0, pkt(0), SimTime::ZERO, mask(&[1, 2]));
        let recs = receptions(&mut m, 0);
        assert_eq!(recs.len(), 2);
        assert!(recs.iter().all(|r| !r.corrupted));
        assert_eq!(m.collisions(), 0);
    }

    #[test]
    fn overlapping_txs_corrupt_shared_receivers() {
        let mut m = Medium::new();
        m.start_tx(0, pkt(0), SimTime::ZERO, mask(&[2, 3]));
        m.start_tx(1, pkt(1), SimTime::from_nanos(10), mask(&[2]));
        let r0 = receptions(&mut m, 0);
        let r1 = receptions(&mut m, 1);
        // Receiver 2 hears both -> both corrupted there; 3 hears only tx0.
        assert!(r0.iter().find(|r| r.receiver == 2).unwrap().corrupted);
        assert!(!r0.iter().find(|r| r.receiver == 3).unwrap().corrupted);
        assert!(r1.iter().find(|r| r.receiver == 2).unwrap().corrupted);
        assert_eq!(m.collisions(), 2);
    }

    #[test]
    fn disjoint_receivers_do_not_collide() {
        let mut m = Medium::new();
        m.start_tx(0, pkt(0), SimTime::ZERO, mask(&[2]));
        m.start_tx(1, pkt(1), SimTime::ZERO, mask(&[3]));
        let r0 = receptions(&mut m, 0);
        let r1 = receptions(&mut m, 1);
        assert!(!r0[0].corrupted);
        assert!(!r1[0].corrupted);
        assert_eq!(m.collisions(), 0);
    }

    #[test]
    fn transmitter_loses_reception_in_progress() {
        let mut m = Medium::new();
        m.start_tx(0, pkt(0), SimTime::ZERO, mask(&[1]));
        // Node 1 starts its own transmission mid-reception.
        m.start_tx(1, pkt(1), SimTime::from_nanos(5), mask(&[2]));
        let r0 = receptions(&mut m, 0);
        assert!(r0[0].corrupted);
        // Node 1's own transmission to 2 is unaffected.
        let r1 = receptions(&mut m, 1);
        assert!(!r1[0].corrupted);
    }

    #[test]
    fn sequential_txs_do_not_interact() {
        let mut m = Medium::new();
        m.start_tx(0, pkt(0), SimTime::ZERO, mask(&[1]));
        let r0 = receptions(&mut m, 0);
        m.start_tx(1, pkt(1), SimTime::from_nanos(100), mask(&[0]));
        let r1 = receptions(&mut m, 1);
        assert!(!r0[0].corrupted);
        assert!(!r1[0].corrupted);
    }

    #[test]
    fn active_transmitters_listed() {
        let mut m = Medium::new();
        m.start_tx(4, pkt(4), SimTime::ZERO, 0);
        m.start_tx(7, pkt(7), SimTime::ZERO, 0);
        let mut txs: Vec<_> = m.active_transmitters().collect();
        txs.sort_unstable();
        assert_eq!(txs, vec![4, 7]);
        assert_eq!(m.active_count(), 2);
    }

    #[test]
    #[should_panic(expected = "already transmitting")]
    fn double_start_panics() {
        let mut m = Medium::new();
        m.start_tx(0, pkt(0), SimTime::ZERO, 0);
        m.start_tx(0, pkt(0), SimTime::ZERO, 0);
    }

    #[test]
    #[should_panic(expected = "no active transmission")]
    fn end_without_start_panics() {
        let mut m = Medium::new();
        m.end_tx(3);
    }

    #[test]
    fn three_way_collision_counts_each_corruption_once() {
        let mut m = Medium::new();
        m.start_tx(0, pkt(0), SimTime::ZERO, mask(&[9]));
        m.start_tx(1, pkt(1), SimTime::ZERO, mask(&[9]));
        m.start_tx(2, pkt(2), SimTime::ZERO, mask(&[9]));
        // tx0/tx1 corrupt each other (2); tx2 corrupts nothing new on the
        // already-corrupted entries but its own reception is corrupted (1).
        let r2 = receptions(&mut m, 2);
        assert!(r2[0].corrupted);
        assert_eq!(m.collisions(), 3);
    }

    #[test]
    fn receptions_come_in_receiver_order() {
        let mut m = Medium::new();
        m.start_tx(3, pkt(3), SimTime::ZERO, mask(&[7, 0, 4]));
        m.start_tx(5, pkt(5), SimTime::ZERO, mask(&[4]));
        let got: Vec<_> = m.end_tx(3).1.map(|r| (r.receiver, r.corrupted)).collect();
        assert_eq!(got, vec![(0, false), (4, true), (7, false)]);
    }

    #[test]
    #[should_panic(expected = "node limit")]
    fn node_beyond_the_mask_panics() {
        Medium::new().start_tx(MAX_NODES, pkt(0), SimTime::ZERO, 0);
    }
}
