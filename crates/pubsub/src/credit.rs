//! Credit-based flow control between the engine and sensor drivers.
//!
//! In `Block` overflow mode the engine never sheds: instead it *revokes
//! credit* for sensors feeding a saturated operator, and the broker carries
//! that signal back to the drivers, which pause tuple generation until the
//! credit is re-granted. A [`CreditTable`] is the broker-side ledger:
//! default-granted (sensors unknown to the table may emit freely), with only
//! the revoked set stored, so the table stays empty in the common un-loaded
//! case.

use sl_stt::SensorId;
use std::collections::BTreeSet;

/// The broker's credit ledger: which sensors may currently generate tuples.
///
/// Only revocations are stored; every sensor is granted by default.
#[derive(Debug, Default)]
pub struct CreditTable {
    revoked: BTreeSet<u64>,
}

impl CreditTable {
    /// An empty (all-granted) ledger.
    pub fn new() -> CreditTable {
        CreditTable::default()
    }

    /// True if the sensor may generate tuples right now.
    pub fn granted(&self, id: SensorId) -> bool {
        !self.revoked.contains(&id.0)
    }

    /// Set the sensor's credit; returns true if this *changed* the state
    /// (re-granting a granted sensor is a no-op).
    pub fn set(&mut self, id: SensorId, granted: bool) -> bool {
        if granted {
            self.revoked.remove(&id.0)
        } else {
            self.revoked.insert(id.0)
        }
    }

    /// Number of sensors currently throttled.
    pub fn revoked_count(&self) -> usize {
        self.revoked.len()
    }

    /// Sensors currently throttled, in id order.
    pub fn revoked(&self) -> impl Iterator<Item = SensorId> + '_ {
        self.revoked.iter().map(|id| SensorId(*id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_granted() {
        let t = CreditTable::new();
        assert!(t.granted(SensorId(7)));
        assert_eq!(t.revoked_count(), 0);
    }

    #[test]
    fn revoke_and_regrant() {
        let mut t = CreditTable::new();
        assert!(t.set(SensorId(1), false));
        assert!(!t.granted(SensorId(1)));
        assert!(t.granted(SensorId(2)));
        assert_eq!(t.revoked_count(), 1);
        assert!(t.set(SensorId(1), true));
        assert!(t.granted(SensorId(1)));
        assert_eq!(t.revoked_count(), 0);
    }

    #[test]
    fn idempotent_transitions_are_not_counted() {
        let mut t = CreditTable::new();
        assert!(!t.set(SensorId(1), true)); // already granted
        t.set(SensorId(1), false);
        assert!(!t.set(SensorId(1), false)); // already revoked
        assert_eq!(t.revoked_count(), 1);
    }

    #[test]
    fn revoked_iterates_in_id_order() {
        let mut t = CreditTable::new();
        t.set(SensorId(9), false);
        t.set(SensorId(2), false);
        t.set(SensorId(5), false);
        let ids: Vec<u64> = t.revoked().map(|s| s.0).collect();
        assert_eq!(ids, vec![2, 5, 9]);
    }
}
