//! Consistency-checker state (§5.3).
//!
//! When a table is split on an attribute whose functional dependency
//! the DBMS does *not* guarantee (paper Example 1: postal code →
//! city, violated by a typo), each transformed S-record carries a C/U
//! flag. The **consistency checker** certifies U-records: it writes
//! `Begin CC on v` to the log, reads every T-row contributing to `v`
//! without transaction locks, and — if they agree — writes `CC: v is
//! ok` together with the correct image. The log propagator upgrades
//! the flag only if nothing touched `v` between the two log records,
//! which it can decide exactly because it processes the log
//! sequentially.

use morph_common::{Key, Value};
use std::collections::BTreeSet;

/// Whether a split transformation may enter synchronization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Readiness {
    /// All S-records carry a C flag (or checking is disabled).
    Ready,
    /// U-flagged records remain but none is known-inconsistent; more
    /// propagation + CC rounds may certify them.
    Pending {
        /// Number of U-flagged records left.
        unknowns: usize,
    },
    /// The checker found contributing T-rows that disagree; the data
    /// must be repaired before the transformation can complete.
    Inconsistent {
        /// Split-attribute keys with contradicting contributors.
        keys: Vec<Key>,
    },
}

/// An in-flight certification: `CcBegin` has been logged, `CcOk` (if
/// the read agreed) is somewhere behind it in the log.
#[derive(Clone, Debug)]
pub struct PendingCc {
    /// Split-attribute key under certification.
    pub key: Key,
    /// Set when the propagator applies any operation affecting `key`
    /// after `CcBegin` — the certification is then void.
    pub touched: bool,
}

/// Checker bookkeeping owned by the split rule set.
#[derive(Default, Debug)]
pub struct CcState {
    /// S-keys currently flagged U.
    pub unknowns: BTreeSet<Key>,
    /// S-keys whose contributors were read and found contradictory.
    pub inconsistent: BTreeSet<Key>,
    /// Round-robin cursor over `unknowns`.
    pub cursor: Option<Key>,
    /// The single in-flight certification, if any.
    pub pending: Option<PendingCc>,
    /// Completed certification rounds (reporting).
    pub rounds: usize,
}

impl CcState {
    /// Mark a key unknown (flag transition C → U).
    pub fn mark_unknown(&mut self, key: Key) {
        self.inconsistent.remove(&key);
        self.unknowns.insert(key);
    }

    /// Mark a key consistent (flag transition U → C).
    pub fn mark_consistent(&mut self, key: &Key) {
        self.unknowns.remove(key);
        self.inconsistent.remove(key);
    }

    /// Next key to certify, round-robin so a stubborn key cannot starve
    /// the rest.
    pub fn next_candidate(&mut self) -> Option<Key> {
        if self.unknowns.is_empty() {
            return None;
        }
        let next = match &self.cursor {
            Some(cur) => self
                .unknowns
                .range((
                    std::ops::Bound::Excluded(cur.clone()),
                    std::ops::Bound::Unbounded,
                ))
                .next()
                .cloned()
                .or_else(|| self.unknowns.iter().next().cloned()),
            None => self.unknowns.iter().next().cloned(),
        };
        self.cursor = next.clone();
        next
    }

    /// Note that an applied operation touched split value `v`.
    pub fn note_touch(&mut self, v: &Value) {
        if let Some(p) = &mut self.pending {
            if p.key.values().first() == Some(v) {
                p.touched = true;
            }
        }
    }

    /// Current readiness.
    pub fn readiness(&self, checking: bool) -> Readiness {
        if !checking || self.unknowns.is_empty() {
            return Readiness::Ready;
        }
        // Known-inconsistent keys that are *still* unknown block the
        // transformation only if every unknown is known-bad (otherwise
        // further CC rounds may still make progress).
        if self.unknowns.iter().all(|k| self.inconsistent.contains(k)) {
            Readiness::Inconsistent {
                keys: self.unknowns.iter().cloned().collect(),
            }
        } else {
            Readiness::Pending {
                unknowns: self.unknowns.len(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(v: i64) -> Key {
        Key::single(v)
    }

    #[test]
    fn unknown_consistent_lifecycle() {
        let mut cc = CcState::default();
        assert_eq!(cc.readiness(true), Readiness::Ready);
        cc.mark_unknown(k(1));
        cc.mark_unknown(k(2));
        assert_eq!(cc.readiness(true), Readiness::Pending { unknowns: 2 });
        cc.mark_consistent(&k(1));
        cc.mark_consistent(&k(2));
        assert_eq!(cc.readiness(true), Readiness::Ready);
    }

    #[test]
    fn readiness_ignores_when_checking_disabled() {
        let mut cc = CcState::default();
        cc.mark_unknown(k(1));
        assert_eq!(cc.readiness(false), Readiness::Ready);
    }

    #[test]
    fn all_inconsistent_blocks() {
        let mut cc = CcState::default();
        cc.mark_unknown(k(1));
        cc.inconsistent.insert(k(1));
        assert_eq!(
            cc.readiness(true),
            Readiness::Inconsistent { keys: vec![k(1)] }
        );
        // A second, still-checkable unknown keeps it pending.
        cc.mark_unknown(k(2));
        assert_eq!(cc.readiness(true), Readiness::Pending { unknowns: 2 });
    }

    #[test]
    fn round_robin_candidates() {
        let mut cc = CcState::default();
        cc.mark_unknown(k(1));
        cc.mark_unknown(k(2));
        cc.mark_unknown(k(3));
        let a = cc.next_candidate().unwrap();
        let b = cc.next_candidate().unwrap();
        let c = cc.next_candidate().unwrap();
        let d = cc.next_candidate().unwrap();
        assert_eq!(vec![&a, &b, &c], vec![&k(1), &k(2), &k(3)]);
        assert_eq!(d, k(1), "wraps around");
        assert!(CcState::default().next_candidate().is_none());
    }

    #[test]
    fn touch_voids_matching_pending_only() {
        let mut cc = CcState {
            pending: Some(PendingCc {
                key: k(5),
                touched: false,
            }),
            ..CcState::default()
        };
        cc.note_touch(&Value::Int(4));
        assert!(!cc.pending.as_ref().unwrap().touched);
        cc.note_touch(&Value::Int(5));
        assert!(cc.pending.as_ref().unwrap().touched);
    }

    #[test]
    fn marking_unknown_clears_stale_inconsistency() {
        let mut cc = CcState::default();
        cc.mark_unknown(k(1));
        cc.inconsistent.insert(k(1));
        // New evidence arrives (e.g. the user fixed the data): treat it
        // as checkable again.
        cc.mark_unknown(k(1));
        assert_eq!(cc.readiness(true), Readiness::Pending { unknowns: 1 });
    }
}
