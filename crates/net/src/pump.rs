//! The operation-deadline heap of the handlers that arm deadlines on
//! their own loop thread: the replica core and the spec-store client
//! arm one deadline per operation, report the soonest live one as their
//! loop's `next_deadline`, and fire the expired ones on tick. This
//! module owns the lazy-discard and expiry logic once so it cannot
//! drift between them. (The quorum-store client's callers submit on
//! their own threads, so its loop checks per-op deadlines on a fixed
//! tick instead; see `reactor::client`.)

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// A min-heap of `(deadline, key)` pairs with lazy discarding of keys
/// whose operation already finished.
pub(crate) struct Deadlines<K: Ord + Copy> {
    heap: BinaryHeap<Reverse<(Instant, K)>>,
}

impl<K: Ord + Copy> Deadlines<K> {
    pub(crate) fn new() -> Self {
        Deadlines {
            heap: BinaryHeap::new(),
        }
    }

    /// Arms a deadline for `key`.
    pub(crate) fn arm(&mut self, at: Instant, key: K) {
        self.heap.push(Reverse((at, key)));
    }

    /// Drops every armed deadline (used when all pending ops are failed
    /// wholesale).
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
    }

    /// The soonest deadline whose key is still `alive`, discarding dead
    /// entries encountered on the way (ops that completed before their
    /// deadline fired).
    pub(crate) fn next_live(&mut self, alive: impl Fn(&K) -> bool) -> Option<Instant> {
        while let Some(Reverse((at, key))) = self.heap.peek().copied() {
            if alive(&key) {
                return Some(at);
            }
            self.heap.pop();
        }
        None
    }

    /// Pops every deadline at or before `now`, feeding each key to
    /// `expire` (dead keys included — the callback's remove handles
    /// both).
    pub(crate) fn fire_expired(&mut self, now: Instant, mut expire: impl FnMut(K)) {
        while let Some(Reverse((at, key))) = self.heap.peek().copied() {
            if at > now {
                break;
            }
            self.heap.pop();
            expire(key);
        }
    }
}
