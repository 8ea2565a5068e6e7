//! Named runtime invariants of the event-driven fabric model.
//!
//! Each predicate states one property the simulator maintains by
//! construction. `fabric.rs` checks them in `debug_assert!`s on the hot
//! path; the verification crate and the test suites call them directly
//! so a violation names the broken property instead of a bare boolean.

use crate::time::Cycles;

/// Event times never move backwards: the queue is a priority queue and
/// every scheduled event lies at or after the current simulation time.
#[must_use]
pub fn time_monotone(now: Cycles, event_time: Cycles) -> bool {
    event_time >= now
}

/// An arbitration grant always matches the head packet it was issued
/// for — the candidate table and the VL buffer stay in lock-step during
/// one `kick` pass.
#[must_use]
pub fn grant_matches_head(head_bytes: u32, granted_bytes: u32) -> bool {
    head_bytes == granted_bytes
}

/// Only the management lane (VL15) may be served without passing the
/// VL arbitration engine.
#[must_use]
pub fn unarbitrated_is_management(vl: u8) -> bool {
    vl == 15
}

/// A switch's routed-lane index agrees with input `q`'s lanes. For
/// every output `port` (`n = work.len()` of them), `routed[port * n +
/// q]` is exactly the set of occupied lanes of `q` whose head packet
/// routes to `port`, and bit `q` of `work[port]` is set iff that set is
/// non-empty.
#[must_use]
pub fn routed_index_matches(
    q: usize,
    occupied: u16,
    head_route: &[u8; 16],
    routed: &[u16],
    work: &[u64],
) -> bool {
    let n = work.len();
    (0..n).all(|port| {
        let lanes = (0..16)
            .filter(|&vl| occupied & (1 << vl) != 0 && head_route[vl] as usize == port)
            .fold(0u16, |m, vl| m | 1 << vl);
        routed[port * n + q] == lanes && (work[port] >> q & 1 != 0) == (lanes != 0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates_hold_on_their_domains() {
        assert!(time_monotone(5, 5));
        assert!(time_monotone(5, 9));
        assert!(!time_monotone(5, 4));
        assert!(grant_matches_head(256, 256));
        assert!(!grant_matches_head(256, 64));
        assert!(unarbitrated_is_management(15));
        assert!(!unarbitrated_is_management(0));
        // Two outputs; input 1 holds VL0 -> port 0 and VL3 -> port 1.
        let mut route = [0u8; 16];
        route[3] = 1;
        let occupied = 0b1001;
        let routed = [0, 0b0001, 0, 0b1000];
        let holds =
            |q, occupied, work: &[u64]| routed_index_matches(q, occupied, &route, &routed, work);
        assert!(holds(1, occupied, &[0b10, 0b10]));
        assert!(!holds(1, occupied, &[0b10, 0]));
        assert!(!holds(1, 0b0001, &[0b10, 0b10]));
        // Stale routes of empty lanes do not count.
        assert!(holds(0, 0, &[0b10, 0b10]));
    }
}
