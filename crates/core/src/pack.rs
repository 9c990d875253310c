//! Ring geometry and entry-word packing shared by SCQ and wCQ.
//!
//! A ring with *usable* capacity `n = 2^order` physically allocates `2n`
//! slots (the paper's finite-queue construction doubles capacity to retain
//! lock-freedom, §2). Positions are derived from monotonically increasing
//! 64-bit *tickets* taken from `Head`/`Tail`:
//!
//! ```text
//! position = ticket mod 2n        cycle = ticket div 2n
//! ```
//!
//! Each SCQ entry packs `{Cycle, IsSafe, Index}` into one 64-bit word; wCQ
//! entries additionally carry the `Enq` bit (two-step slow-path insertion):
//!
//! ```text
//! wCQ value word:  [ cycle : 64-idx_bits-2 ][ IsSafe:1 ][ Enq:1 ][ index : idx_bits ]
//! SCQ value word:  [ cycle : 64-idx_bits-1 ][ IsSafe:1 ]          [ index : idx_bits ]
//! ```
//!
//! where `idx_bits = order + 1` (indices range over `0..n` plus the reserved
//! `⊥ = 2n-2` and `⊥c = 2n-1`). `⊥c`'s low bits are all ones, so *consuming*
//! an element reduces to a single atomic `OR` of `⊥c` into the index field —
//! the trick the paper inherits from SCQ (Fig. 3 line 12).

/// Reserved index: slot is empty (`⊥` in the paper). Equals `2n - 2`.
#[inline]
pub const fn bot(ring_size: u64) -> u64 {
    ring_size - 2
}

/// Reserved index: slot was consumed (`⊥c` in the paper). Equals `2n - 1`;
/// all `idx_bits` low bits are ones so it can be installed with `fetch_or`.
#[inline]
pub const fn botc(ring_size: u64) -> u64 {
    ring_size - 1
}

/// Largest ring order: the 48-bit ticket-counter budget of the slow path
/// (see `record`).
pub const MAX_ORDER: u32 = 48;

/// Geometry of one ring: sizes, masks and the cache-remap permutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingLayout {
    /// `n = 2^order` usable entries.
    pub order: u32,
    /// Bits needed for a physical position / stored index: `order + 1`.
    pub idx_bits: u32,
    /// Physical slots: `2n`.
    pub ring_size: u64,
    /// Whether `Cache_Remap` is applied (disabled only for the ablation study).
    pub remap_enabled: bool,
    /// log2(slots sharing one cache line): 3 for 8-byte SCQ entries,
    /// 2 for 16-byte wCQ entry pairs.
    pub line_shift: u32,
}

impl RingLayout {
    /// Builds a layout for `n = 2^order` usable entries.
    ///
    /// `order` must be in `1..=`[`MAX_ORDER`].
    pub fn new(order: u32, line_shift: u32, remap_enabled: bool) -> Self {
        assert!(
            (1..=MAX_ORDER).contains(&order),
            "ring order must be in 1..={MAX_ORDER}, got {order}"
        );
        RingLayout {
            order,
            idx_bits: order + 1,
            ring_size: 1u64 << (order + 1),
            remap_enabled,
            line_shift,
        }
    }

    /// Usable capacity `n`.
    #[inline]
    pub fn n(&self) -> u64 {
        1u64 << self.order
    }

    /// The `⊥` sentinel for this ring.
    #[inline]
    pub fn bot(&self) -> u64 {
        bot(self.ring_size)
    }

    /// The `⊥c` sentinel for this ring.
    #[inline]
    pub fn botc(&self) -> u64 {
        botc(self.ring_size)
    }

    /// The threshold reset value `3n - 1` (§2: the last dequeuer can trail
    /// the last inserted entry by `2n` slots, plus `n - 1` preceding
    /// dequeuers).
    #[inline]
    pub fn threshold_reset(&self) -> i64 {
        (3 * self.n() - 1) as i64
    }

    /// Cycle number of a ticket.
    #[inline]
    pub fn cycle(&self, ticket: u64) -> u64 {
        ticket >> self.idx_bits
    }

    /// Physical slot of a ticket after the cache-remap permutation.
    ///
    /// The permutation is a bit-rotation of the `idx_bits`-wide position by
    /// `line_shift`: consecutive tickets land on consecutive *cache lines*
    /// and a line is only revisited after all `2n / 2^line_shift` lines have
    /// been used — exactly the "same cache line is not reused as long as
    /// possible" property the paper describes (§2).
    #[inline]
    pub fn slot(&self, ticket: u64) -> usize {
        let pos = ticket & (self.ring_size - 1);
        if !self.remap_enabled || self.idx_bits <= self.line_shift {
            return pos as usize;
        }
        let k = self.idx_bits;
        let c = self.line_shift;
        (((pos << c) | (pos >> (k - c))) & (self.ring_size - 1)) as usize
    }
}

/// Decoded wCQ entry value word (`entry_t` with the `Enq` bit, Fig. 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WEntry {
    /// Recycling generation of this slot.
    pub cycle: u64,
    /// `IsSafe` bit (cleared by dequeuers that skip an occupied slot).
    pub is_safe: bool,
    /// `Enq` bit: 0 while a slow-path insertion awaits finalization.
    pub enq: bool,
    /// Stored index, or `⊥`/`⊥c`.
    pub index: u64,
}

/// Packs a wCQ entry into its 64-bit word.
#[inline]
pub fn pack_w(l: &RingLayout, e: WEntry) -> u64 {
    debug_assert!(e.index < l.ring_size);
    debug_assert!(e.cycle < (1u64 << (62 - l.idx_bits)), "cycle overflow");
    (e.cycle << (l.idx_bits + 2))
        | ((e.is_safe as u64) << (l.idx_bits + 1))
        | ((e.enq as u64) << l.idx_bits)
        | e.index
}

/// Unpacks a wCQ 64-bit entry word.
#[inline]
pub fn unpack_w(l: &RingLayout, v: u64) -> WEntry {
    WEntry {
        cycle: v >> (l.idx_bits + 2),
        is_safe: (v >> (l.idx_bits + 1)) & 1 == 1,
        enq: (v >> l.idx_bits) & 1 == 1,
        index: v & (l.ring_size - 1),
    }
}

/// The `Enq` bit mask for a wCQ entry word (used by `consume`'s `fetch_or`).
#[inline]
pub fn enq_bit(l: &RingLayout) -> u64 {
    1u64 << l.idx_bits
}

/// Decoded SCQ entry word (no `Enq` bit; Fig. 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SEntry {
    /// Recycling generation of this slot.
    pub cycle: u64,
    /// `IsSafe` bit.
    pub is_safe: bool,
    /// Stored index, or `⊥`/`⊥c`.
    pub index: u64,
}

/// Packs an SCQ entry into its 64-bit word.
#[inline]
pub fn pack_s(l: &RingLayout, e: SEntry) -> u64 {
    debug_assert!(e.index < l.ring_size);
    debug_assert!(e.cycle < (1u64 << (63 - l.idx_bits)), "cycle overflow");
    (e.cycle << (l.idx_bits + 1)) | ((e.is_safe as u64) << l.idx_bits) | e.index
}

/// Unpacks an SCQ 64-bit entry word.
#[inline]
pub fn unpack_s(l: &RingLayout, v: u64) -> SEntry {
    SEntry {
        cycle: v >> (l.idx_bits + 1),
        is_safe: (v >> l.idx_bits) & 1 == 1,
        index: v & (l.ring_size - 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layouts() -> Vec<RingLayout> {
        let mut v = Vec::new();
        for order in [1u32, 2, 3, 4, 8, 12, 16, 20] {
            for line_shift in [2u32, 3] {
                for remap in [false, true] {
                    v.push(RingLayout::new(order, line_shift, remap));
                }
            }
        }
        v
    }

    #[test]
    fn geometry_basics() {
        let l = RingLayout::new(16, 2, true);
        assert_eq!(l.n(), 65536);
        assert_eq!(l.ring_size, 131072);
        assert_eq!(l.bot(), 131070);
        assert_eq!(l.botc(), 131071);
        assert_eq!(l.threshold_reset(), 3 * 65536 - 1);
        assert_eq!(l.cycle(0), 0);
        assert_eq!(l.cycle(131072), 1);
        assert_eq!(l.cycle(131072 * 5 + 7), 5);
    }

    #[test]
    fn botc_low_bits_all_ones() {
        for l in layouts() {
            assert_eq!(l.botc() & (l.ring_size - 1), l.ring_size - 1);
            assert_eq!(l.botc() | l.bot(), l.botc(), "OR(⊥c) must subsume ⊥");
        }
    }

    #[test]
    fn remap_is_a_permutation() {
        for l in layouts() {
            let mut seen = vec![false; l.ring_size as usize];
            for t in 0..l.ring_size {
                let j = l.slot(t);
                assert!(!seen[j], "slot {j} reused within one cycle ({l:?})");
                seen[j] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn remap_spreads_consecutive_tickets_across_lines() {
        let l = RingLayout::new(10, 3, true);
        let lines = (l.ring_size >> l.line_shift) as usize;
        // The first `lines` tickets must all hit distinct cache lines.
        let mut seen = std::collections::HashSet::new();
        for t in 0..lines as u64 {
            seen.insert(l.slot(t) >> l.line_shift);
        }
        assert_eq!(seen.len(), lines);
    }

    #[test]
    fn remap_disabled_is_identity() {
        let l = RingLayout::new(8, 3, false);
        for t in 0..l.ring_size * 2 {
            assert_eq!(l.slot(t), (t % l.ring_size) as usize);
        }
    }

    #[test]
    fn w_pack_roundtrip_exhaustive_small() {
        let l = RingLayout::new(3, 2, true);
        for cycle in 0..64 {
            for index in 0..l.ring_size {
                for is_safe in [false, true] {
                    for enq in [false, true] {
                        let e = WEntry {
                            cycle,
                            is_safe,
                            enq,
                            index,
                        };
                        assert_eq!(unpack_w(&l, pack_w(&l, e)), e);
                    }
                }
            }
        }
    }

    #[test]
    fn s_pack_roundtrip_exhaustive_small() {
        let l = RingLayout::new(3, 3, true);
        for cycle in 0..64 {
            for index in 0..l.ring_size {
                for is_safe in [false, true] {
                    let e = SEntry {
                        cycle,
                        is_safe,
                        index,
                    };
                    assert_eq!(unpack_s(&l, pack_s(&l, e)), e);
                }
            }
        }
    }

    #[test]
    fn consume_or_trick_preserves_cycle_and_safe() {
        let l = RingLayout::new(6, 2, true);
        let e = WEntry {
            cycle: 1234,
            is_safe: true,
            enq: false,
            index: 17,
        };
        let consumed = pack_w(&l, e) | enq_bit(&l) | l.botc();
        let d = unpack_w(&l, consumed);
        assert_eq!(d.cycle, 1234);
        assert!(d.is_safe);
        assert!(d.enq, "consume must set Enq");
        assert_eq!(d.index, l.botc());
    }

    #[test]
    #[should_panic(expected = "ring order")]
    fn order_zero_rejected() {
        let _ = RingLayout::new(0, 2, true);
    }

    #[test]
    fn cycle_monotone_in_tickets() {
        let l = RingLayout::new(4, 2, true);
        let mut prev = 0;
        for t in 0..l.ring_size * 8 {
            let c = l.cycle(t);
            assert!(c >= prev);
            prev = c;
        }
        assert_eq!(prev, 7);
    }
}
