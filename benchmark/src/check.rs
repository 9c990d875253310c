//! Correctness tallies cheap enough to stay on while timing: count and
//! XOR checksum of values sent against values received, and per-producer
//! sequence numbers strictly increasing at each consumer.

/// Producers a single consumer can tell apart.
pub const MAX_PRODUCERS: usize = 4;

/// The queues only ever see these: `(producer << 32) | seq`.
#[inline]
pub fn tag(producer: u64, seq: u64) -> u64 {
    debug_assert!((producer as usize) < MAX_PRODUCERS && seq <= u32::MAX as u64);
    (producer << 32) | seq
}

/// What one thread put in.
#[derive(Clone, Copy, Default)]
pub struct Sent {
    pub count: u64,
    pub xor: u64,
}

impl Sent {
    #[inline]
    pub fn add(&mut self, v: u64) {
        self.count += 1;
        self.xor ^= v;
    }
}

/// What one thread took out.
#[derive(Clone, Copy, Default)]
pub struct Received {
    pub count: u64,
    pub xor: u64,
    /// Values that did not advance their producer's sequence.
    pub out_of_order: u64,
    /// `seq + 1` of the last value seen per producer (0 = none yet).
    next_min: [u64; MAX_PRODUCERS],
    /// Self-test hook: silently lose the next value (see `--inject-drop`).
    drop_next: bool,
}

impl Received {
    /// A tally that loses exactly one value, to prove the check bites.
    pub fn losing_one(inject: bool) -> Received {
        Received {
            drop_next: inject,
            ..Received::default()
        }
    }

    #[inline]
    pub fn add(&mut self, v: u64) {
        if self.drop_next {
            self.drop_next = false;
            return;
        }
        self.count += 1;
        self.xor ^= v;
        let (producer, seq) = ((v >> 32) as usize % MAX_PRODUCERS, v & 0xffff_ffff);
        if seq < self.next_min[producer] {
            self.out_of_order += 1;
        }
        self.next_min[producer] = seq + 1;
    }
}

/// Number of invariant violations between everything sent and everything
/// received: lost or duplicated values (count gap, and one more for a
/// checksum mismatch the counts do not explain) plus out-of-order values.
pub fn violations(sent: &[Sent], received: &[Received]) -> u64 {
    let (sc, sx) = sent
        .iter()
        .fold((0, 0), |(c, x), s| (c + s.count, x ^ s.xor));
    let (rc, rx) = received
        .iter()
        .fold((0, 0), |(c, x), r| (c + r.count, x ^ r.xor));
    let reordered: u64 = received.iter().map(|r| r.out_of_order).sum();
    sc.abs_diff(rc) + u64::from(sc == rc && sx != rx) + reordered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(producer: u64, n: u64) -> (Sent, Vec<u64>) {
        let mut sent = Sent::default();
        let values: Vec<u64> = (0..n).map(|i| tag(producer, i)).collect();
        values.iter().for_each(|&v| sent.add(v));
        (sent, values)
    }

    #[test]
    fn clean_delivery_has_no_violations() {
        let (s0, v0) = stream(0, 100);
        let (s1, v1) = stream(1, 100);
        let mut r = Received::default();
        // Interleaved producers, each in its own order.
        for (a, b) in v0.iter().zip(&v1) {
            r.add(*a);
            r.add(*b);
        }
        assert_eq!(violations(&[s0, s1], &[r]), 0);
    }

    #[test]
    fn a_dropped_value_is_a_violation() {
        let (s, v) = stream(0, 50);
        let mut r = Received::losing_one(true);
        v.iter().for_each(|&x| r.add(x));
        assert_eq!(r.count, 49);
        assert_eq!(violations(&[s], &[r]), 1);
    }

    #[test]
    fn duplicates_swaps_and_substitutions_are_violations() {
        let (s, v) = stream(0, 10);
        let mut dup = Received::default();
        v.iter().for_each(|&x| dup.add(x));
        dup.add(v[9]);
        assert!(violations(&[s], &[dup]) >= 1);

        let mut swapped = Received::default();
        let mut w = v.clone();
        w.swap(3, 4);
        w.iter().for_each(|&x| swapped.add(x));
        assert_eq!(violations(&[s], &[swapped]), 1);

        let mut substituted = Received::default();
        let mut w = v.clone();
        w[9] = tag(0, 77);
        w.iter().for_each(|&x| substituted.add(x));
        assert_eq!(
            violations(&[s], &[substituted]),
            1,
            "same count, wrong checksum"
        );
    }
}
