//! The repository-wide checksum-bits format.
//!
//! Every execution engine — the simulator's walkers and the native
//! multithreaded backend — fingerprints a run by folding the final array
//! contents through *exactly* this algorithm, and determinism oracles
//! compare the results via [`f64::to_bits`]. Keeping the fold here, in the IR crate both engines
//! already depend on, makes "same checksum bits" a statement about one
//! shared function instead of two implementations that merely look alike.

/// Streaming form of the arena fold: eight independent partial
/// accumulators filled round-robin, summed in fixed order at the end.
/// The independent accumulators break the serial FP dependence chain (the
/// host vectorizes the loop); the fold order is a pure function of the
/// pushed value sequence, so any two executions that produce the same
/// value stream — regardless of host thread count or scheduling — produce
/// the identical bit pattern.
#[derive(Clone, Copy, Debug)]
pub struct ChecksumAcc {
    acc: [f64; 8],
    lane: usize,
}

impl Default for ChecksumAcc {
    fn default() -> ChecksumAcc {
        ChecksumAcc { acc: [0.0; 8], lane: 0 }
    }
}

impl ChecksumAcc {
    pub fn new() -> ChecksumAcc {
        ChecksumAcc::default()
    }

    /// Fold one value into the next lane.
    #[inline]
    pub fn push(&mut self, v: f64) {
        self.acc[self.lane] += v;
        self.lane = (self.lane + 1) & 7;
    }

    /// Reset the lane index (each arena starts its fold at lane 0).
    #[inline]
    pub fn rewind(&mut self) {
        self.lane = 0;
    }

    /// Fixed-order sum of the eight lanes.
    pub fn finish(&self) -> f64 {
        self.acc.iter().sum()
    }
}

/// Arena checksum with eight independent partial sums folded in a fixed
/// order; every arena restarts at lane 0. This is the simulator's
/// `RunResult::checksum` and the native backend's whole-program checksum
/// — the two are comparable bit for bit.
pub fn checksum_arenas(arenas: &[Vec<f64>]) -> f64 {
    let mut acc = ChecksumAcc::new();
    for a in arenas {
        acc.rewind();
        for &v in a {
            acc.push(v);
        }
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_matches_batch() {
        let arenas = vec![
            (0..23).map(|k| k as f64 * 0.37 - 2.0).collect::<Vec<f64>>(),
            (0..9).map(|k| (k * k) as f64 * 0.01).collect::<Vec<f64>>(),
        ];
        let mut acc = ChecksumAcc::new();
        for a in &arenas {
            acc.rewind();
            for &v in a {
                acc.push(v);
            }
        }
        assert_eq!(acc.finish().to_bits(), checksum_arenas(&arenas).to_bits());
    }

    #[test]
    fn lane_assignment_matters() {
        // The fold is not a plain sum: element order within an arena is
        // part of the format (guards accidental "simplifications").
        let a = vec![vec![1.0e16, 1.0, -1.0e16, 1.0e-3, 7.0, 0.3, 0.7, 11.0, 5.0e-8]];
        let mut rev = a.clone();
        rev[0].reverse();
        assert_ne!(checksum_arenas(&a).to_bits(), checksum_arenas(&rev).to_bits());
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(checksum_arenas(&[]).to_bits(), 0.0f64.to_bits());
    }
}
