//! Branch-direction predictor.
//!
//! A tournament predictor in the Alpha 21264 style: a *bimodal* table
//! (PC-indexed 2-bit counters) captures statically biased branches, a
//! *gshare* table (PC ⊕ global-history indexed) captures short repeating
//! patterns, and a PC-indexed *chooser* learns which component to trust per
//! branch. Statically biased sites are learned quickly, patterned sites are
//! captured by history, and data-dependent random branches stay near chance
//! — the behavior the workload generator relies on to produce controllable
//! `BrMisPr` rates.

use crate::config::PredictorConfig;

/// Tournament branch predictor (bimodal + gshare + chooser).
///
/// The type keeps the historical `Gshare` name of its dominant component for
/// continuity with the configuration struct.
///
/// # Example
///
/// ```
/// use mtperf_sim::{GsharePredictor, PredictorConfig};
///
/// let mut p = GsharePredictor::new(PredictorConfig { history_bits: 10 });
/// // An always-taken branch is learned after a couple of occurrences.
/// let mispredicts = (0..100)
///     .filter(|_| p.predict_and_update(0x400_000, true))
///     .count();
/// assert!(mispredicts < 10);
/// ```
#[derive(Debug, Clone)]
pub struct GsharePredictor {
    bimodal: Vec<u8>,
    gshare: Vec<u8>,
    /// Chooser counters: >= 2 selects gshare, < 2 selects bimodal.
    chooser: Vec<u8>,
    mask: u64,
    history: u64,
}

impl GsharePredictor {
    /// Creates a predictor whose tables each hold `2^history_bits` two-bit
    /// counters, initialized to weakly-taken with a bimodal-leaning chooser.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is 0 or greater than 24.
    pub fn new(config: PredictorConfig) -> Self {
        assert!(
            (1..=24).contains(&config.history_bits),
            "history_bits must be in 1..=24"
        );
        let size = 1usize << config.history_bits;
        GsharePredictor {
            bimodal: vec![2; size],
            gshare: vec![2; size],
            chooser: vec![1; size], // weakly prefer bimodal
            mask: (size - 1) as u64,
            history: 0,
        }
    }

    fn pc_index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }

    fn gshare_index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & self.mask) as usize
    }

    /// Predicts the direction of the branch at `pc`, then updates all
    /// component tables with the actual `taken` outcome. Returns `true` if
    /// the branch was **mispredicted**.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let bi = self.pc_index(pc);
        let gi = self.gshare_index(pc);
        let bimodal_taken = self.bimodal[bi] >= 2;
        let gshare_taken = self.gshare[gi] >= 2;
        let use_gshare = self.chooser[bi] >= 2;
        let predicted = if use_gshare {
            gshare_taken
        } else {
            bimodal_taken
        };
        let mispredicted = predicted != taken;

        // Chooser trains toward whichever component was right (only when
        // they disagree).
        let bimodal_right = bimodal_taken == taken;
        let gshare_right = gshare_taken == taken;
        if bimodal_right != gshare_right {
            self.chooser[bi] = if gshare_right {
                (self.chooser[bi] + 1).min(3)
            } else {
                self.chooser[bi].saturating_sub(1)
            };
        }

        // Component counters.
        self.bimodal[bi] = bump(self.bimodal[bi], taken);
        self.gshare[gi] = bump(self.gshare[gi], taken);

        self.history = ((self.history << 1) | u64::from(taken)) & self.mask;
        mispredicted
    }
}

/// 2-bit saturating counter update.
fn bump(counter: u8, taken: bool) -> u8 {
    if taken {
        (counter + 1).min(3)
    } else {
        counter.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor() -> GsharePredictor {
        GsharePredictor::new(PredictorConfig { history_bits: 12 })
    }

    /// Share of `outcomes` at `pc` that `p` mispredicts.
    fn mispredict_ratio(
        p: &mut GsharePredictor,
        pc: u64,
        outcomes: impl IntoIterator<Item = bool>,
    ) -> f64 {
        let (mut branches, mut mispredicted) = (0u32, 0u32);
        for taken in outcomes {
            branches += 1;
            mispredicted += u32::from(p.predict_and_update(pc, taken));
        }
        f64::from(mispredicted) / f64::from(branches)
    }

    #[test]
    fn learns_always_taken() {
        let mut p = predictor();
        assert!(mispredict_ratio(&mut p, 0x1000, (0..200).map(|_| true)) < 0.05);
    }

    #[test]
    fn learns_always_not_taken() {
        let mut p = predictor();
        // Initial weakly-taken counters cost a few mispredicts, then settle.
        assert!(mispredict_ratio(&mut p, 0x2000, (0..200).map(|_| false)) < 0.1);
    }

    #[test]
    fn learns_biased_site_despite_noisy_history() {
        // Interleave a 90%-taken branch with random-direction branches at
        // other PCs: the bimodal component must still capture the bias.
        let mut p = predictor();
        let mut x: u64 = 0x243F6A8885A308D3;
        let mut target_mispredicts = 0u64;
        let rounds = 5000;
        for i in 0..rounds {
            // Noise branch with random direction.
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            p.predict_and_update(0x9000 + (x % 64) * 4, (x >> 33) & 1 == 1);
            // Target branch: taken unless i % 10 == 0.
            let taken = i % 10 != 0;
            target_mispredicts += u64::from(p.predict_and_update(0x1234, taken));
        }
        let ratio = target_mispredicts as f64 / rounds as f64;
        assert!(ratio < 0.2, "target-site mispredict ratio = {ratio}");
    }

    #[test]
    fn learns_short_repeating_pattern() {
        // Pattern T,T,N repeating is capturable with global history.
        let mut p = predictor();
        let pattern = [true, true, false];
        let r = mispredict_ratio(&mut p, 0x3000, (0..3000).map(|i| pattern[i % 3]));
        assert!(r < 0.15, "ratio = {r}");
    }

    #[test]
    fn random_branches_near_chance() {
        // A deterministic pseudo-random direction stream: no predictor can
        // do much better than chance.
        let mut p = predictor();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let directions = (0..20_000).map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) & 1 == 1
        });
        let r = mispredict_ratio(&mut p, 0x4000, directions);
        assert!(r > 0.35 && r < 0.65, "ratio = {r}");
    }

    #[test]
    #[should_panic(expected = "history_bits")]
    fn rejects_zero_history() {
        GsharePredictor::new(PredictorConfig { history_bits: 0 });
    }
}
