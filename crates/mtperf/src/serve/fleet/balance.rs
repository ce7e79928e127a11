//! Power-of-two-choices dispatch.
//!
//! Sampling two replicas uniformly and dispatching to the less-loaded of
//! the pair gets exponentially better load spread than one random choice
//! while only ever reading two inflight counters — the classic
//! "power of two choices" result. The draw comes from the process `rng`
//! seam, so a simulated fleet replays its dispatch decisions exactly.

use mtperf_detsim::rng::SimRng;

/// Picks from `candidates` — `(replica index, inflight count)` pairs — by
/// the power-of-two-choices rule: two distinct uniform samples, the one
/// with fewer requests in flight wins (first sample on a tie). Returns
/// `None` when there are no candidates, and short-circuits a single
/// candidate without consuming randomness.
pub fn pick_two_choices(rng: &SimRng, candidates: &[(usize, usize)]) -> Option<usize> {
    match candidates.len() {
        0 => None,
        1 => Some(candidates[0].0),
        n => {
            let a = rng.gen_index(n);
            // Second sample from the remaining n-1, shifted past `a`, so
            // the pair is distinct without rejection sampling (which
            // would make the number of rng draws schedule-dependent).
            let mut b = rng.gen_index(n - 1);
            if b >= a {
                b += 1;
            }
            let (idx_a, load_a) = candidates[a];
            let (idx_b, load_b) = candidates[b];
            Some(if load_b < load_a { idx_b } else { idx_a })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton_candidate_sets() {
        let rng = SimRng::seed_from_u64(1);
        assert_eq!(pick_two_choices(&rng, &[]), None);
        assert_eq!(pick_two_choices(&rng, &[(7, 3)]), Some(7));
    }

    #[test]
    fn never_picks_the_strictly_more_loaded_of_its_pair() {
        // With two candidates the sampled pair is always {0, 1}, so the
        // less-loaded one must win every single draw.
        let rng = SimRng::seed_from_u64(2);
        for _ in 0..200 {
            assert_eq!(pick_two_choices(&rng, &[(0, 9), (1, 2)]), Some(1));
        }
    }

    #[test]
    fn spreads_load_across_equally_loaded_replicas() {
        let rng = SimRng::seed_from_u64(3);
        let candidates = [(0, 1), (1, 1), (2, 1), (3, 1)];
        let mut hits = [0u32; 4];
        for _ in 0..2000 {
            hits[pick_two_choices(&rng, &candidates).unwrap()] += 1;
        }
        for (i, h) in hits.iter().enumerate() {
            assert!(*h > 200, "replica {i} starved: {hits:?}");
        }
    }

    #[test]
    fn favors_the_idle_replica_under_skew() {
        let rng = SimRng::seed_from_u64(4);
        let candidates = [(0, 10), (1, 10), (2, 0)];
        let mut idle = 0u32;
        for _ in 0..1000 {
            if pick_two_choices(&rng, &candidates) == Some(2) {
                idle += 1;
            }
        }
        // Replica 2 is in the sampled pair with probability 2/3 and wins
        // every pair it is in.
        assert!(idle > 500, "idle replica picked only {idle}/1000 times");
    }

    #[test]
    fn same_seed_same_decisions() {
        let picks = |seed: u64| -> Vec<Option<usize>> {
            let rng = SimRng::seed_from_u64(seed);
            (0..50)
                .map(|_| pick_two_choices(&rng, &[(0, 3), (1, 1), (2, 2)]))
                .collect()
        };
        assert_eq!(picks(9), picks(9));
    }
}
