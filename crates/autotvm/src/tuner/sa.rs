//! Simulated-annealing candidate proposal (used by the XGB tuner on
//! spaces too large to enumerate, mirroring AutoTVM's `sa_model_optimizer`).
//!
//! The walk is in encoded space: every point is a [`ConfigSpace::encode`]
//! row, drawn by `sample_encoded` / `neighbor_encoded`, which take exactly
//! the draws `sample` / `neighbor` take.

use configspace::ConfigSpace;
use rand::rngs::SmallRng;
use rand::Rng;

/// Run `chains` parallel annealing walks of `steps` steps maximizing
/// `score` (higher is better) over encoded rows; returns the best row of
/// every chain, best first, with neighbours of equal bit pattern merged.
pub fn anneal(
    space: &ConfigSpace,
    score: &dyn Fn(&[f64]) -> f64,
    chains: usize,
    steps: usize,
    rng: &mut SmallRng,
) -> Vec<(Vec<f64>, f64)> {
    let mut bests: Vec<(Vec<f64>, f64)> = Vec::with_capacity(chains);
    let mut cand = Vec::with_capacity(space.len());
    for _ in 0..chains {
        let mut cur = Vec::with_capacity(space.len());
        space.sample_encoded(rng, &mut cur);
        let mut cur_s = score(&cur);
        let mut best = cur.clone();
        let mut best_s = cur_s;
        for step in 0..steps {
            let temp = 1.0 - step as f64 / steps as f64; // linear cooling
            cand.clear();
            space.neighbor_encoded(&cur, rng, &mut cand);
            let cand_s = score(&cand);
            let accept = cand_s >= cur_s || {
                let delta = cur_s - cand_s;
                rng.gen::<f64>() < (-delta / temp.max(1e-9)).exp()
            };
            if accept {
                std::mem::swap(&mut cur, &mut cand);
                cur_s = cand_s;
                if cur_s > best_s {
                    best.clone_from(&cur);
                    best_s = cur_s;
                }
            }
        }
        bests.push((best, best_s));
    }
    bests.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    bests.dedup_by(|a, b| {
        a.0.iter()
            .zip(&b.0)
            .all(|(x, y)| x.to_bits() == y.to_bits())
    });
    bests
}

#[cfg(test)]
mod tests {
    use super::*;
    use configspace::{Configuration, Hyperparameter};
    use rand::SeedableRng;

    #[test]
    fn finds_high_score_region() {
        let mut cs = ConfigSpace::new();
        cs.add(Hyperparameter::ordinal_ints(
            "P0",
            &(0..64).collect::<Vec<i64>>(),
        ));
        cs.add(Hyperparameter::ordinal_ints(
            "P1",
            &(0..64).collect::<Vec<i64>>(),
        ));
        // Peak at (40, 20); the values are their own ranks.
        let score = |r: &[f64]| -((r[0] - 40.0).powi(2) + (r[1] - 20.0).powi(2));
        let mut rng = SmallRng::seed_from_u64(3);
        let out = anneal(&cs, &score, 8, 200, &mut rng);
        assert!(!out.is_empty());
        let best = &out[0];
        assert!(
            best.1 > -100.0,
            "annealing should get close to the peak, best score {}",
            best.1
        );
    }

    #[test]
    fn results_sorted_and_deduped() {
        let mut cs = ConfigSpace::new();
        cs.add(Hyperparameter::ordinal_ints("P0", &[1, 2, 3]));
        let score = |r: &[f64]| r[0];
        let mut rng = SmallRng::seed_from_u64(1);
        let out = anneal(&cs, &score, 16, 30, &mut rng);
        assert!(out.windows(2).all(|w| w[0].1 >= w[1].1));
        let keys: std::collections::HashSet<_> = out.iter().map(|(r, _)| r[0].to_bits()).collect();
        assert_eq!(keys.len(), out.len());
    }

    /// The walk as it was over configurations, scored through `encode`
    /// and deduplicated by key: same draws, so the same bests in the same
    /// order, ties included.
    #[test]
    fn walks_like_the_configuration_annealer() {
        let mut cs = ConfigSpace::new();
        for (i, n) in [6i64, 5, 8, 4].into_iter().enumerate() {
            cs.add(Hyperparameter::ordinal_ints(
                format!("P{i}"),
                &(1..=n).collect::<Vec<i64>>(),
            ));
        }
        // Plateaus, so that chains tie and only the dedupe separates them.
        let score = |r: &[f64]| -((r[0] - 3.0).abs() + (r[2] / 3.0).floor());
        for seed in 0..20 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let got = anneal(&cs, &score, 16, 30, &mut rng);

            let mut rng = SmallRng::seed_from_u64(seed);
            let by_config = |c: &Configuration| score(&cs.encode(c));
            let mut bests: Vec<(Configuration, f64)> = Vec::new();
            for _ in 0..16 {
                let mut cur = cs.sample(&mut rng);
                let mut cur_s = by_config(&cur);
                let (mut best, mut best_s) = (cur.clone(), cur_s);
                for step in 0..30 {
                    let temp = 1.0 - step as f64 / 30.0;
                    let cand = cs.neighbor(&cur, &mut rng);
                    let cand_s = by_config(&cand);
                    if cand_s >= cur_s
                        || rng.gen::<f64>() < (-(cur_s - cand_s) / temp.max(1e-9)).exp()
                    {
                        cur = cand;
                        cur_s = cand_s;
                        if cur_s > best_s {
                            best = cur.clone();
                            best_s = cur_s;
                        }
                    }
                }
                bests.push((best, best_s));
            }
            bests.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            bests.dedup_by(|a, b| a.0.key() == b.0.key());

            let want: Vec<(Vec<f64>, f64)> =
                bests.iter().map(|(c, s)| (cs.encode(c), *s)).collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }
}
