//! Differential tests for the allocation-free demand path the simulator's
//! slot loop runs: `RequestProcess::tally_batched` against the
//! materialized `generate_batched`, and the cached `ξ^{L_k}` of
//! `Timeliness` against a fresh `urgency_factor(L_k)`. Both comparisons
//! are bit for bit — the simulator's outputs depend on every bit.

use proptest::prelude::*;

use mfgcp_workload::{RequestProcess, Timeliness, TimelinessConfig};

proptest! {
    /// Over random served sets, seeds and slots, the in-place tally sees
    /// the same requests as the materialized batch: equal counts, and
    /// urgency sums whose `(sum, n)` moves the running average to the
    /// same bits as observing the urgency list — from any prior state.
    #[test]
    fn tally_matches_the_generated_batch(
        weights in proptest::collection::vec(0.0_f64..10.0, 1..12),
        prob in 0.05_f64..1.0,
        served in proptest::collection::vec(0_usize..5_000, 0..160),
        (seed, slot) in (0_u64..u64::MAX, 0_u64..100_000),
        (l_max, xi, smoothing) in (0.5_f64..20.0, 0.01_f64..0.99, 0.05_f64..1.0),
        prior in proptest::collection::vec(0.0_f64..20.0, 0..4),
    ) {
        let cfg = TimelinessConfig::with_smoothing(l_max, xi, smoothing).unwrap();
        let p = RequestProcess::new(prob, weights, cfg).unwrap();
        let k = p.len();
        let batch = p.generate_batched(&served, seed, slot);
        // Stale contents from an earlier slot must be overwritten.
        let mut counts = vec![7_u32; k];
        let mut sums = vec![1.5_f64; k];
        p.tally_batched(&served, seed, slot, &mut counts, &mut sums);

        let mut listed = Timeliness::new(k, cfg);
        for c in 0..k {
            listed.observe(c, &prior);
        }
        let mut totals = listed.clone();
        for c in 0..k {
            prop_assert_eq!(counts[c] as usize, batch.counts[c], "content {}", c);
            listed.observe(c, &batch.urgencies[c]);
            totals.observe_totals(c, sums[c], counts[c] as usize);
            prop_assert_eq!(listed.get(c).to_bits(), totals.get(c).to_bits(), "content {}", c);
            prop_assert_eq!(listed.factor(c).to_bits(), totals.factor(c).to_bits());
        }
    }

    /// After any sequence of observations — list or totals form, empty
    /// ones and out-of-range urgencies included — every cached factor is
    /// exactly `urgency_factor(L_k)`, to 0 ULP.
    #[test]
    fn cached_urgency_factor_tracks_the_average(
        k in 1_usize..8,
        (l_max, xi, smoothing) in (0.5_f64..20.0, 0.01_f64..0.99, 0.05_f64..1.0),
        observations in proptest::collection::vec(
            (0_usize..8, 0_u8..2, proptest::collection::vec(-5.0_f64..30.0, 0..6)),
            0..40,
        ),
    ) {
        let cfg = TimelinessConfig::with_smoothing(l_max, xi, smoothing).unwrap();
        let mut t = Timeliness::new(k, cfg);
        let check = |t: &Timeliness| {
            (0..k).all(|c| t.factor(c).to_bits() == t.config().urgency_factor(t.get(c)).to_bits())
        };
        prop_assert!(check(&t));
        for (content, form, urgencies) in &observations {
            let c = content % k;
            if *form == 0 {
                t.observe(c, urgencies);
            } else {
                let sum: f64 = urgencies.iter().map(|&l| cfg.clamp(l)).sum();
                t.observe_totals(c, sum, urgencies.len());
            }
            prop_assert!(check(&t), "after observing content {}", c);
        }
    }
}
