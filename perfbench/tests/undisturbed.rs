//! Which passes the timed metrics are taken from.

use perfbench::run::{undisturbed, MAX_STEAL_FRAC, MIN_PASSES};

#[test]
fn clean_passes_are_kept_in_order() {
    let steal = [0.0, 0.05, 0.01, 0.3, 0.0, 0.02, 0.0, 0.1];
    assert_eq!(undisturbed(&steal), vec![0, 2, 4, 5, 6]);
    // The threshold itself counts as clean.
    let steal = [MAX_STEAL_FRAC, MAX_STEAL_FRAC * 1.5, 0.0, MAX_STEAL_FRAC];
    assert_eq!(undisturbed(&steal), vec![0, 2, 3]);
}

#[test]
fn too_few_clean_passes_fall_back_to_the_least_stolen() {
    // One clean pass of twelve: the least stolen quarter (three) instead.
    let steal = [
        0.2, 0.05, 0.1, 0.3, 0.01, 0.2, 0.06, 0.1, 0.4, 0.2, 0.3, 0.08,
    ];
    assert_eq!(undisturbed(&steal), vec![1, 4, 6]);
    // Sixteen disturbed passes: a quarter is four.
    let steal: Vec<f64> = (0..16).map(|i| 0.5 - f64::from(i) * 0.01).collect();
    assert_eq!(undisturbed(&steal), vec![12, 13, 14, 15]);
}

#[test]
fn few_passes_keep_at_least_the_minimum() {
    let steal = [0.3, 0.2, 0.1];
    assert_eq!(undisturbed(&steal).len(), MIN_PASSES);
    assert_eq!(undisturbed(&[0.9]), vec![0]);
    assert!(undisturbed(&[]).is_empty());
    // A host that reports no steal at all keeps every pass.
    assert_eq!(undisturbed(&[0.0; 5]), vec![0, 1, 2, 3, 4]);
}
