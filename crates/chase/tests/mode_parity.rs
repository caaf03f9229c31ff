//! Chase-mode parity: naive full rescans and semi-naive delta scans are
//! two schedules of the *same* chase, so on any input they must agree on
//! the outcome, the round count, the trace length, and the final instance
//! up to isomorphism.
//!
//! Randomized corpora over both a typed (disjoint per-column domains) and
//! an untyped universe, driven by a dependency-free LCG.

use std::sync::Arc;
use typedtd_chase::{chase_implication, saturate, ChaseConfig, ChaseRun, Goal};
use typedtd_dependencies::{egd_from_names, td_from_names, TdOrEgd};
use typedtd_relational::{isomorphic, AttrId, Relation, Tuple, Universe, ValuePool};

/// Deterministic 64-bit LCG (MMIX constants); high bits are the sample.
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn pick(state: &mut u64, n: usize) -> usize {
    (next(state) % n as u64) as usize
}

/// Names acting as td/egd variables. Small pool so hypothesis rows share
/// values often enough to form real join patterns.
const VARS: [&str; 4] = ["w", "x", "y", "z"];
/// Names acting as instance constants.
const CONSTS: [&str; 3] = ["c0", "c1", "c2"];

fn random_row<'a>(state: &mut u64, names: &[&'a str], width: usize) -> Vec<&'a str> {
    (0..width).map(|_| names[pick(state, names.len())]).collect()
}

fn random_sigma(state: &mut u64, u: &Arc<Universe>, pool: &mut ValuePool) -> Vec<TdOrEgd> {
    let width = u.width();
    let count = 1 + pick(state, 3);
    (0..count)
        .map(|_| {
            let hyp_rows = 1 + pick(state, 2);
            let hyp: Vec<Vec<&str>> = (0..hyp_rows)
                .map(|_| random_row(state, &VARS, width))
                .collect();
            let hyp_refs: Vec<&[&str]> = hyp.iter().map(Vec::as_slice).collect();
            if pick(state, 3) < 2 {
                // Conclusion cells may name values absent from the
                // hypothesis: those become fresh labeled nulls when the td
                // fires, which is where the divergence risk lives.
                let concl = random_row(state, &VARS, width);
                TdOrEgd::Td(td_from_names(u, pool, &hyp_refs, &concl))
            } else {
                let attrs: Vec<String> = u.attrs().map(|a| u.name(a).to_string()).collect();
                let (la, ra) = (pick(state, width), pick(state, width));
                let lv = hyp[pick(state, hyp.len())][la];
                let rv = hyp[pick(state, hyp.len())][ra];
                TdOrEgd::Egd(egd_from_names(
                    u,
                    pool,
                    &hyp_refs,
                    (attrs[la].as_str(), lv),
                    (attrs[ra].as_str(), rv),
                ))
            }
        })
        .collect()
}

fn random_instance(state: &mut u64, u: &Arc<Universe>, pool: &mut ValuePool) -> Relation {
    let mut rel = Relation::new(u.clone());
    for _ in 0..(2 + pick(state, 3)) {
        let row: Vec<_> = (0..u.width())
            .map(|i| pool.for_attr(AttrId(i as u16), CONSTS[pick(state, CONSTS.len())]))
            .collect();
        rel.insert(Tuple::new(row));
    }
    rel
}

/// The two schedules under test. Tight budgets keep divergent cases
/// cheap enough for isomorphism checks.
fn modes() -> [(&'static str, ChaseConfig); 2] {
    let base = ChaseConfig {
        max_rounds: 12,
        max_rows: 128,
        max_steps: 1_024,
        ..ChaseConfig::default()
    };
    [
        ("naive", base.clone().with_semi_naive(false)),
        ("semi", base),
    ]
}

fn assert_runs_agree(runs: &[(&str, ChaseRun)], ctx: &str) {
    let (ref_name, reference) = &runs[0];
    for (name, run) in &runs[1..] {
        assert_eq!(
            run.outcome, reference.outcome,
            "{ctx}: {name} vs {ref_name} outcome"
        );
        assert_eq!(
            run.rounds, reference.rounds,
            "{ctx}: {name} vs {ref_name} rounds"
        );
        assert_eq!(
            run.final_relation.len(),
            reference.final_relation.len(),
            "{ctx}: {name} vs {ref_name} final size"
        );
        assert_eq!(
            run.trace.len(),
            reference.trace.len(),
            "{ctx}: {name} vs {ref_name} trace length"
        );
        assert!(
            isomorphic(&run.final_relation, &reference.final_relation),
            "{ctx}: {name} vs {ref_name} final instances not isomorphic"
        );
    }
}

fn universes() -> [Arc<Universe>; 2] {
    [Universe::typed(vec!["A", "B", "C"]), Universe::untyped_abc()]
}

#[test]
fn saturation_modes_agree_on_random_corpora() {
    for (ui, u) in universes().into_iter().enumerate() {
        for case in 0..40u64 {
            let mut state =
                0xa076_1d64_78bd_642fu64 ^ ((ui as u64) << 32) ^ case.wrapping_mul(0xe703_7ed1_a0b4_28db);
            let mut pool = ValuePool::new(u.clone());
            let sigma = random_sigma(&mut state, &u, &mut pool);
            let init = random_instance(&mut state, &u, &mut pool);
            let runs: Vec<(&str, ChaseRun)> = modes()
                .into_iter()
                .map(|(name, cfg)| {
                    let mut p = pool.clone();
                    (name, saturate(&init, &sigma, &mut p, &cfg))
                })
                .collect();
            assert_runs_agree(&runs, &format!("saturation universe {ui} case {case}"));
        }
    }
}

#[test]
fn implication_modes_agree_on_random_goals() {
    for (ui, u) in universes().into_iter().enumerate() {
        for case in 0..40u64 {
            let mut state =
                0x2b2e_4b58_9f6a_31c7u64 ^ ((ui as u64) << 32) ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut pool = ValuePool::new(u.clone());
            let sigma = random_sigma(&mut state, &u, &mut pool);
            // A random goal from the same generator: exercises both the
            // Implied and NotImplied exits of the round loop.
            let goal: Goal = random_sigma(&mut state, &u, &mut pool).swap_remove(0);
            let runs: Vec<(&str, ChaseRun)> = modes()
                .into_iter()
                .map(|(name, cfg)| {
                    let mut p = pool.clone();
                    (name, chase_implication(&sigma, &goal, &mut p, &cfg))
                })
                .collect();
            assert_runs_agree(&runs, &format!("implication universe {ui} case {case}"));
        }
    }
}
