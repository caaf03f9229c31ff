//! Chase engine scaling and the variant ablation
//! (standard vs oblivious vs core), plus the
//! semi-naive vs naive saturation comparison that motivates the
//! delta-driven engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use typedtd_bench::{
    divergent_saturation_workload, mvd_chain_instance, saturation_workload, universe,
};
use typedtd_chase::{chase_implication, saturate, ChaseConfig, ChaseVariant};
use typedtd_relational::ValuePool;

fn bench_chain_length(c: &mut Criterion) {
    let mut group = c.benchmark_group("chase/mvd_chain");
    for &len in &[2usize, 3, 4, 5] {
        group.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, &len| {
            b.iter_batched(
                || {
                    let u = universe(len + 1);
                    let mut pool = ValuePool::new(u.clone());
                    let (sigma, goal) = mvd_chain_instance(&u, &mut pool, len);
                    (sigma, goal, pool)
                },
                |(sigma, goal, mut pool)| {
                    chase_implication(&sigma, &goal, &mut pool, &ChaseConfig::default())
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("chase/variant");
    let variants = [
        ("standard", ChaseVariant::Standard),
        ("core", ChaseVariant::Core),
        ("oblivious", ChaseVariant::Oblivious),
    ];
    for (name, variant) in variants {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let u = universe(4);
                    let mut pool = ValuePool::new(u.clone());
                    let (sigma, goal) = mvd_chain_instance(&u, &mut pool, 3);
                    (sigma, goal, pool)
                },
                |(sigma, goal, mut pool)| {
                    let cfg = ChaseConfig::default().with_variant(variant);
                    chase_implication(&sigma, &goal, &mut pool, &cfg)
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// Saturation (no goal, chase to fixpoint) on mvd chains over seeded random
/// initial relations — the workload where per-round full rescans hurt most.
/// `naive` disables delta-driven trigger discovery; `semi` is the default.
fn bench_seminaive_saturation(c: &mut Criterion) {
    let mut group = c.benchmark_group("chase/saturation");
    for &(width, chain, rows) in &[(5usize, 4usize, 4usize), (6, 5, 6)] {
        for (mode, semi) in [("naive", false), ("semi", true)] {
            let id = BenchmarkId::new(format!("{mode}/w{width}"), rows);
            group.bench_with_input(id, &(), |b, _| {
                b.iter_batched(
                    || saturation_workload(width, chain, rows, 1982),
                    |(init, sigma, mut pool)| {
                        saturate(
                            &init,
                            &sigma,
                            &mut pool,
                            &ChaseConfig::default().with_semi_naive(semi),
                        )
                    },
                    criterion::BatchSize::SmallInput,
                )
            });
        }
    }
    group.finish();
}

/// The headline semi-naive workload: budget-bounded saturation of a
/// divergent instance at *default* budgets. Growth is linear over ~hundreds
/// of rounds, so the naive engine's per-round full rescan is quadratic
/// while the delta-driven engine stays linear (≥5× is the acceptance bar;
/// measured ≥10× on this machine).
fn bench_divergent_saturation(c: &mut Criterion) {
    let mut group = c.benchmark_group("chase/saturation_default_budget");
    group.sample_size(5);
    for &inert in &[16usize, 32] {
        for (mode, semi) in [("naive", false), ("semi", true)] {
            let id = BenchmarkId::new(mode, inert);
            group.bench_with_input(id, &(), |b, _| {
                b.iter_batched(
                    || divergent_saturation_workload(inert, 1982),
                    |(init, sigma, mut pool)| {
                        saturate(
                            &init,
                            &sigma,
                            &mut pool,
                            &ChaseConfig::default().with_semi_naive(semi),
                        )
                    },
                    criterion::BatchSize::SmallInput,
                )
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_chain_length, bench_variants, bench_seminaive_saturation,
        bench_divergent_saturation
}
criterion_main!(benches);
