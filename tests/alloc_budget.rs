//! Heap allocations per query on the service's query path, counted
//! exactly.
//!
//! `typedtd_bench::CountingAlloc`, installed as the global allocator,
//! tallies per thread every call that asks it for memory (`alloc`,
//! `alloc_zeroed` and `realloc`). Each query runs on one thread the way a
//! `typedtd-sockd` driver runs it
//! (`typedtd_bench::answer_on_this_thread`: `parse_query_line`,
//! `try_normalize`, `ImplicationClient::submit` per goal part,
//! `step_shard` to completion, answers read with `JobHandle::summary`).
//! The count covers exactly that call; the sequential `decide` each
//! answer is checked against runs outside it.
//!
//! Two seeded query sets mirror the benchmark's workloads:
//! * **cold** — typed Σ of 2–3 mvds and 0–2 fds over 6–8 attributes, each
//!   asking for a three-component jd (every query a cache miss, one fat
//!   chase each);
//! * **frontier** — untyped fds plus one unary ind over 3–5 attributes,
//!   asking for an fd or a unary ind under `dovetail:adaptive` with a fuel
//!   cap of 128.
//!
//! The budgets sit about 25% above the measured counts, so an allocation
//! that creeps back onto the per-query path fails here with a number.
//! Run it in release too (`cargo test --release --test alloc_budget`):
//! the daemon ships release code.

use typedtd_bench::{
    answer_on_this_thread, cold_shape_queries, decide_text, frontier_shape_config,
    frontier_shape_queries, thread_allocations, CountingAlloc, FRONTIER_SHAPE_CAP,
};
use typedtd_chase::Answer;
use typedtd_relational::{AttrId, Universe, ValuePool};
use typedtd_service::{ImplicationClient, ServiceConfig};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs every query on this thread through the service path, checks each
/// answer against sequential `decide`, and returns allocations per query
/// on the service path.
fn allocations_per_query(
    queries: &[(String, String)],
    cfg: ServiceConfig,
    fuel_cap: Option<u64>,
) -> f64 {
    let client = ImplicationClient::new(ServiceConfig { shards: 1, ..cfg });
    let mut counted = 0u64;
    for (uspec, text) in queries {
        let before = thread_allocations();
        let got = answer_on_this_thread(&client, uspec, text, fuel_cap);
        counted += thread_allocations() - before;
        let want = decide_text(uspec, text);
        for (g, w) in got.iter().zip(&want) {
            // A fuel cap may leave a part `Unknown`; a definite answer
            // must match.
            for (g, w) in [(g.0, w.0), (g.1, w.1)] {
                assert!(
                    g == Answer::Unknown || w == Answer::Unknown || g == w,
                    "{text}: service answered {got:?}, decide {want:?}"
                );
            }
        }
        if fuel_cap.is_none() {
            assert_eq!(got, want, "{text}: uncapped answers must match decide");
        }
    }
    counted as f64 / queries.len() as f64
}

#[test]
fn cold_queries_stay_within_their_allocation_budget() {
    let queries = cold_shape_queries(48, 0x636f_6c64);
    let per_query = allocations_per_query(&queries, ServiceConfig::default(), None);
    eprintln!("cold: {per_query:.1} allocations per query");
    assert!(
        per_query <= COLD_BUDGET,
        "cold queries make {per_query:.1} allocations each, budget {COLD_BUDGET}"
    );
}

#[test]
fn frontier_queries_stay_within_their_allocation_budget() {
    let queries = frontier_shape_queries(96, 0x6672_6f6e);
    let cfg = frontier_shape_config();
    let per_query = allocations_per_query(&queries, cfg, Some(FRONTIER_SHAPE_CAP));
    eprintln!("frontier: {per_query:.1} allocations per query");
    assert!(
        per_query <= FRONTIER_BUDGET,
        "frontier queries make {per_query:.1} allocations each, budget {FRONTIER_BUDGET}"
    );
}

#[test]
fn reinterning_a_name_allocates_nothing() {
    let typed = Universe::typed(vec!["A", "B"]);
    let untyped = Universe::untyped(vec!["A", "B"]);
    let (mut tp, mut up) = (ValuePool::new(typed), ValuePool::new(untyped));
    let (a1, b1, x) = (tp.typed(AttrId(0), "a1"), tp.typed(AttrId(1), "a1"), up.untyped("x"));
    let before = thread_allocations();
    for _ in 0..100 {
        assert_eq!(tp.typed(AttrId(0), "a1"), a1);
        assert_eq!(tp.for_attr(AttrId(1), "a1"), b1);
        assert_eq!(up.untyped("x"), x);
    }
    let made = thread_allocations() - before;
    assert_eq!(made, 0, "re-interning existing names made {made} allocations");
}

/// About 25% above the 286 allocations per query a release build makes.
const COLD_BUDGET: f64 = 360.0;
/// About 25% above the 387 allocations per query a release build makes.
const FRONTIER_BUDGET: f64 = 485.0;
