//! # typedtd — typed template dependencies
//!
//! A complete, executable reproduction of Moshe Y. Vardi's *"The
//! Implication and Finite Implication Problems for Typed Template
//! Dependencies"* (PODS 1982; JCSS 28, 1984): the dependency classes, the
//! chase, every reduction in the paper, and the decidable fragments that
//! bracket its undecidability results.
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`relational`] | universes, typed/untyped values, tuples, relations, project-join `m_R`, homomorphism search |
//! | [`dependencies`] | tds, egds, fds, mvds, jds, pjds; satisfaction; shallow ↔ pjd (Lemma 6); fd/mvd oracles |
//! | [`chase`] | the restricted chase, traces, finite counterexample search, three-valued [`chase::decide`] |
//! | [`core`] | Sections 3–6: `T`, `σ₀`/`Σ₀`, `T⁻¹`, `θ_{X→A}`, the hat translation, Theorem 2 and Theorem 6 pipelines |
//! | [`semigroup`] | Theorem 1/3 substrate: equational implications, finite semigroups, the fixed set `Σ₁` |
//! | [`formal`] | checkable proofs, Theorem 7/8 formal systems, Armstrong relations |
//! | [`service`] | the concurrent implication service: cloneable `ImplicationClient` over sharded fair-dovetailing schedulers with work stealing, `JobHandle` lifecycle (poll / parked wait / cancel / retire), bounded isomorphism-keyed answer cache, `typedtd-serve` CLI |
//!
//! ## Quickstart
//!
//! ```
//! use typedtd::prelude::*;
//!
//! let u = Universe::typed(vec!["A", "B", "C"]);
//! let mut pool = ValuePool::new(u.clone());
//! let sigma = vec![Dependency::from(Fd::parse(&u, "A -> B").unwrap()),
//!                  Dependency::from(Fd::parse(&u, "B -> C").unwrap())];
//! let goal = Dependency::from(Fd::parse(&u, "A -> C").unwrap());
//! let verdict = decide_dependencies(&sigma, &goal, &u, &mut pool,
//!                                   &DecideConfig::default());
//! assert_eq!(verdict.implication, Answer::Yes);
//! assert_eq!(verdict.finite_implication, Answer::Yes);
//! ```

pub use typedtd_chase as chase;
pub use typedtd_core as core;
pub use typedtd_dependencies as dependencies;
pub use typedtd_formal as formal;
pub use typedtd_relational as relational;
pub use typedtd_semigroup as semigroup;
pub use typedtd_service as service;

pub mod undecidability;

/// The common imports for working with the library.
pub mod prelude {
    pub use typedtd_chase::{
        chase_implication, decide, decide_dependencies, saturate, Answer, CancelToken,
        ChaseConfig, ChaseOutcome, ChaseTask, DecideConfig, DecideMode, DecideTask,
        SearchConfig, SearchTask, StepStatus,
    };
    pub use typedtd_dependencies::{
        egd_from_names, td_from_names, Dependency, Egd, Fd, Mvd, Pjd, Td, TdOrEgd,
    };
    pub use typedtd_relational::{
        AttrId, AttrSet, Relation, Tuple, Typing, Universe, Valuation, Value, ValuePool,
    };
}
