//! Semigroup substrate for Theorems 1 and 3 of Vardi (PODS 1982 /
//! JCSS 1984).
//!
//! Theorem 1 (Beeri–Vardi \[7\]) supplies undecidable untyped instances by
//! reducing from equational reasoning over semigroups; Theorem 3 sharpens
//! it with the Gurevich–Lewis recursive-inseparability result for
//! cancellation semigroups. This crate provides the raw material:
//!
//! * [`term`] — groupoid terms, equations, and equational implications;
//! * [`models`] — exhaustive finite-semigroup enumeration and ei
//!   evaluation (the "fails finitely" enumerator);
//! * [`word_problem`] — breadth-first word rewriting (the "holds
//!   everywhere" enumerator for presented semigroups);
//! * [`reduction`] — the fixed dependency set `Σ₁` (functionality,
//!   totality, associativity over `U' = A'B'C'`) and the translation of an
//!   ei into a goal egd, meeting Theorem 1's side conditions exactly.

#![warn(missing_docs)]

pub mod models;
pub mod reduction;
pub mod term;
pub mod word_problem;

pub use models::{ei_holds, is_associative, refute_in_finite_semigroup, semigroups};
pub use reduction::{ei_goal, frontier_instance, semigroup_theory, FrontierInstance};
pub use term::{Ei, Equation, Term};
pub use word_problem::{ei_valid_by_rewriting, flatten, words_equal};
