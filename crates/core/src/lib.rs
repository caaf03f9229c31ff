//! The reductions of Vardi, *"The Implication and Finite Implication
//! Problems for Typed Template Dependencies"* (PODS 1982 / JCSS 28, 1984).
//!
//! This crate is the paper's primary contribution, executable:
//!
//! * [`typing`] — Section 3: the translation `T` from untyped tuples and
//!   relations over `U' = A'B'C'` to typed ones over `U = ABCDEF`
//!   (`T(w)`, `N(a)`, `s`; Example 1; the Lemma 1 fds);
//! * [`translate`] — Section 4: `T` on dependencies (`T(θ) = (T(w), T(I))`,
//!   Example 2; `T((a=b, I)) = (a¹=b¹, T(I))`), with Lemma 2 checkers;
//! * [`sigma0`](mod@sigma0) — the auxiliary td `σ₀` and set `Σ₀`, with
//!   Lemma 4;
//! * [`t_inverse`](mod@t_inverse) — Lemma 3: reconstructing an untyped
//!   counterexample from a typed one;
//! * [`egd_elim`] — Lemmas 5 and 9: `θ_{X→A}` (Example 4) and the
//!   generalized `θ_ε`, eliminating equality generation;
//! * [`shallow`] — Section 6: the hat translation `θ̂` over
//!   `Û = {Aᵢ}` (Example 3), the duplication `Î` (Lemma 8), the block
//!   fds/mvds, and the Lemma 10 exhibit;
//! * [`pipeline`] — Theorem 6: the complete td → shallow-td/pjd reduction.
//!
//! Because the end problems are undecidable, "executable" means: every
//! translation is computed exactly as printed, and every lemma's
//! *equivalence of satisfaction* is checked on concrete finite relations
//! (decidable) and on decidable implication fragments via the chase.

#![warn(missing_docs)]

pub mod egd_elim;
pub mod pipeline;
pub mod shallow;
pub mod sigma0;
pub mod t_inverse;
pub mod theorem2;
pub mod translate;
pub mod typing;

pub use egd_elim::{eliminate_egds, lemma5_instance, theta_egd, theta_fd, theta_fd_single};
pub use pipeline::{theorem6_instance, PjdInstance};
pub use shallow::{lemma10_exhibit, HatContext};
pub use sigma0::{lemma4_check, sigma0, sigma0_display, sigma0_set};
pub use t_inverse::{t_inverse, TInverse};
pub use theorem2::{abc_functionality, theorem2_instance, TypedInstance};
pub use translate::{lemma2_check, t_dep, t_egd, t_td};
pub use typing::Translator;
