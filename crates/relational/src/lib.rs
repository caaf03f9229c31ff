//! Relational substrate for typed template dependency theory.
//!
//! This crate implements Section 2.1–2.2 of Vardi's *"The Implication and
//! Finite Implication Problems for Typed Template Dependencies"*
//! (PODS 1982 / JCSS 1984): universes of attributes with typed or untyped
//! domain disciplines, interned values, tuples, finite relations,
//! projections, natural joins and the project-join mapping `m_R`, valuations,
//! and a hash-join-shaped homomorphism (embedding) engine.
//!
//! Everything in the dependency layer, the chase engine, and the paper's
//! reductions is built on these primitives.
//!
//! # Storage model: arena-interned values, columnar relations
//!
//! Values are interned once into a [`ValuePool`] — the per-pool *arena* —
//! and handled everywhere as [`Value`], a plain `u32` index into that
//! arena. A [`Relation`] stores its rows **columnar**: one flat
//! `Vec<Value>` per attribute, so a chase scan probing one column touches a
//! contiguous `u32` vector instead of one heap allocation per row.
//! Alongside the columns the relation maintains, incrementally on every
//! insert and equality-rewrite:
//!
//! * a per-attribute inverted index `value → sorted row positions`
//!   ([`ColumnIndex`]) — the probe side of embedding search;
//! * row-hash buckets for duplicate elimination without materialized
//!   tuples;
//! * per-value occurrence counts, making `VAL(I)` ([`Relation::val`]) and
//!   value membership O(1) allocation-free views.
//!
//! [`Tuple`] remains the boxed row type of the paper-facing API
//! (dependencies, tableaux, rendered tables); [`Relation::tuples`] /
//! [`Relation::row_tuple`] adapt between the layouts, and
//! [`relation::RowRef`] gives hot paths a borrowed row view. The layout
//! invariants are spelled out in the [`relation`] module docs.
//!
//! # Quick tour
//!
//! ```
//! use typedtd_relational::{Universe, ValuePool, Tuple, Relation};
//!
//! let u = Universe::untyped_abc();            // U' = A'B'C'
//! let mut pool = ValuePool::new(u.clone());
//! let (a, b, c) = (pool.untyped("a"), pool.untyped("b"), pool.untyped("c"));
//! let rel = Relation::from_rows(u.clone(), [
//!     Tuple::new(vec![a, b, c]),
//!     Tuple::new(vec![b, a, c]),
//! ]);
//! assert_eq!(rel.len(), 2);
//! assert_eq!(rel.project(&u.set("C'")).len(), 1);
//! ```

#![warn(missing_docs)]

pub mod bitset;
pub mod display;
pub mod fx;
pub mod hom;
pub mod isomorphism;
pub mod relation;
pub mod tuple;
pub mod universe;
pub mod value;

pub use bitset::AttrSet;
pub use display::{render_relation, render_rows};
pub use fx::{FxHashMap, FxHashSet};
pub use hom::{embeds, satisfies_row, Embedder, RowDelta, ScanScope, ScanStats, Valuation};
pub use isomorphism::{isomorphic, isomorphism};
pub use relation::{project_join, ColumnIndex, Projection, Relation, RewriteReport, RowRef};
pub use tuple::Tuple;
pub use universe::{AttrId, Typing, Universe};
pub use value::{Value, ValuePool};
