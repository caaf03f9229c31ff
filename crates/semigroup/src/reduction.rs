//! The \[7\]-style reduction from equational implications to untyped
//! dependency implication (Theorems 1 and 3).
//!
//! A groupoid's multiplication is stored as the ternary untyped relation
//! `{(x, y, x·y)}` over `U' = A'B'C'`. The **fixed** dependency set
//! `Σ₁ = semigroup_theory()` says the relation really is a semigroup table:
//!
//! * functionality — the egd `A'B' → C'` (Theorem 1's condition (2));
//! * totality — nine `A'B'`-total tds closing every pair of occurring
//!   elements under product (condition (1));
//! * associativity — an egd equating the two ways of composing.
//!
//! An ei `∀y (∧ sᵢ = tᵢ → s = t)` becomes the goal egd `σ_φ`: its
//! hypothesis *composes* every premise term as a chain of multiplication
//! rows, sharing the result variable of both sides of each premise (the
//! tableau way of writing an equality), and the conclusion equates the two
//! composed results. Then `φ` holds in all semigroups iff `Σ₁ ⊨ σ_φ`, and
//! `φ` fails in some finite semigroup iff `Σ₁ ⊭_f σ_φ` — so the
//! Gurevich–Lewis inseparability transfers, making `Σ₁`'s implication
//! problem unsolvable (Theorem 3). This module is a reconstruction of the
//! cited technique (DESIGN.md §3); its fidelity is checked against the
//! finite-model enumerator and the chase on decidable instances.

use crate::term::{Ei, Term};
use typedtd_dependencies::{Egd, Td, TdOrEgd};
use typedtd_relational::{FxHashMap, Tuple, Universe, Value, ValuePool};
use std::sync::Arc;

/// The fixed dependency set `Σ₁` (semigroup theory) with display labels.
pub fn semigroup_theory(
    universe: &Arc<Universe>,
    pool: &mut ValuePool,
) -> (Vec<TdOrEgd>, Vec<String>) {
    assert_eq!(universe.width(), 3, "semigroup tables live over U' = A'B'C'");
    let mut sigma = Vec::new();
    let mut labels = Vec::new();

    // Functionality: A'B' → C'.
    {
        let x = pool.fresh(None, "x");
        let y = pool.fresh(None, "y");
        let z1 = pool.fresh(None, "z");
        let z2 = pool.fresh(None, "z");
        sigma.push(TdOrEgd::Egd(Egd::new(
            universe.clone(),
            z1,
            z2,
            vec![Tuple::new(vec![x, y, z1]), Tuple::new(vec![x, y, z2])],
        )));
        labels.push("functionality A'B' -> C'".to_string());
    }

    // Totality: products of any two occurring elements exist.
    for i in 0..3u16 {
        for j in 0..3u16 {
            let u1: Vec<Value> = (0..3).map(|_| pool.fresh(None, "u")).collect();
            let u2: Vec<Value> = (0..3).map(|_| pool.fresh(None, "v")).collect();
            let prod = pool.fresh(None, "p");
            let w = Tuple::new(vec![u1[i as usize], u2[j as usize], prod]);
            sigma.push(TdOrEgd::Td(Td::new(
                universe.clone(),
                w,
                vec![Tuple::new(u1), Tuple::new(u2)],
            )));
            labels.push(format!("totality col{i}·col{j}"));
        }
    }

    // Associativity: (x·y)·z = x·(y·z).
    {
        let x = pool.fresh(None, "x");
        let y = pool.fresh(None, "y");
        let z = pool.fresh(None, "z");
        let xy = pool.fresh(None, "m");
        let yz = pool.fresh(None, "m");
        let p = pool.fresh(None, "r");
        let q = pool.fresh(None, "r");
        sigma.push(TdOrEgd::Egd(Egd::new(
            universe.clone(),
            p,
            q,
            vec![
                Tuple::new(vec![x, y, xy]),
                Tuple::new(vec![xy, z, p]),
                Tuple::new(vec![y, z, yz]),
                Tuple::new(vec![x, yz, q]),
            ],
        )));
        labels.push("associativity".to_string());
    }
    (sigma, labels)
}

/// Builder that composes terms into multiplication rows with a union-find
/// over result variables (premise equalities collapse the two sides).
struct Composer<'a> {
    pool: &'a mut ValuePool,
    vars: Vec<Value>,
    rows: Vec<(Value, Value, Value)>,
    parent: FxHashMap<Value, Value>,
}

impl<'a> Composer<'a> {
    fn find(&mut self, v: Value) -> Value {
        let p = *self.parent.entry(v).or_insert(v);
        if p == v {
            return v;
        }
        let root = self.find(p);
        self.parent.insert(v, root);
        root
    }

    fn unite(&mut self, a: Value, b: Value) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent.insert(ra.max(rb), ra.min(rb));
        }
    }

    fn compose(&mut self, t: &Term) -> Value {
        match t {
            Term::Var(v) => self.vars[*v as usize],
            Term::Mul(a, b) => {
                let ra = self.compose(a);
                let rb = self.compose(b);
                let r = self.pool.fresh(None, "t");
                self.rows.push((ra, rb, r));
                r
            }
        }
    }
}

/// Translates an ei into its goal egd `σ_φ` over `U'`.
///
/// # Panics
/// Panics if the ei contains no multiplication at all (its tableau would be
/// empty; such eis are not produced by the word-problem reduction).
pub fn ei_goal(ei: &Ei, universe: &Arc<Universe>, pool: &mut ValuePool) -> Egd {
    let vars: Vec<Value> = (0..ei.var_count().max(1))
        .map(|i| pool.fresh(None, &format!("y{i}_")))
        .collect();
    let mut c = Composer {
        pool,
        vars,
        rows: Vec::new(),
        parent: FxHashMap::default(),
    };
    for premise in &ei.premises {
        let l = c.compose(&premise.lhs);
        let r = c.compose(&premise.rhs);
        c.unite(l, r);
    }
    let goal_l = c.compose(&ei.conclusion.lhs);
    let goal_r = c.compose(&ei.conclusion.rhs);

    // Canonicalize all rows and the equated pair under the premise merges.
    let rows: Vec<Tuple> = c
        .rows
        .clone()
        .into_iter()
        .map(|(a, b, r)| {
            Tuple::new(vec![c.find(a), c.find(b), c.find(r)])
        })
        .collect();
    assert!(
        !rows.is_empty(),
        "ei without any multiplication has an empty tableau"
    );
    let left = c.find(goal_l);
    let right = c.find(goal_r);
    Egd::new(universe.clone(), left, right, rows)
}

/// The full Theorem 3 instance: `(Σ₁, σ_φ)` plus labels.
pub struct FrontierInstance {
    /// The untyped universe `U'`.
    pub universe: Arc<Universe>,
    /// The fixed semigroup theory.
    pub sigma: Vec<TdOrEgd>,
    /// Labels for `sigma`.
    pub labels: Vec<String>,
    /// The goal egd encoding the ei.
    pub goal: TdOrEgd,
}

/// Builds the instance for one ei.
pub fn frontier_instance(ei: &Ei, pool: &mut ValuePool, universe: &Arc<Universe>) -> FrontierInstance {
    let (sigma, labels) = semigroup_theory(universe, pool);
    let goal = TdOrEgd::Egd(ei_goal(ei, universe, pool));
    FrontierInstance {
        universe: universe.clone(),
        sigma,
        labels,
        goal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typedtd_chase::{
        chase_implication, random_counterexample, ChaseConfig, ChaseOutcome, SearchConfig,
    };

    fn setup() -> (Arc<Universe>, ValuePool) {
        let u = Universe::untyped_abc();
        let p = ValuePool::new(u.clone());
        (u, p)
    }

    #[test]
    fn theory_meets_theorem1_conditions() {
        let (u, mut p) = setup();
        let (sigma, _) = semigroup_theory(&u, &mut p);
        let ab = u.set("A' B'");
        let mut has_functionality = false;
        for dep in &sigma {
            match dep {
                TdOrEgd::Td(t) => assert!(t.is_v_total(&ab), "all tds must be A'B'-total"),
                TdOrEgd::Egd(e) => {
                    if e.hypothesis().len() == 2 {
                        has_functionality = true;
                    }
                }
            }
        }
        assert!(has_functionality, "A'B' → C' must be in Σ");
        assert_eq!(sigma.len(), 1 + 9 + 1);
    }

    #[test]
    fn congruence_ei_is_chase_provable() {
        // x = y ⟹ x·z = y·z: functionality alone suffices.
        let (u, mut p) = setup();
        let ei = Ei::parse("x = y => x*z = y*z").unwrap();
        let inst = frontier_instance(&ei, &mut p, &u);
        let run = chase_implication(&inst.sigma, &inst.goal, &mut p, &ChaseConfig::quick());
        assert_eq!(run.outcome, ChaseOutcome::Implied);
    }

    #[test]
    fn associativity_instance_is_chase_provable() {
        let (u, mut p) = setup();
        let ei = Ei::parse("=> (x*y)*z = x*(y*z)").unwrap();
        let inst = frontier_instance(&ei, &mut p, &u);
        let run = chase_implication(&inst.sigma, &inst.goal, &mut p, &ChaseConfig::quick());
        assert_eq!(run.outcome, ChaseOutcome::Implied);
    }

    #[test]
    fn derived_associativity_consequence() {
        // x·(x·x) = (x·x)·x, an instance with repeated variables.
        let (u, mut p) = setup();
        let ei = Ei::parse("=> x*(x*x) = (x*x)*x").unwrap();
        let inst = frontier_instance(&ei, &mut p, &u);
        let run = chase_implication(&inst.sigma, &inst.goal, &mut p, &ChaseConfig::quick());
        assert_eq!(run.outcome, ChaseOutcome::Implied);
    }

    #[test]
    fn commutativity_is_refuted_finitely() {
        // x·y = y·x fails in the left-zero semigroup; the dependency-level
        // search must find a finite counterexample (the chase alone cannot
        // terminate here — totality keeps generating products).
        let (u, mut p) = setup();
        let ei = Ei::parse("=> x*y = y*x").unwrap();
        let inst = frontier_instance(&ei, &mut p, &u);
        let run = chase_implication(&inst.sigma, &inst.goal, &mut p, &ChaseConfig::quick());
        assert_eq!(
            run.outcome,
            ChaseOutcome::Exhausted,
            "the free semigroup is infinite; the chase must not terminate"
        );
        let cfg = SearchConfig {
            max_domain: 2,
            attempts: 200,
            repair_steps: 256,
            max_rows: 64,
            ..Default::default()
        };
        let cex = random_counterexample(&inst.sigma, &inst.goal, &u, &mut p, &cfg)
            .expect("a 2-element refutation exists");
        assert!(typedtd_chase::is_counterexample(&cex, &inst.sigma, &inst.goal));
    }

    #[test]
    fn dependency_answers_agree_with_model_enumeration() {
        // Cross-check the reduction's fidelity on decidable instances.
        use crate::models::refute_in_finite_semigroup;
        let cases = [
            ("x = y => x*z = y*z", true),
            ("=> (x*y)*z = x*(y*z)", true),
            ("=> x*x = x", false),
        ];
        for (spec, expect_valid) in cases {
            let (u, mut p) = setup();
            let ei = Ei::parse(spec).unwrap();
            let finitely_refuted = refute_in_finite_semigroup(&ei, 2).is_some();
            assert_eq!(!finitely_refuted, expect_valid, "model-level sanity for {spec}");
            let inst = frontier_instance(&ei, &mut p, &u);
            if expect_valid {
                let run =
                    chase_implication(&inst.sigma, &inst.goal, &mut p, &ChaseConfig::quick());
                assert_eq!(run.outcome, ChaseOutcome::Implied, "chase must prove {spec}");
            } else {
                let cfg = SearchConfig {
                    max_domain: 2,
                    attempts: 200,
                    ..Default::default()
                };
                let cex = random_counterexample(&inst.sigma, &inst.goal, &u, &mut p, &cfg);
                assert!(cex.is_some(), "search must refute {spec}");
            }
        }
    }
}
