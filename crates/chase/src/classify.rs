//! Syntactic fragment classification and sound query routing.
//!
//! The paper's main theorems say that no total algorithm decides (finite)
//! implication for typed tds — so a production service cannot hope for a
//! universally terminating path. What it *can* do is recognize, before any
//! fuel burns, the large syntactic fragments where cheaper paths are
//! guaranteed sound, and route each query accordingly:
//!
//! * **Weakly acyclic Σ** (Fagin–Kolaitis–Miller–Popa, see
//!   [`crate::termination`]): every chase sequence terminates, so the
//!   chase alone decides *both* implication problems — a terminal instance
//!   is a finite universal model, so `Implied` means `Yes/Yes` and a
//!   terminal `NotImplied` means `No/No` with the terminal instance as a
//!   finite counterexample. Dovetailing a finite-model search next to such
//!   a chase is pure overhead, and capping the chase budget only
//!   manufactures avoidable `Unknown`s. [`routed_decide_config`] therefore
//!   rewrites the configuration to a sequential, search-free chase with
//!   effectively unbounded budgets.
//! * **Linear Σ**: every dependency has a single-row hypothesis (the
//!   single-body-atom tgds of PDQ's `TGD.isLinear`). Trigger discovery
//!   never joins rows. This crate has no dedicated linear decision
//!   procedure, so the route is *observational*: the service counts it
//!   (`class_routed_linear`) but executes the default dovetail, which is
//!   always sound.
//! * **Guarded Σ**: some hypothesis row of each dependency carries all of
//!   its hypothesis values (PDQ's `TGD.isGuarded`); linear ⇒ guarded.
//!   Also observational, for the same reason.
//! * **Everything else** routes to the default dovetail
//!   ([`RouteClass::Dovetail`]) — the fair pairing of the two r.e.
//!   procedures, the only always-sound general answer.
//!
//! The precedence is `Terminating > Linear > Guarded > Dovetail`: weak
//! acyclicity is the only property that changes *execution*, so it wins
//! whenever it holds; the observational classes refine the remainder.
//! Routing never changes an answer — only how fast (and how definitely)
//! it arrives — which the differential suite `tests/classifier_parity.rs`
//! pins against the unclassified baseline.

use crate::engine::ChaseConfig;
use crate::implication::{DecideConfig, DecideMode};
use crate::termination::{is_guarded, is_linear, weakly_acyclic};
use typedtd_dependencies::TdOrEgd;

/// Which routing fragment a Σ falls into, in precedence order. The names
/// are stable: they ride `class_routed_*` stats tokens and metrics labels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouteClass {
    /// Weakly acyclic: the chase terminates, deciding both problems.
    Terminating,
    /// Every dependency has a single-row hypothesis (and Σ is not
    /// detectably terminating). Observational.
    Linear,
    /// Every dependency is guarded but not all linear (and Σ is not
    /// detectably terminating). Observational.
    Guarded,
    /// No recognized fragment: the general dovetail path.
    Dovetail,
}

impl RouteClass {
    /// Every route, in precedence order (index order = [`Self::index`]).
    pub const ALL: [RouteClass; 4] = [
        RouteClass::Terminating,
        RouteClass::Linear,
        RouteClass::Guarded,
        RouteClass::Dovetail,
    ];

    /// Number of routes (array-size companion of [`Self::ALL`]).
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index into `[_; RouteClass::COUNT]` stats arrays.
    pub fn index(self) -> usize {
        match self {
            RouteClass::Terminating => 0,
            RouteClass::Linear => 1,
            RouteClass::Guarded => 2,
            RouteClass::Dovetail => 3,
        }
    }

    /// Stable lowercase name (used as a stats token and metrics label).
    pub fn as_str(self) -> &'static str {
        match self {
            RouteClass::Terminating => "terminating",
            RouteClass::Linear => "linear",
            RouteClass::Guarded => "guarded",
            RouteClass::Dovetail => "dovetail",
        }
    }
}

/// The syntactic properties of one Σ, as one classification pass sees
/// them. Produced by [`classify`]; collapse to a route with
/// [`FragmentReport::route`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FragmentReport {
    /// No cycle of the position dependency graph crosses a special edge:
    /// every chase over this Σ terminates.
    pub weakly_acyclic: bool,
    /// Every dependency has a single-row hypothesis.
    pub linear: bool,
    /// Every dependency has a guard row covering its hypothesis values.
    pub guarded: bool,
}

impl FragmentReport {
    /// The cheapest sound route for this Σ, by precedence
    /// `Terminating > Linear > Guarded > Dovetail`.
    pub fn route(&self) -> RouteClass {
        if self.weakly_acyclic {
            RouteClass::Terminating
        } else if self.linear {
            RouteClass::Linear
        } else if self.guarded {
            RouteClass::Guarded
        } else {
            RouteClass::Dovetail
        }
    }
}

/// Classifies `Σ` in one syntactic pass (no chasing, no search): weak
/// acyclicity over the position dependency graph plus per-dependency
/// linearity/guardedness. Cost is polynomial in `|Σ|` and the universe
/// width — negligible next to a single chase round.
pub fn classify(sigma: &[TdOrEgd]) -> FragmentReport {
    FragmentReport {
        weakly_acyclic: weakly_acyclic(sigma),
        linear: sigma.iter().all(is_linear),
        guarded: sigma.iter().all(is_guarded),
    }
}

/// A chase budget that will never expire before a terminating chase
/// reaches its verdict, keeping `base`'s semi-naive switch.
pub fn terminating_chase_config(base: &ChaseConfig) -> ChaseConfig {
    ChaseConfig {
        max_rounds: usize::MAX,
        max_rows: usize::MAX,
        max_steps: usize::MAX,
        ..base.clone()
    }
}

/// Rewrites `base` into the configuration `route` justifies.
///
/// Only [`RouteClass::Terminating`] changes anything: the chase is then a
/// total decision procedure for both problems, so the mode drops to
/// [`DecideMode::Sequential`], the finite-model search is skipped (a
/// terminal `NotImplied` already carries a finite counterexample), and the
/// chase budgets open up ([`terminating_chase_config`]). The observational
/// routes return `base` unchanged — there is no cheaper procedure that is
/// also sound for them, and misrouting must never alter an answer.
pub fn routed_decide_config(base: &DecideConfig, route: RouteClass) -> DecideConfig {
    match route {
        RouteClass::Terminating => DecideConfig {
            chase: terminating_chase_config(&base.chase),
            search: base.search.clone(),
            skip_search: true,
            mode: DecideMode::Sequential,
        },
        RouteClass::Linear | RouteClass::Guarded | RouteClass::Dovetail => base.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typedtd_dependencies::{td_from_names, Fd, Mvd};
    use typedtd_relational::{Universe, ValuePool};

    #[test]
    fn route_precedence_and_names() {
        assert_eq!(RouteClass::ALL.len(), RouteClass::COUNT);
        for (i, r) in RouteClass::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
        assert_eq!(RouteClass::Terminating.as_str(), "terminating");
        assert_eq!(RouteClass::Dovetail.as_str(), "dovetail");
    }

    #[test]
    fn mvd_and_fd_mixes_route_terminating() {
        let u = Universe::typed(vec!["A", "B", "C"]);
        let mut pool = ValuePool::new(u.clone());
        let mut sigma: Vec<TdOrEgd> = ["A ->> B"]
            .iter()
            .map(|s| TdOrEgd::Td(Mvd::parse(&u, s).unwrap().to_pjd().to_td(&u, &mut pool)))
            .collect();
        sigma.extend(
            Fd::parse(&u, "A -> C")
                .unwrap()
                .to_egds(&u, &mut pool)
                .into_iter()
                .map(TdOrEgd::Egd),
        );
        let report = classify(&sigma);
        assert!(report.weakly_acyclic);
        assert_eq!(report.route(), RouteClass::Terminating);
    }

    #[test]
    fn self_feeding_linear_td_routes_linear() {
        // Single-row hypothesis, but the existential feeds back: not
        // weakly acyclic, so the linear (observational) route wins.
        let untyped = Universe::untyped_abc();
        let mut pool = ValuePool::new(untyped.clone());
        let td = td_from_names(&untyped, &mut pool, &[&["x", "y", "z"]], &["y", "q", "z"]);
        let sigma = vec![TdOrEgd::Td(td)];
        let report = classify(&sigma);
        assert!(!report.weakly_acyclic);
        assert!(report.linear && report.guarded);
        assert_eq!(report.route(), RouteClass::Linear);
    }

    #[test]
    fn joins_with_cycles_route_dovetail() {
        let untyped = Universe::untyped_abc();
        let mut pool = ValuePool::new(untyped.clone());
        let td = td_from_names(
            &untyped,
            &mut pool,
            &[&["x", "y", "z"], &["z", "v", "w"]],
            &["y", "q", "x"],
        );
        let sigma = vec![TdOrEgd::Td(td)];
        let report = classify(&sigma);
        if !report.weakly_acyclic {
            assert_eq!(report.route(), RouteClass::Dovetail);
        }
    }

    #[test]
    fn terminating_route_rewrites_config_others_do_not() {
        let base = DecideConfig {
            chase: ChaseConfig::default().with_semi_naive(false),
            ..DecideConfig::default()
        };
        let routed = routed_decide_config(&base, RouteClass::Terminating);
        assert_eq!(routed.mode, DecideMode::Sequential);
        assert!(routed.skip_search);
        assert_eq!(routed.chase.max_rounds, usize::MAX);
        assert_eq!(routed.chase.semi_naive, base.chase.semi_naive);
        for r in [RouteClass::Linear, RouteClass::Guarded, RouteClass::Dovetail] {
            let same = routed_decide_config(&base, r);
            assert_eq!(same.chase.max_rounds, base.chase.max_rounds);
            assert_eq!(same.skip_search, base.skip_search);
        }
    }
}
