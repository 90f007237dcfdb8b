//! Differential check of the router's per-PE cost memo.
//!
//! The router's per-layer sweep prices each PE's outgoing link cells and
//! register cells once, then lets every carrier state of that PE relax
//! from the stored costs. The reference DP (`common/`, given the router's
//! hop oracle) is the algorithm before that memo: the same state
//! encoding, pruning, retry loop and strict-`<` tie-breaks, but it calls
//! `cell_cost` on every relaxation. The tests assert that
//! [`Router::route_with`] returns byte-identical `Result<Route,
//! RouteError>` to it, that `router.expansions` equals its relaxation
//! count, and that the router prices each `(cell, phase)` at most once per
//! DP attempt.

mod common;

use common::{reference_route, route_counted, RefTally};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rewire_arch::random::{random_cgra_spec, RandomCgraParams};
use rewire_arch::{presets, Cgra, PeId};
use rewire_dfg::NodeId;
use rewire_mrrg::{
    CostModel, DistanceOracle, Mrrg, NegotiatedCost, Occupancy, Resource, RouteRequest, Router,
    TreeCost, UnitCost,
};
use std::cell::RefCell;
use std::collections::HashMap;

/// Counts every `cell_cost` call per `(cell, phase)` of an inner model.
struct CountingCost<'c, C> {
    inner: &'c C,
    calls: RefCell<HashMap<(Resource, u32), u32>>,
}

impl<'c, C: CostModel> CountingCost<'c, C> {
    fn new(inner: &'c C) -> Self {
        Self {
            inner,
            calls: RefCell::new(HashMap::new()),
        }
    }

    fn total(&self) -> u64 {
        self.calls.borrow().values().map(|&n| u64::from(n)).sum()
    }

    fn max_per_cell(&self) -> u32 {
        self.calls.borrow().values().copied().max().unwrap_or(0)
    }
}

impl<C: CostModel> CostModel for CountingCost<'_, C> {
    fn cell_cost(
        &self,
        occ: &Occupancy,
        cell: Resource,
        signal: NodeId,
        phase: u32,
    ) -> Option<f64> {
        *self.calls.borrow_mut().entry((cell, phase)).or_default() += 1;
        self.inner.cell_cost(occ, cell, signal, phase)
    }
}

/// A random fabric (a quarter of them cut into two islands), MRRG and
/// occupancy with `claims` random claims by signals `0..6`.
fn random_case(arch_seed: u64, occ_seed: u64, ii: u32, claims: usize) -> (Cgra, Mrrg, Occupancy) {
    let params = RandomCgraParams {
        cut_prob: 0.25,
        torus_prob: 0.3,
        diagonal_prob: 0.3,
        ..RandomCgraParams::default()
    };
    let cgra = random_cgra_spec(&params, arch_seed)
        .build()
        .expect("random specs build");
    let mrrg = Mrrg::new(&cgra, ii);
    let mut occ = Occupancy::new(&mrrg);
    let mut rng = StdRng::seed_from_u64(occ_seed);
    for _ in 0..claims {
        let cell = mrrg.resource_of(rng.random_range(0..mrrg.num_cells()));
        occ.claim(
            cell,
            NodeId::new(rng.random_range(0..6)),
            rng.random_range(0..4),
        );
    }
    (cgra, mrrg, occ)
}

/// Routes `req` with the router and the reference and checks the result,
/// the relaxation count and the pricing count.
fn assert_matches_reference(
    cgra: &Cgra,
    mrrg: &Mrrg,
    occ: &Occupancy,
    req: &RouteRequest,
    cost: &impl CostModel,
    scope: &str,
) -> Result<(), TestCaseError> {
    let router = Router::new(cgra, mrrg);
    let (got, expansions, cost_evals) = route_counted(&router, occ, req, cost, scope);
    let mut tally = RefTally::default();
    let oracle = DistanceOracle::build(cgra);
    let want = reference_route(cgra, mrrg, occ, req, cost, Some(&oracle), &mut tally);
    prop_assert_eq!(got, want, "diverged on {:?}", req);
    prop_assert_eq!(expansions, tally.relaxations, "expansions, {:?}", req);
    prop_assert_eq!(cost_evals, tally.priced, "cost evaluations, {:?}", req);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    /// Random and cut fabrics, random occupancy, II 1..6, and all three
    /// cost models: the memoised router and the per-relaxation reference
    /// agree on every outcome and every count.
    #[test]
    fn memoised_router_matches_the_reference_dp(
        arch_seed in 0u64..128,
        occ_seed in 0u64..1024,
        src in 0u32..64,
        dst in 0u32..64,
        depart in 1u32..8,
        extra in 0u32..10,
        ii in 1u32..7,
        claims in 0usize..64,
        model in 0u32..4,
        history_rounds in 0u32..3,
    ) {
        let (cgra, mrrg, occ) = random_case(arch_seed, occ_seed, ii, claims);
        let n = cgra.num_pes() as u32;
        let req = RouteRequest {
            signal: NodeId::new(0),
            src_pe: PeId::new(src % n),
            depart_cycle: depart,
            dst_pe: PeId::new(dst % n),
            arrive_cycle: depart + extra,
        };
        let mut rng = StdRng::seed_from_u64(occ_seed ^ 0x5eed);
        let mut nc = NegotiatedCost::new(
            &mrrg,
            rng.random_range(0.5..10.0),
            rng.random_range(0.1..2.0),
        );
        for _ in 0..history_rounds {
            nc.accumulate_history_everywhere(&occ);
        }
        let scope = "test/route_cost_memo/reference";
        match model {
            0 => assert_matches_reference(&cgra, &mrrg, &occ, &req, &UnitCost, scope)?,
            1 => assert_matches_reference(&cgra, &mrrg, &occ, &req, &nc, scope)?,
            2 => {
                let tc = TreeCost::new(&UnitCost);
                assert_matches_reference(&cgra, &mrrg, &occ, &req, &tc, scope)?
            }
            _ => {
                let tc = TreeCost::new(&nc);
                assert_matches_reference(&cgra, &mrrg, &occ, &req, &tc, scope)?
            }
        }
    }

    /// A counting wrapper sees each `(cell, phase)` priced at most once
    /// per DP attempt, and exactly as many calls as `router.cost_evals`.
    #[test]
    fn each_cell_is_priced_at_most_once_per_attempt(
        arch_seed in 0u64..128,
        occ_seed in 0u64..1024,
        src in 0u32..64,
        dst in 0u32..64,
        extra in 0u32..10,
        ii in 1u32..7,
        claims in 0usize..64,
    ) {
        let (cgra, mrrg, occ) = random_case(arch_seed, occ_seed, ii, claims);
        let n = cgra.num_pes() as u32;
        let req = RouteRequest {
            signal: NodeId::new(0),
            src_pe: PeId::new(src % n),
            depart_cycle: 2,
            dst_pe: PeId::new(dst % n),
            arrive_cycle: 2 + extra,
        };
        let counting = CountingCost::new(&UnitCost);
        let router = Router::new(&cgra, &mrrg);
        let (got, expansions, cost_evals) =
            route_counted(&router, &occ, &req, &counting, "test/route_cost_memo/counting");
        let mut tally = RefTally::default();
        let oracle = DistanceOracle::build(&cgra);
        let want = reference_route(&cgra, &mrrg, &occ, &req, &UnitCost, Some(&oracle), &mut tally);
        prop_assert_eq!(got, want);
        prop_assert_eq!(expansions, tally.relaxations);
        prop_assert_eq!(counting.total(), cost_evals);
        prop_assert!(
            u64::from(counting.max_per_cell()) <= tally.attempts,
            "a cell was priced {} times over {} attempts",
            counting.max_per_cell(),
            tally.attempts
        );
    }
}

/// Every endpoint pair on the paper's empty 4x4 fabric: a request that
/// routes in one attempt prices each cell exactly once, and the memo saves
/// most of the pricing work.
#[test]
fn memo_prices_each_cell_once_on_the_paper_fabric() {
    let cgra = presets::paper_4x4_r4();
    let mrrg = Mrrg::new(&cgra, 4);
    let occ = Occupancy::new(&mrrg);
    let router = Router::new(&cgra, &mrrg);
    let oracle = DistanceOracle::build(&cgra);
    let (mut expansions, mut cost_evals, mut single_attempts) = (0, 0, 0);
    for src in 0..cgra.num_pes() as u32 {
        for dst in 0..cgra.num_pes() as u32 {
            let req = RouteRequest {
                signal: NodeId::new(0),
                src_pe: PeId::new(src),
                depart_cycle: 1,
                dst_pe: PeId::new(dst),
                arrive_cycle: 7,
            };
            let counting = CountingCost::new(&UnitCost);
            let (got, e, c) =
                route_counted(&router, &occ, &req, &counting, "test/route_cost_memo/paper");
            let mut tally = RefTally::default();
            let want = reference_route(
                &cgra,
                &mrrg,
                &occ,
                &req,
                &UnitCost,
                Some(&oracle),
                &mut tally,
            );
            assert!(got.is_ok(), "{req:?}");
            assert_eq!(got, want, "{req:?}");
            assert_eq!(e, tally.relaxations, "{req:?}");
            assert_eq!(counting.total(), c);
            if tally.attempts == 1 {
                single_attempts += 1;
                assert_eq!(counting.max_per_cell(), 1, "{req:?}");
            }
            expansions += e;
            cost_evals += c;
        }
    }
    assert!(single_attempts > 0);
    assert!(
        cost_evals * 2 < expansions,
        "{cost_evals} cost evaluations for {expansions} expansions"
    );
}
