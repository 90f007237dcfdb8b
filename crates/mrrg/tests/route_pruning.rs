//! Differential route-equivalence: the router's one sweep, pruned to a
//! sparse frontier, must be byte-identical to the dense DP it replaced.
//!
//! Pruning uses the hop-distance oracle as an admissible lower bound, so
//! it may only skip states that can never contribute to an arrival
//! candidate — costs, parents and every strict-`<` tie-break must come out
//! exactly the same. The dense DP survives only as the test-only
//! reference in `common/` (called with no oracle). These tests drive the
//! router and that reference over random fabrics (including torus,
//! diagonal and deliberately disconnected ones), random occupancies, both
//! cost models and both oracle tiers, and assert the full `Result<Route,
//! RouteError>` is equal.

mod common;

use common::{reference_route, route_counted, RefTally};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rewire_arch::random::{random_cgra_spec, RandomCgraParams};
use rewire_arch::{presets, Cgra, Coord, PeId};
use rewire_dfg::NodeId;
use rewire_mrrg::{
    CostModel, DistanceOracle, Mrrg, NegotiatedCost, Occupancy, Route, RouteError, RouteRequest,
    Router, RouterScratch, TieredDistance, UnitCost,
};
use std::sync::Arc;

fn fuzz_params() -> RandomCgraParams {
    RandomCgraParams {
        // A quarter of the fabrics are split into two islands so the
        // equivalence also covers genuinely unreachable destinations.
        cut_prob: 0.25,
        torus_prob: 0.3,
        diagonal_prob: 0.3,
        ..RandomCgraParams::default()
    }
}

/// The dense reference DP's outcome for `req`.
fn dense_route(
    cgra: &Cgra,
    mrrg: &Mrrg,
    occ: &Occupancy,
    req: &RouteRequest,
    cost: &impl CostModel,
) -> Result<Route, RouteError> {
    reference_route(cgra, mrrg, occ, req, cost, None, &mut RefTally::default())
}

/// Routes `req` with the router (fresh scratch) and the dense reference
/// and asserts the results (success or failure) are identical.
fn assert_matches_dense(
    cgra: &Cgra,
    mrrg: &Mrrg,
    occ: &Occupancy,
    req: &RouteRequest,
    cost: &impl CostModel,
) -> Result<(), TestCaseError> {
    let pruned = Router::new(cgra, mrrg).route_with(occ, req, cost, &mut RouterScratch::new());
    prop_assert_eq!(
        pruned,
        dense_route(cgra, mrrg, occ, req, cost),
        "diverged from the dense DP on {:?}",
        req
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 160, ..ProptestConfig::default() })]

    /// Random fabric, random occupancy, random request: byte-identical
    /// outcomes under the exclusive `UnitCost` model.
    #[test]
    fn unit_cost_routes_are_byte_identical(
        arch_seed in 0u64..96,
        occ_seed in 0u64..1024,
        src in 0u32..64,
        dst in 0u32..64,
        depart in 1u32..8,
        extra in 0u32..10,
        ii in 1u32..5,
        claims in 0usize..48,
    ) {
        let spec = random_cgra_spec(&fuzz_params(), arch_seed);
        let cgra = spec.build().expect("random specs build");
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
        let n = cgra.num_pes() as u32;
        let req = RouteRequest {
            signal: NodeId::new(0),
            src_pe: PeId::new(src % n),
            depart_cycle: depart,
            dst_pe: PeId::new(dst % n),
            arrive_cycle: depart + extra,
        };
        assert_matches_dense(&cgra, &mrrg, &occ, &req, &UnitCost)?;
    }

    /// Same property under negotiated congestion costs (overused cells
    /// allowed at a price), where the DP explores far more live states.
    #[test]
    fn negotiated_cost_routes_are_byte_identical(
        arch_seed in 0u64..96,
        occ_seed in 0u64..1024,
        src in 0u32..64,
        dst in 0u32..64,
        extra in 0u32..8,
        ii in 1u32..4,
        claims in 0usize..64,
    ) {
        let spec = random_cgra_spec(&fuzz_params(), arch_seed);
        let cgra = spec.build().expect("random specs build");
        let mrrg = Mrrg::new(&cgra, ii);
        let mut occ = Occupancy::new(&mrrg);
        let mut rng = StdRng::seed_from_u64(occ_seed);
        for _ in 0..claims {
            let cell = mrrg.resource_of(rng.random_range(0..mrrg.num_cells()));
            occ.claim(
                cell,
                NodeId::new(rng.random_range(0..4)),
                rng.random_range(0..3),
            );
        }
        let mut nc = NegotiatedCost::new(&mrrg, 7.5, 1.25);
        // Random claims above produce genuine overuse; accumulate twice so
        // history costs participate in tie-breaks as well.
        nc.accumulate_history_everywhere(&occ);
        nc.accumulate_history_everywhere(&occ);
        let n = cgra.num_pes() as u32;
        let req = RouteRequest {
            signal: NodeId::new(1),
            src_pe: PeId::new(src % n),
            depart_cycle: 2,
            dst_pe: PeId::new(dst % n),
            arrive_cycle: 2 + extra,
        };
        assert_matches_dense(&cgra, &mrrg, &occ, &req, &nc)?;
    }

    /// The byte-identical guarantee holds across oracle *tiers* too:
    /// forcing the landmark oracle (what every past-the-limit fabric gets)
    /// onto small fabrics, where the dense DP is still tractable to
    /// compare against, must change nothing — the weaker-but-admissible
    /// bound prunes fewer states, never different ones.
    #[test]
    fn tiered_oracle_routes_match_the_dense_dp(
        arch_seed in 0u64..96,
        occ_seed in 0u64..1024,
        src in 0u32..64,
        dst in 0u32..64,
        extra in 0u32..10,
        ii in 1u32..5,
        claims in 0usize..48,
    ) {
        let spec = random_cgra_spec(&fuzz_params(), arch_seed);
        let cgra = spec.build().expect("random specs build");
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
        let n = cgra.num_pes() as u32;
        let req = RouteRequest {
            signal: NodeId::new(0),
            src_pe: PeId::new(src % n),
            depart_cycle: 1,
            dst_pe: PeId::new(dst % n),
            arrive_cycle: 1 + extra,
        };
        let mut ps = RouterScratch::new();
        ps.install_distances(Arc::new(DistanceOracle::Tiered(TieredDistance::build(&cgra))));
        let a = dense_route(&cgra, &mrrg, &occ, &req, &UnitCost);
        let b = Router::new(&cgra, &mrrg).route_with(&occ, &req, &UnitCost, &mut ps);
        prop_assert_eq!(a, b, "tiered-oracle pruning diverged on {:?}", req);
    }
}

/// Exhaustive deterministic sweep on the paper's baseline fabric: every
/// endpoint pair at several IIs and slacks, on an empty table. Catches any
/// tie-break drift that randomized cases might sample around.
#[test]
fn all_pairs_sweep_on_the_paper_fabric() {
    let cgra = presets::paper_4x4_r4();
    for ii in [1u32, 2, 4] {
        let mrrg = Mrrg::new(&cgra, ii);
        let occ = Occupancy::new(&mrrg);
        let router = Router::new(&cgra, &mrrg);
        let mut ps = RouterScratch::new();
        // A second scratch on the landmark tier, exercising the big-fabric
        // configuration over the same exhaustive sweep.
        let mut ts = RouterScratch::new();
        ts.install_distances(Arc::new(DistanceOracle::Tiered(TieredDistance::build(
            &cgra,
        ))));
        for src in 0..cgra.num_pes() as u32 {
            for dst in 0..cgra.num_pes() as u32 {
                for extra in [0u32, 1, 3, 6] {
                    let req = RouteRequest {
                        signal: NodeId::new(0),
                        src_pe: PeId::new(src),
                        depart_cycle: 1,
                        dst_pe: PeId::new(dst),
                        arrive_cycle: 1 + extra,
                    };
                    let a = dense_route(&cgra, &mrrg, &occ, &req, &UnitCost);
                    let b = router.route_with(&occ, &req, &UnitCost, &mut ps);
                    let c = router.route_with(&occ, &req, &UnitCost, &mut ts);
                    assert_eq!(a, b, "ii {ii}, {req:?}");
                    assert_eq!(a, c, "tiered tier, ii {ii}, {req:?}");
                }
            }
        }
    }
}

/// The long-haul corner route on the paper's 8x8 fabric, (0,0) to (7,7)
/// in 14 hops plus `slack` spare cycles, at slack 0, 2 and 6: the router
/// returns exactly the dense DP's `Result`, and its `router.expansions`
/// stay strictly below the dense DP's relaxations, so the pruning both
/// holds and pays.
#[test]
fn corner_route_matches_the_dense_dp_with_fewer_expansions() {
    let cgra = presets::paper_8x8_r4();
    let mrrg = Mrrg::new(&cgra, 4);
    let occ = Occupancy::new(&mrrg);
    let router = Router::new(&cgra, &mrrg);
    let corner = |c: u16| cgra.pe_at(Coord::new(c, c)).unwrap().id();
    for slack in [0u32, 2, 6] {
        let req = RouteRequest {
            signal: NodeId::new(0),
            src_pe: corner(0),
            depart_cycle: 1,
            dst_pe: corner(7),
            arrive_cycle: 1 + 14 + slack,
        };
        let (got, expansions, _) =
            route_counted(&router, &occ, &req, &UnitCost, "test/route_pruning/corner");
        let mut dense = RefTally::default();
        let want = reference_route(&cgra, &mrrg, &occ, &req, &UnitCost, None, &mut dense);
        assert_eq!(got, want, "slack {slack}");
        assert!(
            expansions < dense.relaxations,
            "slack {slack}: {expansions} expansions vs {} dense relaxations",
            dense.relaxations
        );
    }
}
