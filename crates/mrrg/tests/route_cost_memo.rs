//! Differential check of the router's per-PE cost memo.
//!
//! The router's per-layer sweep prices each PE's outgoing link cells and
//! register cells once, then lets every carrier state of that PE relax
//! from the stored costs. The reference DP below is the algorithm before
//! that memo: the same state encoding, pruning, retry loop and strict-`<`
//! tie-breaks, but it calls `cell_cost` on every relaxation. The tests
//! assert that [`Router::route_with`] returns byte-identical
//! `Result<Route, RouteError>` to it, that `router.expansions` equals its
//! relaxation count, and that the router prices each `(cell, phase)` at
//! most once per DP attempt.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rewire_arch::random::{random_cgra_spec, RandomCgraParams};
use rewire_arch::{presets, Cgra, PeId};
use rewire_dfg::NodeId;
use rewire_mrrg::{
    CostModel, DistanceOracle, Mrrg, NegotiatedCost, Occupancy, Resource, Route, RouteError,
    RouteRequest, Router, RouterMode, RouterScratch, TreeCost, UnitCost,
};
use rewire_obs as obs;
use std::cell::RefCell;
use std::collections::HashMap;

/// What the reference DP did for one request.
#[derive(Clone, Copy, Debug, Default)]
struct RefTally {
    /// DP attempts, including the retries after a looped cell.
    attempts: u64,
    /// Relaxations plus arrival-scan link probes (one `cell_cost` call
    /// each in the reference).
    relaxations: u64,
    /// Cells the memoised sweep prices: per attempt and layer, the links
    /// and registers of every PE with a live unpruned state, plus the
    /// destination's incoming links in the arrival scan.
    priced: u64,
}

/// The reference router: one dense DP sweep per layer, `cell_cost` on
/// every relaxation, the duplicate-cell retry loop of [`Router`].
fn reference_route(
    cgra: &Cgra,
    mrrg: &Mrrg,
    occ: &Occupancy,
    req: &RouteRequest,
    cost: &impl CostModel,
    mode: RouterMode,
    tally: &mut RefTally,
) -> Result<Route, RouteError> {
    let oracle = match mode {
        RouterMode::Pruned => Some(DistanceOracle::build(cgra)),
        RouterMode::Dense => None,
    };
    let mut overlay = vec![0.0; mrrg.num_cells()];
    for _attempt in 0..10 {
        tally.attempts += 1;
        let route =
            reference_attempt(cgra, mrrg, occ, req, cost, oracle.as_ref(), &overlay, tally)?;
        let cells = route.resources();
        let mut duplicates = Vec::new();
        for (i, a) in cells.iter().enumerate() {
            if cells[i + 1..].contains(a) && !duplicates.contains(a) {
                duplicates.push(*a);
            }
        }
        if duplicates.is_empty() {
            return Ok(route);
        }
        for cell in duplicates {
            overlay[mrrg.index_of(cell)] += 8.0;
        }
    }
    Err(RouteError::NoPath { request: *req })
}

#[allow(clippy::too_many_arguments)] // a flat oracle, not production plumbing
fn reference_attempt(
    cgra: &Cgra,
    mrrg: &Mrrg,
    occ: &Occupancy,
    req: &RouteRequest,
    cost: &impl CostModel,
    oracle: Option<&DistanceOracle>,
    overlay: &[f64],
    tally: &mut RefTally,
) -> Result<Route, RouteError> {
    const INF: f64 = f64::INFINITY;
    let len = req
        .num_steps()
        .ok_or(RouteError::NegativeLength { request: *req })? as usize;
    let ii = mrrg.ii() as usize;
    let regs = mrrg.regs_per_pe() as usize;
    // State encoding: pe * stride + carrier, carrier 0 = wire,
    // 1 + r*ii + (run-1) = register r held for `run` cycles.
    let stride = 1 + regs * ii;
    let num_states = cgra.num_pes() * stride;
    let reg_state = |pe: usize, r: usize, run: usize| pe * stride + 1 + r * ii + (run - 1);
    let bound = oracle.map(|o| o.bound_to(req.dst_pe));

    let mut cur = vec![INF; num_states];
    cur[req.src_pe.index() * stride] = 0.0;
    let mut parents: Vec<Vec<(usize, Option<Resource>)>> = Vec::with_capacity(len);
    for k in 0..len {
        let slot = mrrg.slot_of(req.depart_cycle + k as u32);
        let hop_budget = (len - k) as u32 + 1;
        let mut next = vec![INF; num_states];
        let mut parent = vec![(usize::MAX, None); num_states];
        let mut priced_pe = usize::MAX;
        for (state, &base) in cur.iter().enumerate() {
            if base == INF {
                continue;
            }
            let pe_idx = state / stride;
            if bound.is_some_and(|b| b.get(pe_idx) > hop_budget) {
                continue;
            }
            let pe = PeId::new(pe_idx as u32);
            if pe_idx != priced_pe {
                priced_pe = pe_idx;
                tally.priced += (cgra.links_from(pe).len() + regs) as u64;
            }
            let mut relax = |next_state: usize, res: Resource| {
                tally.relaxations += 1;
                if let Some(c) = cost.cell_cost(occ, res, req.signal, k as u32) {
                    let cand = base + c + overlay[mrrg.index_of(res)];
                    if cand < next[next_state] {
                        next[next_state] = cand;
                        parent[next_state] = (state, Some(res));
                    }
                }
            };
            for link in cgra.links_from(pe) {
                let res = Resource::Link {
                    link: link.id(),
                    slot,
                };
                relax(link.dst().index() * stride, res);
            }
            let carrier = state % stride;
            if carrier == 0 {
                for r in 0..regs {
                    let res = Resource::Reg {
                        pe,
                        reg: r as u8,
                        slot,
                    };
                    relax(reg_state(pe_idx, r, 1), res);
                }
            } else {
                let r = (carrier - 1) / ii;
                let run = (carrier - 1) % ii + 1;
                if run < ii {
                    let res = Resource::Reg {
                        pe,
                        reg: r as u8,
                        slot,
                    };
                    relax(reg_state(pe_idx, r, run + 1), res);
                }
                for r2 in (0..regs).filter(|&r2| r2 != r) {
                    let res = Resource::Reg {
                        pe,
                        reg: r2 as u8,
                        slot,
                    };
                    relax(reg_state(pe_idx, r2, 1), res);
                }
            }
        }
        parents.push(parent);
        cur = next;
    }

    // Arrival: locally at the destination, or delivered by one final
    // combinational link hop in the arrival slot.
    let dst = req.dst_pe.index();
    let arrive_slot = mrrg.slot_of(req.arrive_cycle);
    let mut best: Option<(f64, usize, Option<Resource>)> = None;
    for (s, &value) in cur.iter().enumerate().skip(dst * stride).take(stride) {
        if value < best.map_or(INF, |(b, ..)| b) {
            best = Some((value, s, None));
        }
    }
    for link in cgra.links_to(req.dst_pe) {
        let res = Resource::Link {
            link: link.id(),
            slot: arrive_slot,
        };
        tally.relaxations += 1;
        tally.priced += 1;
        let Some(hop_cost) = cost.cell_cost(occ, res, req.signal, len as u32) else {
            continue;
        };
        let hop_cost = hop_cost + overlay[mrrg.index_of(res)];
        let src = link.src().index();
        for (s, &value) in cur.iter().enumerate().skip(src * stride).take(stride) {
            let total = value + hop_cost;
            if total < best.map_or(INF, |(b, ..)| b) {
                best = Some((total, s, Some(res)));
            }
        }
    }
    let Some((best_cost, best_state, delivery)) = best else {
        return Err(RouteError::NoPath { request: *req });
    };
    if best_cost == INF {
        return Err(RouteError::NoPath { request: *req });
    }
    let mut resources: Vec<Resource> = delivery.into_iter().collect();
    let mut state = best_state;
    for parent in parents.iter().rev() {
        let (prev, res) = parent[state];
        resources.push(res.expect("every live state has a parent"));
        state = prev;
    }
    resources.reverse();
    Ok(Route::from_parts(*req, resources, best_cost))
}

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

/// The router's `router.expansions` and `router.cost_evals` for one call,
/// read as counter deltas in a scope private to the calling test.
fn route_counted(
    router: &Router<'_>,
    occ: &Occupancy,
    req: &RouteRequest,
    cost: &impl CostModel,
    scope: &str,
) -> (Result<Route, RouteError>, u64, u64) {
    let read = || {
        let snap = obs::metrics().snapshot();
        let counter = |name: &str| {
            snap.scopes
                .get(scope)
                .and_then(|s| s.counters.get(name))
                .copied()
                .unwrap_or(0)
        };
        (counter("router.expansions"), counter("router.cost_evals"))
    };
    let _scope = obs::scope(scope);
    let before = read();
    let result = router.route_with(occ, req, cost, &mut RouterScratch::new());
    let after = read();
    (result, after.0 - before.0, after.1 - before.1)
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
    mode: RouterMode,
    scope: &str,
) -> Result<(), TestCaseError> {
    let router = Router::with_mode(cgra, mrrg, mode);
    let (got, expansions, cost_evals) = route_counted(&router, occ, req, cost, scope);
    let mut tally = RefTally::default();
    let want = reference_route(cgra, mrrg, occ, req, cost, mode, &mut tally);
    prop_assert_eq!(got, want, "{:?} diverged on {:?}", mode, req);
    prop_assert_eq!(expansions, tally.relaxations, "expansions, {:?}", req);
    prop_assert_eq!(cost_evals, tally.priced, "cost evaluations, {:?}", req);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    /// Random and cut fabrics, random occupancy, II 1..6, both sweep
    /// modes, and all three cost models: the memoised router and the
    /// per-relaxation reference agree on every outcome and every count.
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
        dense in 0u32..2,
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
        let mode = if dense == 1 { RouterMode::Dense } else { RouterMode::Pruned };
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
            0 => assert_matches_reference(&cgra, &mrrg, &occ, &req, &UnitCost, mode, scope)?,
            1 => assert_matches_reference(&cgra, &mrrg, &occ, &req, &nc, mode, scope)?,
            2 => {
                let tc = TreeCost::new(&UnitCost);
                assert_matches_reference(&cgra, &mrrg, &occ, &req, &tc, mode, scope)?
            }
            _ => {
                let tc = TreeCost::new(&nc);
                assert_matches_reference(&cgra, &mrrg, &occ, &req, &tc, mode, scope)?
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
        let router = Router::with_mode(&cgra, &mrrg, RouterMode::Pruned);
        let (got, expansions, cost_evals) =
            route_counted(&router, &occ, &req, &counting, "test/route_cost_memo/counting");
        let mut tally = RefTally::default();
        let want = reference_route(&cgra, &mrrg, &occ, &req, &UnitCost, RouterMode::Pruned, &mut tally);
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
                RouterMode::Pruned,
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
