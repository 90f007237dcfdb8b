//! The test-only reference router shared by the differential suites.
//!
//! [`reference_route`] is the router's DP without any of its
//! optimisations: it scans every state id of every layer, calls
//! `cell_cost` on every relaxation and keeps dense parent rows. Passing
//! `None` for the oracle gives the dense DP that `route_pruning.rs` pins
//! the pruned [`Router`] against; passing the router's oracle gives the
//! pruned reference whose work counts `route_cost_memo.rs` matches
//! exactly.

// Each test binary that includes this module uses a different subset.
#![allow(dead_code)]

use rewire_arch::{Cgra, PeId};
use rewire_mrrg::{
    CostModel, DistanceOracle, Mrrg, Occupancy, Resource, Route, RouteError, RouteRequest, Router,
    RouterScratch,
};
use rewire_obs as obs;

/// What the reference DP did for one request.
#[derive(Clone, Copy, Debug, Default)]
pub struct RefTally {
    /// DP attempts, including the retries after a looped cell.
    pub attempts: u64,
    /// Relaxations plus arrival-scan link probes (one `cell_cost` call
    /// each in the reference).
    pub relaxations: u64,
    /// Cells the memoised sweep prices: per attempt and layer, the links
    /// and registers of every PE with a live unpruned state, plus the
    /// destination's incoming links in the arrival scan.
    pub priced: u64,
}

/// The reference router: one DP sweep per layer over every state id,
/// `cell_cost` on every relaxation, the duplicate-cell retry loop of
/// [`Router`]. With `oracle` set it skips the states the hop bound rules
/// out, exactly as the router does; with `None` it is the dense DP.
pub fn reference_route(
    cgra: &Cgra,
    mrrg: &Mrrg,
    occ: &Occupancy,
    req: &RouteRequest,
    cost: &impl CostModel,
    oracle: Option<&DistanceOracle>,
    tally: &mut RefTally,
) -> Result<Route, RouteError> {
    let mut overlay = vec![0.0; mrrg.num_cells()];
    for _attempt in 0..10 {
        tally.attempts += 1;
        let route = reference_attempt(cgra, mrrg, occ, req, cost, oracle, &overlay, tally)?;
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

/// The router's `router.expansions` and `router.cost_evals` for one call,
/// read as counter deltas in a scope private to the calling test.
pub fn route_counted(
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
