//! Set-up, the timed passes over a workload's items, and the correctness
//! gate.

use crate::trace::{Tracer, Work};
use crate::workloads::{self, Workload, II_CEILING, VERIFY_ITERATIONS};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rewire_arch::Cgra;
use rewire_dfg::{kernels, Dfg};
use rewire_mappers::engine::{GiveUpReason, MapEvent, RunMeta};
use rewire_mappers::{EventSink, Mapping};
use rewire_mrrg::{install_thread_distance_table, DistanceOracle};
use rewire_obs as obs;
use rewire_sim::{verify_semantics, Inputs};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One (kernel, fabric) pair to map.
pub struct Item {
    /// Kernel name.
    pub kernel: &'static str,
    /// Index into [`Prepared::fabrics`].
    pub fabric: usize,
    /// The kernel's DFG.
    pub dfg: Dfg,
    /// MII of the DFG on its fabric.
    pub mii: u32,
}

impl Item {
    /// `kernel@fabric`, the item's name in every report.
    pub fn id(&self, prepared: &Prepared) -> String {
        format!("{}@{}", self.kernel, prepared.fabrics[self.fabric].0)
    }
}

/// Everything the timed passes need, built before timing starts.
pub struct Prepared {
    /// Fabrics by preset name.
    pub fabrics: Vec<(&'static str, Cgra)>,
    /// The items, in workload order.
    pub items: Vec<Item>,
    /// The fabrics' distance oracles, in fabric order.
    pub oracles: Vec<Arc<DistanceOracle>>,
}

/// Wall time of one set-up and of its layers, in seconds.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    /// The whole set-up.
    pub total: f64,
    /// Fabric presets.
    pub arch: f64,
    /// Kernel DFGs.
    pub dfg: f64,
    /// MII of every item.
    pub mii: f64,
    /// Distance oracles.
    pub oracle: f64,
}

/// Runs `f` inside a span and returns its result and wall time in seconds.
fn timed<R>(
    tracer: &mut Tracer,
    name: &'static str,
    item: Option<&str>,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let t = Instant::now();
    let out = tracer.span(name, item, f);
    (out, t.elapsed().as_secs_f64())
}

/// Builds fabrics, DFGs, MIIs and each fabric's distance oracle.
fn prepare(w: &Workload, limit: usize, tracer: &mut Tracer) -> (Prepared, SetupTimes) {
    let start = Instant::now();
    let root = tracer.open("setup", None);
    let (fabrics, arch): (Vec<(&'static str, Cgra)>, f64) =
        timed(tracer, "arch.build", None, || {
            w.fabrics
                .iter()
                .map(|&name| (name, workloads::fabric(name)))
                .collect()
        });
    let (dfgs, dfg): (Vec<(&'static str, Dfg)>, f64) = timed(tracer, "dfg.build", None, || {
        w.kernels
            .iter()
            .map(|&k| {
                let dfg = kernels::by_name(k).unwrap_or_else(|| panic!("unknown kernel {k:?}"));
                (k, dfg)
            })
            .collect()
    });
    let (mut items, mii) = timed(tracer, "dfg.mii", None, || {
        let mut items = Vec::new();
        for (f, (fname, cgra)) in fabrics.iter().enumerate() {
            for (kernel, dfg) in &dfgs {
                let mii = dfg
                    .mii(cgra)
                    .unwrap_or_else(|| panic!("{kernel} cannot map on {fname}: no MII"));
                items.push(Item {
                    kernel,
                    fabric: f,
                    dfg: dfg.clone(),
                    mii,
                });
            }
        }
        items
    });
    items.truncate(limit);
    let (oracles, oracle) = timed(tracer, "mrrg.oracle_build", None, || {
        fabrics
            .iter()
            .map(|(_, cgra)| DistanceOracle::shared(cgra))
            .collect()
    });
    tracer.close(root);
    let times = SetupTimes {
        total: start.elapsed().as_secs_f64(),
        arch,
        dfg,
        mii,
        oracle,
    };
    let prepared = Prepared {
        fabrics,
        items,
        oracles,
    };
    (prepared, times)
}

/// Sets up `reps` times, keeps the last set-up and installs its distance
/// oracles in the calling thread's router cache, where the mapping runs
/// find them. Returns the times of every set-up.
pub fn setup(
    w: &Workload,
    limit: usize,
    reps: usize,
    tracer: &mut Tracer,
) -> (Prepared, Vec<SetupTimes>) {
    let mut times: Vec<SetupTimes> = (1..reps)
        .map(|_| prepare(w, limit, &mut Tracer::new(false)).1)
        .collect();
    let (prepared, t) = prepare(w, limit, tracer);
    times.push(t);
    for oracle in &prepared.oracles {
        install_thread_distance_table(Arc::clone(oracle));
    }
    (prepared, times)
}

/// Why an item failed. An item that no II up to its cap maps has not
/// failed: that is a quality result, counted by `mapped_frac`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    /// A wall-clock ceiling fired, so the result depended on the clock.
    Ceiling,
    /// The mapper panicked.
    Panic,
    /// The mapping failed `Mapping::validate`.
    Validate,
    /// The mapping disagreed with the golden interpreter.
    Verify,
    /// A later pass gave a different mapping than the first.
    Nondeterministic,
}

impl Failure {
    /// Short name used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Failure::Ceiling => "ceiling",
            Failure::Panic => "panic",
            Failure::Validate => "validate",
            Failure::Verify => "verify",
            Failure::Nondeterministic => "nondeterministic",
        }
    }
}

/// The outcome of mapping one item once.
pub struct ItemRun {
    /// Achieved II.
    pub ii: Option<u32>,
    /// The II cap of the search.
    pub max_ii: u32,
    /// Occupied MRRG cells of the mapping (0 when unmapped).
    pub cells: usize,
    /// Whether the exact backend proved the II optimal.
    pub proven: bool,
    /// Label of the exact verdict at the achieved II, `-` otherwise.
    pub verdict: &'static str,
    /// Hash of II, placements and routes.
    pub digest: u64,
    /// Wall time of the `map` call, in seconds.
    pub map_s: f64,
    /// Summed wall time of attempts that ended unrouted, in seconds.
    pub failed_ii_s: f64,
    /// Why the item failed, if it did.
    pub failure: Option<Failure>,
    /// Program work recorded during the call (traced passes only).
    pub work: Work,
    /// The mapping, kept until the correctness gate has seen it.
    pub mapping: Option<Mapping>,
}

/// Engine-event consumer: sums the time of failed IIs and flags any
/// attempt that ran into the wall-clock ceiling.
struct AttemptLog {
    failed_ii_us: u128,
    ceiling_hit: bool,
}

impl EventSink for AttemptLog {
    fn emit(&mut self, _meta: &RunMeta<'_>, event: &MapEvent) {
        match *event {
            MapEvent::AttemptFinished {
                routed, elapsed_us, ..
            } => {
                if !routed {
                    self.failed_ii_us += elapsed_us;
                }
                if elapsed_us >= II_CEILING.as_micros() {
                    self.ceiling_hit = true;
                }
            }
            MapEvent::GaveUp {
                reason: GiveUpReason::TotalBudget,
                ..
            } => self.ceiling_hit = true,
            _ => {}
        }
    }
}

/// Hash of a mapping's II, placements and routes.
fn digest(dfg: &Dfg, mapping: &Mapping) -> u64 {
    let mut h = DefaultHasher::new();
    mapping.ii().hash(&mut h);
    for node in dfg.node_ids() {
        mapping.placement(node).hash(&mut h);
    }
    for edge in dfg.edges() {
        if let Some(route) = mapping.route(edge.id()) {
            route.resources().hash(&mut h);
        }
    }
    h.finish()
}

/// Maps one item. Traced runs also collect the program's work counters.
fn map_item(
    w: &Workload,
    prepared: &Prepared,
    item: &Item,
    map_seed: u64,
    tracer: &mut Tracer,
) -> ItemRun {
    let cgra = &prepared.fabrics[item.fabric].1;
    let (mapper, limits) = workloads::configure(w.mapper, item.mii, map_seed);
    let mut log = AttemptLog {
        failed_ii_us: 0,
        ceiling_hit: false,
    };
    let id = item.id(prepared);
    let before = tracer.enabled().then(|| obs::metrics().snapshot());
    let (outcome, map_s) = {
        let _scope = tracer
            .enabled()
            .then(|| obs::scope(format!("perfbench/{id}")));
        timed(tracer, "map", Some(&id), || {
            catch_unwind(AssertUnwindSafe(|| {
                mapper.map_with_events(&item.dfg, cgra, &limits, &mut log)
            }))
        })
    };
    let work = before.map_or_else(Work::default, |b| {
        Work::between(&b, &obs::metrics().snapshot())
    });
    let mut run = ItemRun {
        ii: None,
        max_ii: limits.max_ii,
        cells: 0,
        proven: false,
        verdict: "-",
        digest: 0,
        map_s,
        failed_ii_s: log.failed_ii_us as f64 / 1e6,
        failure: None,
        work,
        mapping: None,
    };
    match outcome {
        Err(_) => run.failure = Some(Failure::Panic),
        Ok(out) => {
            run.proven = out.stats.proven_optimal();
            if let Some(m) = out.mapping {
                run.ii = Some(m.ii());
                run.cells = m.occupancy().used_cells();
                run.verdict = out.stats.verdict_at(m.ii()).map_or("-", |v| v.label());
                run.digest = digest(&item.dfg, &m);
                run.mapping = Some(m);
            }
            if log.ceiling_hit {
                run.failure = Some(Failure::Ceiling);
            }
        }
    }
    run
}

/// Wall time the correctness gate spent, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckTimes {
    /// `Mapping::validate`.
    pub validate: f64,
    /// `verify_semantics`.
    pub verify: f64,
}

/// Checks every mapping of a pass with `Mapping::validate` and against
/// the golden interpreter, marking failures on the item runs.
fn check(prepared: &Prepared, runs: &mut [ItemRun], seed: u64, tracer: &mut Tracer) -> CheckTimes {
    let mut times = CheckTimes::default();
    let inputs = Inputs::new(seed);
    for (item, run) in prepared.items.iter().zip(runs.iter_mut()) {
        let Some(m) = run.mapping.take() else {
            continue;
        };
        let cgra = &prepared.fabrics[item.fabric].1;
        let id = item.id(prepared);
        let (valid, s) = timed(tracer, "sim.validate", Some(&id), || {
            catch_unwind(AssertUnwindSafe(|| m.validate(&item.dfg, cgra).is_ok())).unwrap_or(false)
        });
        times.validate += s;
        if !valid {
            run.failure = Some(Failure::Validate);
            continue;
        }
        let (same, s) = timed(tracer, "sim.verify", Some(&id), || {
            catch_unwind(AssertUnwindSafe(|| {
                verify_semantics(&item.dfg, cgra, &m, &inputs, VERIFY_ITERATIONS).is_ok()
            }))
            .unwrap_or(false)
        });
        times.verify += s;
        if !same {
            run.failure = Some(Failure::Verify);
        }
    }
    times
}

/// The result of the timed passes.
pub struct Passes {
    /// Item runs by pass, then by item.
    pub runs: Vec<Vec<ItemRun>>,
    /// Cost of the correctness gate (zero when a reference was given).
    pub check: CheckTimes,
}

/// The order in which a client submits the items: a permutation of
/// `0..n` drawn from `seed`.
pub fn request_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    order
}

/// Maps every item once per pass, in `order`, as many whole passes as
/// fit in `budget` (at least one). Item runs are stored in workload order.
/// Every pass must reproduce the mappings of `reference`; without one,
/// the first pass becomes the reference after the correctness gate has
/// checked it against stimulus drawn from the workload seed.
pub fn passes(
    w: &Workload,
    prepared: &Prepared,
    order: &[usize],
    (seed, map_seed): (u64, u64),
    budget: Duration,
    reference: Option<&[ItemRun]>,
    tracer: &mut Tracer,
) -> Passes {
    let start = Instant::now();
    let mut runs: Vec<Vec<ItemRun>> = Vec::new();
    let mut check_times = CheckTimes::default();
    let mut mapping_s = 0.0;
    loop {
        let pass_span = tracer.open("pass", None);
        let mut pass: Vec<(usize, ItemRun)> = order
            .iter()
            .map(|&i| {
                (
                    i,
                    map_item(w, prepared, &prepared.items[i], map_seed, tracer),
                )
            })
            .collect();
        tracer.close(pass_span);
        pass.sort_by_key(|&(i, _)| i);
        let mut pass: Vec<ItemRun> = pass.into_iter().map(|(_, r)| r).collect();
        mapping_s += pass.iter().map(|r| r.map_s).sum::<f64>();
        match reference.or(runs.first().map(Vec::as_slice)) {
            Some(reference) => {
                for (r, f) in pass.iter_mut().zip(reference) {
                    if r.failure.is_none() && (r.digest != f.digest || r.ii != f.ii) {
                        r.failure = Some(Failure::Nondeterministic);
                    }
                }
            }
            None => check_times = check(prepared, &mut pass, seed, tracer),
        }
        for r in &mut pass {
            r.mapping = None;
        }
        runs.push(pass);
        // Stop before a pass that would overrun the budget.
        let per_pass = mapping_s / runs.len() as f64;
        if start.elapsed().as_secs_f64() + per_pass > budget.as_secs_f64() {
            break;
        }
    }
    Passes {
        runs,
        check: check_times,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(routed: bool, elapsed_us: u128) -> MapEvent {
        MapEvent::AttemptFinished {
            ii: 3,
            routed,
            overuse: 0,
            iterations: 0,
            elapsed_us,
        }
    }

    #[test]
    fn attempt_log_sums_failed_iis_and_flags_the_ceiling() {
        let meta = RunMeta {
            mapper: "Rewire",
            kernel: "fir",
            seed: 1,
        };
        let mut log = AttemptLog {
            failed_ii_us: 0,
            ceiling_hit: false,
        };
        log.emit(&meta, &finished(false, 40));
        log.emit(&meta, &finished(true, 5));
        assert_eq!(log.failed_ii_us, 40);
        assert!(!log.ceiling_hit);
        log.emit(&meta, &finished(false, II_CEILING.as_micros()));
        assert!(log.ceiling_hit, "an attempt that reached the ceiling");

        let mut log = AttemptLog {
            failed_ii_us: 0,
            ceiling_hit: false,
        };
        let gave_up = MapEvent::GaveUp {
            reason: GiveUpReason::TotalBudget,
            iis_explored: 1,
            elapsed_us: 1,
        };
        log.emit(&meta, &gave_up);
        assert!(log.ceiling_hit, "the whole-sweep ceiling");
    }

    #[test]
    fn request_order_is_a_seeded_permutation() {
        let a = request_order(50, 1);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(a, request_order(50, 1));
        assert_ne!(a, request_order(50, 2));
    }
}
