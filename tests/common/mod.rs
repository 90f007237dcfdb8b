//! Test support shared by the engine and fan-out differentials.
//!
//! [`legacy_loop`] replays the ascending-II loop every mapper hand-rolled
//! before the shared `IiSearch` engine existed, driving a mapper's public
//! `IiAttempt` directly. Its mapping is therefore the attempt's *raw*
//! result: the routes the search committed, before the engine's fan-out
//! consolidation pass.

use rewire::prelude::*;
use rewire_mappers::engine::{worker_seed, AttemptCtx, Emitter, IiAttempt, RunMeta};
use std::time::Instant;

/// What one [`legacy_loop`] sweep did, and the raw mapping it found.
pub struct LegacyRun {
    pub achieved_ii: Option<u32>,
    pub iis_explored: u32,
    pub remap_iterations: u64,
    pub mapping: Option<Mapping>,
}

/// A faithful replica of the pre-engine outer loop: `iis_explored`
/// incremented per II, the per-II deadline computed at the top of each
/// iteration, the attempt invoked, and the first success returned as is.
pub fn legacy_loop(
    name: &str,
    attempt: &mut dyn IiAttempt,
    dfg: &Dfg,
    cgra: &Cgra,
    limits: &MapLimits,
) -> LegacyRun {
    let mut run = LegacyRun {
        achieved_ii: None,
        iis_explored: 0,
        remap_iterations: 0,
        mapping: None,
    };
    let Some(mii) = dfg.mii(cgra) else {
        return run;
    };
    for ii in mii..=limits.max_ii {
        run.iis_explored += 1;
        let deadline = Instant::now() + limits.ii_time_budget;
        let ctx = AttemptCtx {
            ii,
            mii,
            deadline,
            seed: worker_seed(limits.seed, ii, 0),
            limits,
        };
        let mut sink = Silent;
        let mut emitter = Emitter::new(
            RunMeta {
                mapper: name,
                kernel: dfg.name(),
                seed: limits.seed,
            },
            &mut sink,
        );
        let out = attempt.attempt(dfg, cgra, &ctx, &mut emitter);
        run.remap_iterations += out.iterations;
        if out.mapping.is_some() {
            run.achieved_ii = Some(ii);
            run.mapping = out.mapping;
            return run;
        }
    }
    run
}
