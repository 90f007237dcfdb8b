//! Mapper-level differential for Steiner-tree fan-out: the engine's
//! consolidation pass (shared route trees per multi-sink signal, see
//! `crates/mappers/src/fanout.rs`) must never *cost* anything. Against the
//! raw mapping each mapper's `IiAttempt` returns — the routes its search
//! committed, replayed through the pre-engine loop in `tests/common` — the
//! engine's mapping has the same II and placements, per-signal resource
//! footprints that never grow, and golden-model semantics. It must
//! strictly reduce total MRRG usage across the fan-out-heavy kernels it
//! exists for, and it must be exactly `consolidate_fanout` applied to the
//! raw mapping. The router-level counterpart (randomized fan-out trees)
//! lives in `crates/mrrg/tests/tree_properties.rs`.
//!
//! No test here touches process-global state other than the metrics
//! registry, whose counters are read only from run scopes unique to the
//! reading test, so the tests run in parallel.

mod common;

use rewire::prelude::*;
use rewire_mappers::{
    consolidate_fanout, ExactAttempt, ExhaustiveAttempt, ExhaustiveMapper, IiAttempt,
    PathFinderConfig, SaConfig,
};
use rewire_mrrg::Resource;
use rewire_obs as obs;
use rewire_sim::{verify_semantics, Inputs};
use std::collections::{BTreeMap, HashSet};
use std::time::Duration;

/// A mapper under test, kept concrete so its `IiAttempt` can also be
/// driven outside the engine.
enum Subject {
    Rewire(RewireMapper),
    PathFinder(PathFinderMapper),
    Sa(SaMapper),
    Exhaustive(ExhaustiveMapper),
    Exact(ExactSatMapper),
}

impl Subject {
    fn mapper(&self) -> &dyn Mapper {
        match self {
            Subject::Rewire(m) => m,
            Subject::PathFinder(m) => m,
            Subject::Sa(m) => m,
            Subject::Exhaustive(m) => m,
            Subject::Exact(m) => m,
        }
    }

    /// The raw mapping: a fresh attempt driven by the pre-engine loop.
    fn raw_mapping(&self, dfg: &Dfg, cgra: &Cgra, limits: &MapLimits) -> Option<Mapping> {
        let mut attempt: Box<dyn IiAttempt + '_> = match self {
            Subject::Rewire(m) => Box::new(m.ii_attempt(limits)),
            Subject::PathFinder(m) => Box::new(m.ii_attempt(limits)),
            Subject::Sa(m) => Box::new(m.ii_attempt(limits)),
            Subject::Exhaustive(m) => Box::new(ExhaustiveAttempt::new(m)),
            Subject::Exact(m) => Box::new(ExactAttempt::new(m)),
        };
        let name = self.mapper().name();
        common::legacy_loop(name, attempt.as_mut(), dfg, cgra, limits).mapping
    }
}

/// The four fuzz differential mappers, with the deterministic caps of
/// `rewire_fuzz::differential_mappers`.
fn differential_subjects() -> Vec<Subject> {
    vec![
        Subject::Rewire(RewireMapper::with_config(RewireConfig {
            max_cluster_attempts: 6,
            max_restarts_per_ii: 1,
            ..Default::default()
        })),
        Subject::PathFinder(PathFinderMapper::with_config(PathFinderConfig {
            max_iterations_per_ii: 60,
            max_full_evals: 6,
            ..Default::default()
        })),
        Subject::Sa(SaMapper::with_config(SaConfig {
            max_iterations_per_ii: 150,
            max_restarts_per_ii: 1,
            ..Default::default()
        })),
        Subject::Exhaustive(
            ExhaustiveMapper::new().with_max_search_nodes(rewire_fuzz::EXHAUSTIVE_SEARCH_CAP),
        ),
    ]
}

/// What one mapping contributes to the comparison: its II, placements,
/// the route footprint of every multi-sink signal, and the total occupied
/// MRRG cells.
struct Snapshot {
    achieved_ii: Option<u32>,
    placements: Option<Vec<Option<(PeId, u32)>>>,
    /// node index of each multi-sink signal -> distinct routing cells.
    signal_footprints: BTreeMap<usize, usize>,
    used_cells: usize,
}

/// Distinct routing cells per multi-sink signal: independent per-edge
/// routes count a cell once per branch that rides it, a shared tree once
/// per trunk — so this is exactly the quantity consolidation shrinks.
fn per_signal_footprints(dfg: &Dfg, mapping: &Mapping) -> BTreeMap<usize, usize> {
    let mut out = BTreeMap::new();
    for node in dfg.node_ids() {
        let routed: Vec<_> = dfg
            .out_edges(node)
            .filter_map(|e| mapping.route(e.id()))
            .collect();
        if routed.len() < 2 {
            continue;
        }
        let cells: HashSet<Resource> = routed
            .iter()
            .flat_map(|r| r.resources().iter().copied())
            .collect();
        out.insert(node.index(), cells.len());
    }
    out
}

fn snapshot(dfg: &Dfg, mapping: Option<&Mapping>) -> Snapshot {
    Snapshot {
        achieved_ii: mapping.map(Mapping::ii),
        placements: mapping.map(|m| dfg.node_ids().map(|n| m.placement(n)).collect()),
        signal_footprints: mapping
            .map(|m| per_signal_footprints(dfg, m))
            .unwrap_or_default(),
        used_cells: mapping.map_or(0, |m| m.occupancy().used_cells()),
    }
}

/// Everything that defines a mapping: II, placements and every route.
type Layout = (u32, Vec<Option<(PeId, u32)>>, Vec<Option<Route>>);

fn layout(dfg: &Dfg, m: &Mapping) -> Layout {
    (
        m.ii(),
        dfg.node_ids().map(|n| m.placement(n)).collect(),
        dfg.edges().map(|e| m.route(e.id()).cloned()).collect(),
    )
}

/// Deterministic caps bind, the wall clock never does.
fn limits_for(dfg: &Dfg, cgra: &Cgra) -> Option<MapLimits> {
    let mii = dfg.mii(cgra)?;
    Some(
        MapLimits::fast()
            .with_seed(0xFACADE)
            .with_ii_time_budget(Duration::from_secs(600))
            .with_max_ii(mii + 1),
    )
}

/// Deterministically-capped mappers with enough search budget to actually
/// map the routable subset of the suite (the differential caps are tuned
/// for coverage of the *search*, not for producing mappings — under them
/// the whole golden suite comes out unmapped, which would make every
/// footprint gate below vacuous). Caps still bind before the wall clock,
/// so runs stay byte-deterministic.
fn routable_subjects() -> Vec<Subject> {
    vec![
        Subject::Rewire(RewireMapper::with_config(RewireConfig {
            max_restarts_per_ii: 2,
            ..Default::default()
        })),
        Subject::PathFinder(PathFinderMapper::with_config(PathFinderConfig {
            max_full_evals: 40,
            ..Default::default()
        })),
    ]
}

/// Kernels at least one mapping-capable config reliably maps on
/// `paper_4x4_r4` at `mii + 1` (measured; the rest of the suite needs
/// higher IIs than the deterministic sweep explores and is covered by the
/// capped monotonicity tests instead).
const ROUTABLE_KERNELS: [&str; 6] = [
    "gramschmidt",
    "jacobi2d",
    "stencil3d",
    "fir",
    "sobel",
    "kmeans",
];

/// The benchmark suite plus unroll-by-2 variants of the fan-out-heavy
/// kernels the acceptance gate names.
fn suite_with_unrolled() -> Vec<(String, Dfg)> {
    let mut suite: Vec<(String, Dfg)> = kernels::all()
        .into_iter()
        .map(|(n, d)| (n.to_string(), d))
        .collect();
    for base in FANOUT_HEAVY_BASES {
        let name = format!("{base}(u)");
        let dfg = kernels::by_name(&name).expect("unroll variant exists");
        suite.push((name, dfg));
    }
    suite
}

/// Kernels whose broadcast hubs (taps, shared pixel loads, stencil
/// centers) the tree router must visibly consolidate.
const FANOUT_HEAVY_BASES: [&str; 3] = ["fir", "conv2d", "stencil3d"];

fn is_fanout_heavy(name: &str) -> bool {
    FANOUT_HEAVY_BASES
        .iter()
        .any(|b| name == *b || name.strip_suffix("(u)") == Some(b))
}

/// Sum of the counter `name` over the metric scopes `keep` selects. The
/// engine scopes each run to `mapper/kernel`, so a test that gives its
/// kernels names of its own reads only what its own runs recorded.
fn scoped_counter(keep: impl Fn(&str) -> bool, name: &str) -> u64 {
    let snap = obs::metrics().snapshot();
    snap.scopes
        .iter()
        .filter(|(scope, _)| keep(scope))
        .filter_map(|(_, s)| s.counters.get(name).copied())
        .sum()
}

/// One mapper × kernel comparison: the raw attempt mapping and the
/// engine's consolidated one.
struct Compared {
    raw: Snapshot,
    tree: Snapshot,
}

/// Maps one kernel with one mapper through the engine and through the
/// pre-engine loop, and applies the monotonicity, semantics and
/// byte-identity gates. `None` when the kernel has no MII on `cgra`.
fn compare(
    subject: &Subject,
    name: &str,
    dfg: &Dfg,
    cgra: &Cgra,
    sim_seed: u64,
) -> Option<Compared> {
    let limits = limits_for(dfg, cgra)?;
    let mapper = subject.mapper();
    let label = format!("{} on {name}", mapper.name());
    let engine = mapper.map(dfg, cgra, &limits);
    // A size guard in front of the engine refuses some instances before
    // any II is explored; there is no attempt to replay then.
    let raw = if engine.stats.iis_explored == 0 {
        None
    } else {
        subject.raw_mapping(dfg, cgra, &limits)
    };
    let tree = engine.mapping;
    for (arm, m) in [("raw", &raw), ("consolidated", &tree)] {
        if let Some(m) = m {
            verify_semantics(dfg, cgra, m, &Inputs::new(sim_seed), 4)
                .unwrap_or_else(|e| panic!("{label} ({arm}): {e}"));
        }
    }

    // Consolidation is exactly the post-pass over the raw mapping.
    if let Some(raw) = &raw {
        let mut consolidated = raw.clone();
        consolidate_fanout(dfg, cgra, &mut consolidated);
        let engine_layout = tree.as_ref().map(|m| layout(dfg, m));
        assert!(
            engine_layout == Some(layout(dfg, &consolidated)),
            "{label}: the engine's mapping is not the consolidated raw mapping"
        );
    }

    let (raw, tree) = (snapshot(dfg, raw.as_ref()), snapshot(dfg, tree.as_ref()));
    // Tree routing is free: same II, same placements, no signal's
    // footprint grows and neither does total MRRG usage.
    assert_eq!(tree.achieved_ii, raw.achieved_ii, "{label}: II changed");
    assert_eq!(
        tree.placements, raw.placements,
        "{label}: placements changed"
    );
    for (signal, tree_cells) in &tree.signal_footprints {
        let raw_cells = raw.signal_footprints[signal];
        assert!(
            *tree_cells <= raw_cells,
            "{label}: signal {signal} footprint grew ({tree_cells} > {raw_cells})"
        );
    }
    assert!(
        tree.used_cells <= raw.used_cells,
        "{label}: total MRRG usage grew ({} > {})",
        tree.used_cells,
        raw.used_cells
    );
    Some(Compared { raw, tree })
}

/// The full benchmark suite under the capped differential mappers: mostly
/// a *search-coverage* sweep (under these caps the golden suite comes out
/// unmapped — the mapping-capable gates live in
/// `routable_kernels_tree_mode_strictly_saves`), gating that tree routing
/// keeps the II and placements and stays semantics-clean wherever
/// anything does map.
#[test]
fn kernel_suite_tree_mode_is_monotone_and_semantics_preserving() {
    let cgra = presets::paper_4x4_r4();
    let suite = suite_with_unrolled();
    assert!(suite.len() >= 30, "the full benchmark suite");
    let mut comparisons = 0usize;
    for subject in differential_subjects() {
        for (i, (name, dfg)) in suite.iter().enumerate() {
            if compare(&subject, name, dfg, &cgra, 0x5EED ^ i as u64).is_some() {
                comparisons += 1;
            }
        }
    }
    assert!(comparisons >= 120, "only {comparisons} pairs ran");
}

/// Suffix that gives the routable test's kernels metric scopes of their
/// own.
const ROUTABLE_TAG: &str = "@routable";

/// The mapping-capable differential: on the kernels the deterministic
/// full-budget configs reliably map, consolidation must keep placements
/// and II, shrink per-signal footprints monotonically (gated inside
/// `compare`), actually share trunk cells, and *strictly* reduce total
/// MRRG usage on the fan-out-heavy kernels.
#[test]
fn routable_kernels_tree_mode_strictly_saves() {
    let cgra = presets::paper_4x4_r4();
    let mut mapped_pairs = 0usize;
    let (mut suite_raw, mut suite_tree) = (0usize, 0usize);
    let (mut heavy_raw, mut heavy_tree) = (0usize, 0usize);
    for subject in routable_subjects() {
        for (i, name) in ROUTABLE_KERNELS.iter().enumerate() {
            let mut dfg = kernels::by_name(name).expect("known kernel");
            dfg.set_name(format!("{name}{ROUTABLE_TAG}"));
            let Some(cmp) = compare(&subject, name, &dfg, &cgra, 0x5EED ^ i as u64) else {
                continue;
            };
            if cmp.tree.placements.is_none() {
                continue;
            }
            mapped_pairs += 1;
            suite_raw += cmp.raw.used_cells;
            suite_tree += cmp.tree.used_cells;
            if is_fanout_heavy(name) {
                heavy_raw += cmp.raw.used_cells;
                heavy_tree += cmp.tree.used_cells;
            }
        }
    }
    // Vacuity guards: enough pairs must genuinely have mapped (measured:
    // Rewire maps all six, PF* three of them), the tree router must
    // actually have shared trunks, and the sharing must pay off strictly
    // on the fan-out-heavy kernels (and in aggregate).
    assert!(mapped_pairs >= 8, "only {mapped_pairs} mapped pairs");
    let reuse = scoped_counter(|s| s.ends_with(ROUTABLE_TAG), "router.tree_reuse");
    assert!(
        reuse > 0,
        "tree routing never reused a trunk cell across the routable suite"
    );
    assert!(
        heavy_tree < heavy_raw,
        "no strict MRRG-usage reduction on fan-out-heavy kernels ({heavy_tree} vs {heavy_raw})"
    );
    assert!(
        suite_tree < suite_raw,
        "no strict MRRG-usage reduction across the routable suite ({suite_tree} vs {suite_raw})"
    );
}

/// The remaining paper presets, swept with the capped Rewire and PF*
/// mappers: the same-II / same-placement / monotone / semantics gates
/// (applied inside `compare`) must hold on every fabric the golden suite
/// pins, not just the baseline.
#[test]
fn preset_sweep_tree_mode_is_monotone() {
    let fabrics: [(&str, Cgra); 3] = [
        ("paper_8x8_r4", presets::paper_8x8_r4()),
        ("paper_4x4_r2", presets::paper_4x4_r2()),
        ("paper_4x4_r1", presets::paper_4x4_r1()),
    ];
    let suite = suite_with_unrolled();
    let subjects = differential_subjects();
    let mut comparisons = 0usize;
    for (preset_name, cgra) in &fabrics {
        for subject in subjects.iter().take(2) {
            for (i, (name, dfg)) in suite.iter().enumerate() {
                let label = format!("{name}@{preset_name}");
                if compare(subject, &label, dfg, cgra, 0x5EED ^ i as u64).is_some() {
                    comparisons += 1;
                }
            }
        }
    }
    assert!(comparisons >= 120, "only {comparisons} pairs ran");
}

fn corpus_artifacts() -> Vec<(String, rewire_fuzz::Artifact)> {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fuzz/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("fuzz/corpus exists")
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "dfg"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("readable artifact");
            let artifact = rewire_fuzz::Artifact::from_text(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let label = path.file_name().unwrap().to_string_lossy().to_string();
            (label, artifact)
        })
        .collect()
}

/// The five-mapper differential on the checked-in fuzz corpus: the hub
/// reproducers in the corpus replay with the same guarantees (the corpus
/// scenarios are small enough that the exact SAT backend participates
/// too).
#[test]
fn fuzz_corpus_tree_mode_is_monotone() {
    let artifacts = corpus_artifacts();
    assert!(artifacts.len() >= 5, "corpus holds at least 5 artifacts");
    let mut subjects = differential_subjects();
    subjects.push(Subject::Exact(ExactSatMapper::new()));
    assert!(subjects.len() >= 5, "all five mappers participate");
    for (label, artifact) in artifacts {
        let scenario = rewire_fuzz::Scenario::from_parts(
            artifact.seed,
            artifact.dfg.clone(),
            artifact.spec.clone(),
        );
        for subject in &subjects {
            let _ = compare(
                subject,
                &label,
                &scenario.dfg,
                &scenario.cgra,
                scenario.input_seed(),
            );
        }
    }
}

/// The divergence artifacts (note tagged `subtree-delta`) pin the class
/// of scenarios PF*'s subtree-delta repair exists for: negotiation alone
/// gives up at the recorded II, the transactional repair completes it,
/// and the SAT oracle certifies that II is genuinely feasible. Replaying
/// each artifact must map at the recorded II with the repair's
/// `router.subtree_reroutes` published in the run's own scope (it is
/// published only when the repair completed the II), pass the golden
/// model, and be SAT-confirmed.
#[test]
fn corpus_divergence_artifacts_need_tree_routing() {
    let pf = PathFinderMapper::with_config(PathFinderConfig {
        max_iterations_per_ii: 60,
        max_full_evals: 6,
        ..Default::default()
    });
    let mut found = 0;
    for (label, artifact) in corpus_artifacts() {
        if !artifact.note.contains("subtree-delta") {
            continue;
        }
        found += 1;
        let mut s = rewire_fuzz::Scenario::from_parts(
            artifact.seed,
            artifact.dfg.clone(),
            artifact.spec.clone(),
        );
        // A kernel name of its own gives this run a metric scope of its own.
        s.dfg.set_name(format!("divergence/{label}"));
        let mii = s
            .dfg
            .mii(&s.cgra)
            .expect("divergence artifacts are feasible");
        let limits = MapLimits::fast()
            .with_seed(s.mapper_seed())
            .with_ii_time_budget(Duration::from_secs(600))
            .with_max_ii(mii + 1);
        let out = pf.map(&s.dfg, &s.cgra, &limits);
        assert_eq!(
            out.stats.achieved_ii,
            Some(artifact.max_ii),
            "{label}: PF* must map at the recorded II"
        );
        let scope = format!("{}/{}", pf.name(), s.dfg.name());
        let reroutes = scoped_counter(|sc| sc == scope, "router.subtree_reroutes");
        assert!(
            reroutes > 0,
            "{label}: the subtree-delta repair did not complete the II — \
             the rescue this artifact pins has disappeared"
        );
        verify_semantics(
            &s.dfg,
            &s.cgra,
            out.mapping.as_ref().unwrap(),
            &Inputs::new(s.input_seed()),
            8,
        )
        .unwrap_or_else(|e| panic!("{label}: tree mapping fails the golden model: {e}"));
        // The SAT oracle certifies the tree II is genuinely feasible.
        let exact = ExactSatMapper::new().map(
            &s.dfg,
            &s.cgra,
            &MapLimits::fast()
                .with_seed(s.mapper_seed())
                .with_ii_time_budget(Duration::from_secs(600))
                .with_max_ii(artifact.max_ii),
        );
        assert_eq!(
            exact.stats.achieved_ii,
            Some(artifact.max_ii),
            "{label}: SAT backend must confirm feasibility at the tree II"
        );
    }
    assert!(
        found >= 3,
        "only {found} divergence artifacts in the corpus"
    );
}

/// Prints the per-kernel MRRG-usage table EXPERIMENTS.md quotes: the raw
/// attempt mapping against the engine's consolidated one. Ignored by
/// default (it is a measurement, not a gate); regenerate with:
///
/// ```text
/// cargo test --test route_tree_mappers -- --ignored --nocapture
/// ```
#[test]
#[ignore = "measurement for EXPERIMENTS.md, not a gate"]
fn print_usage_table() {
    let cgra = presets::paper_4x4_r4();
    let subject = &routable_subjects()[0]; // deterministic full-budget Rewire
    println!("| kernel | II | cells (raw) | cells (tree) | saved |");
    println!("|---|---|---:|---:|---:|");
    let (mut tr, mut tt) = (0usize, 0usize);
    for (i, (name, dfg)) in suite_with_unrolled().iter().enumerate() {
        let Some(cmp) = compare(subject, name, dfg, &cgra, 0x5EED ^ i as u64) else {
            println!("| {name} | infeasible | - | - | - |");
            continue;
        };
        let Some(ii) = cmp.tree.achieved_ii else {
            println!("| {name} | unmapped | - | - | - |");
            continue;
        };
        let (raw, tree) = (cmp.raw.used_cells, cmp.tree.used_cells);
        tr += raw;
        tt += tree;
        let saved = 100.0 * (raw - tree) as f64 / raw.max(1) as f64;
        println!("| {name} | {ii} | {raw} | {tree} | {saved:.1} % |");
    }
    let saved = 100.0 * (tr - tt) as f64 / tr.max(1) as f64;
    println!("| **total** | | **{tr}** | **{tt}** | **{saved:.1} %** |");
}
