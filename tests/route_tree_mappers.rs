//! Mapper-level differential for the fan-out routing modes: flipping
//! between [`FanoutMode::PerEdge`] and [`FanoutMode::Tree`] (Steiner-style
//! shared route trees + subtree-delta repair) must never *cost* anything —
//! the tree arm maps every kernel the per-edge arm maps, at an II that is
//! never higher, with per-signal resource footprints that never grow — and
//! must strictly reduce total MRRG usage across the fan-out-heavy kernels
//! it exists for. Both arms must stay golden-model correct. The
//! router-level counterpart (randomized fan-out trees) lives in
//! `crates/mrrg/tests/tree_properties.rs`.
//!
//! The fan-out mode is a process-wide global (like the router sweep mode),
//! so the tests in this binary serialize on a mutex and restore the
//! default before releasing it.

use rewire::prelude::*;
use rewire_fuzz::differential_mappers;
use rewire_mappers::PathFinderConfig;
use rewire_mrrg::{set_default_fanout_mode, FanoutMode, Resource};
use rewire_obs as obs;
use rewire_sim::{verify_semantics, Inputs};
use std::collections::{BTreeMap, HashSet};
use std::sync::Mutex;
use std::time::Duration;

static MODE_LOCK: Mutex<()> = Mutex::new(());

/// Restores the previous default fan-out mode on drop, so a failing
/// assertion cannot leak a mode into the other tests.
struct ModeGuard(FanoutMode);

impl ModeGuard {
    fn set(mode: FanoutMode) -> Self {
        Self(set_default_fanout_mode(mode))
    }
}

impl Drop for ModeGuard {
    fn drop(&mut self) {
        set_default_fanout_mode(self.0);
    }
}

/// Everything one run contributes to the cross-mode comparison: the
/// achieved II, the placements (to detect same-trajectory runs), the
/// per-signal route footprints of every multi-sink signal, and the total
/// occupied MRRG cells.
struct Snapshot {
    achieved_ii: Option<u32>,
    placements: Option<Vec<Option<(PeId, u32)>>>,
    /// node index of each multi-sink signal -> distinct routing cells.
    signal_footprints: BTreeMap<usize, usize>,
    used_cells: usize,
}

/// Distinct routing cells per multi-sink signal: the per-edge arm counts a
/// cell once per branch that rides it, the tree arm once per trunk — so
/// this is exactly the quantity trunk sharing is supposed to shrink.
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

fn snapshot(dfg: &Dfg, out: &MapOutcome) -> Snapshot {
    Snapshot {
        achieved_ii: out.stats.achieved_ii,
        placements: out
            .mapping
            .as_ref()
            .map(|m| dfg.node_ids().map(|n| m.placement(n)).collect()),
        signal_footprints: out
            .mapping
            .as_ref()
            .map(|m| per_signal_footprints(dfg, m))
            .unwrap_or_default(),
        used_cells: out
            .mapping
            .as_ref()
            .map_or(0, |m| m.occupancy().used_cells()),
    }
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
/// map the routable subset of the suite (the `differential_mappers` caps
/// are tuned for coverage of the *search*, not for producing mappings —
/// under them the whole golden suite comes out unmapped, which would make
/// every footprint gate below vacuous). Caps still bind before the wall
/// clock, so runs stay byte-deterministic.
fn routable_mappers() -> Vec<Box<dyn Mapper>> {
    vec![
        Box::new(RewireMapper::with_config(RewireConfig {
            max_restarts_per_ii: 2,
            ..Default::default()
        })),
        Box::new(PathFinderMapper::with_config(PathFinderConfig {
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

/// Cumulative `router.tree_reuse` over every scope (the engine rescopes
/// runs to `mapper/kernel`, so totals must be read as deltas under
/// `MODE_LOCK`).
fn total_tree_reuse() -> u64 {
    let snap = obs::metrics().snapshot();
    snap.scopes
        .values()
        .filter_map(|s| s.counters.get("router.tree_reuse").copied())
        .sum()
}

/// Both arms of one mapper × kernel comparison; `matched` marks pairs that
/// mapped at the same II with identical placements — the precondition for
/// the footprint gates (which [`compare_modes`] applies before returning).
struct Compared {
    per_edge: Snapshot,
    tree: Snapshot,
    matched: bool,
}

/// Runs one mapper on one kernel under both modes and applies the
/// monotonicity + semantics gates.
fn compare_modes(
    mapper: &dyn Mapper,
    name: &str,
    dfg: &Dfg,
    cgra: &Cgra,
    sim_seed: u64,
) -> Option<Compared> {
    let limits = limits_for(dfg, cgra)?;
    let per_edge = {
        let _mode = ModeGuard::set(FanoutMode::PerEdge);
        let out = mapper.map(dfg, cgra, &limits);
        if let Some(m) = &out.mapping {
            verify_semantics(dfg, cgra, m, &Inputs::new(sim_seed), 4)
                .unwrap_or_else(|e| panic!("{} on {name} (per-edge): {e}", mapper.name()));
        }
        snapshot(dfg, &out)
    };
    let tree = {
        let _mode = ModeGuard::set(FanoutMode::Tree);
        let out = mapper.map(dfg, cgra, &limits);
        if let Some(m) = &out.mapping {
            verify_semantics(dfg, cgra, m, &Inputs::new(sim_seed), 4)
                .unwrap_or_else(|e| panic!("{} on {name} (tree): {e}", mapper.name()));
        }
        snapshot(dfg, &out)
    };

    // Tree routing is free: it maps whatever per-edge maps, never at a
    // higher II. (Strictly lower is legal — subtree-delta repair can
    // finish an II the per-edge negotiation gave up on.)
    if let Some(pe_ii) = per_edge.achieved_ii {
        let tree_ii = tree.achieved_ii.unwrap_or_else(|| {
            panic!(
                "{} on {name}: tree mode lost a per-edge mapping",
                mapper.name()
            )
        });
        assert!(
            tree_ii <= pe_ii,
            "{} on {name}: tree II {tree_ii} > per-edge II {pe_ii}",
            mapper.name()
        );
    }

    // Same II + same placements ⇒ the runs routed the same placement
    // problem, and the footprint comparison is apples-to-apples.
    let matched = tree.achieved_ii == per_edge.achieved_ii
        && tree.placements.is_some()
        && tree.placements == per_edge.placements;
    if matched {
        for (signal, tree_cells) in &tree.signal_footprints {
            let pe_cells = per_edge.signal_footprints[signal];
            assert!(
                *tree_cells <= pe_cells,
                "{} on {name}: signal {signal} footprint grew ({tree_cells} > {pe_cells})",
                mapper.name()
            );
        }
        assert!(
            tree.used_cells <= per_edge.used_cells,
            "{} on {name}: total MRRG usage grew ({} > {})",
            mapper.name(),
            tree.used_cells,
            per_edge.used_cells
        );
    }
    Some(Compared {
        per_edge,
        tree,
        matched,
    })
}

/// The full benchmark suite under the capped differential mappers: mostly
/// a *search-coverage* sweep (under these caps the golden suite comes out
/// unmapped — the mapping-capable gates live in
/// `routable_kernels_tree_mode_strictly_saves`), gating that the tree arm
/// never loses a mapping, never raises an II, and stays semantics-clean
/// wherever anything does map.
#[test]
fn kernel_suite_tree_mode_is_monotone_and_semantics_preserving() {
    let _serial = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cgra = presets::paper_4x4_r4();
    let suite = suite_with_unrolled();
    assert!(suite.len() >= 30, "the full benchmark suite");
    let mut comparisons = 0usize;
    for mapper in differential_mappers() {
        for (i, (name, dfg)) in suite.iter().enumerate() {
            if compare_modes(mapper.as_ref(), name, dfg, &cgra, 0x5EED ^ i as u64).is_some() {
                comparisons += 1;
            }
        }
    }
    assert!(comparisons >= 120, "only {comparisons} mode pairs ran");
}

/// The mapping-capable differential: on the kernels the deterministic
/// full-budget configs reliably map, tree mode must match placements and
/// II, shrink per-signal footprints monotonically (gated inside
/// `compare_modes`), actually share trunk cells, and *strictly* reduce
/// total MRRG usage on the fan-out-heavy kernels.
#[test]
fn routable_kernels_tree_mode_strictly_saves() {
    let _serial = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cgra = presets::paper_4x4_r4();
    let reuse_before = total_tree_reuse();
    let mut mapped_pairs = 0usize;
    let (mut suite_pe, mut suite_tree) = (0usize, 0usize);
    let (mut heavy_pe, mut heavy_tree) = (0usize, 0usize);
    for mapper in routable_mappers() {
        for (i, name) in ROUTABLE_KERNELS.iter().enumerate() {
            let dfg = kernels::by_name(name).expect("known kernel");
            let Some(cmp) = compare_modes(mapper.as_ref(), name, &dfg, &cgra, 0x5EED ^ i as u64)
            else {
                continue;
            };
            if !cmp.matched || cmp.tree.placements.is_none() {
                continue;
            }
            mapped_pairs += 1;
            suite_pe += cmp.per_edge.used_cells;
            suite_tree += cmp.tree.used_cells;
            if is_fanout_heavy(name) {
                heavy_pe += cmp.per_edge.used_cells;
                heavy_tree += cmp.tree.used_cells;
            }
        }
    }
    // Vacuity guards: enough pairs must genuinely have mapped with equal
    // placements (measured: Rewire maps all six, PF* three of them), the
    // tree router must actually have shared trunks, and the sharing must
    // pay off strictly on the fan-out-heavy kernels (and in aggregate).
    assert!(mapped_pairs >= 8, "only {mapped_pairs} mapped pairs");
    assert!(
        total_tree_reuse() > reuse_before,
        "tree mode never reused a trunk cell across the routable suite"
    );
    assert!(
        heavy_tree < heavy_pe,
        "no strict MRRG-usage reduction on fan-out-heavy kernels ({heavy_tree} vs {heavy_pe})"
    );
    assert!(
        suite_tree < suite_pe,
        "no strict MRRG-usage reduction across the routable suite ({suite_tree} vs {suite_pe})"
    );
}

/// The remaining paper presets, swept with the capped Rewire and PF*
/// mappers: the never-lose / never-raise-an-II / semantics gates (applied
/// inside `compare_modes`) must hold on every fabric the golden suite
/// pins, not just the baseline.
#[test]
fn preset_sweep_tree_mode_is_monotone() {
    let _serial = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let fabrics: [(&str, Cgra); 3] = [
        ("paper_8x8_r4", presets::paper_8x8_r4()),
        ("paper_4x4_r2", presets::paper_4x4_r2()),
        ("paper_4x4_r1", presets::paper_4x4_r1()),
    ];
    let suite = suite_with_unrolled();
    let mappers = differential_mappers();
    let mut comparisons = 0usize;
    for (preset_name, cgra) in &fabrics {
        for mapper in mappers.iter().take(2) {
            for (i, (name, dfg)) in suite.iter().enumerate() {
                let label = format!("{name}@{preset_name}");
                if compare_modes(mapper.as_ref(), &label, dfg, cgra, 0x5EED ^ i as u64).is_some() {
                    comparisons += 1;
                }
            }
        }
    }
    assert!(comparisons >= 120, "only {comparisons} mode pairs ran");
}

/// The five-mapper differential on the checked-in fuzz corpus: the hub
/// reproducers in the corpus replay under both modes with the same
/// monotone guarantees (the corpus scenarios are small enough that the
/// exact SAT backend participates too).
#[test]
fn fuzz_corpus_tree_mode_is_monotone() {
    let _serial = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fuzz/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("fuzz/corpus exists")
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "dfg"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 5, "corpus holds at least 5 artifacts");
    let mut mappers = differential_mappers();
    mappers.push(Box::new(ExactSatMapper::new()));
    assert!(mappers.len() >= 5, "all five mappers participate");
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("readable artifact");
        let artifact = rewire_fuzz::Artifact::from_text(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let scenario = rewire_fuzz::Scenario::from_parts(
            artifact.seed,
            artifact.dfg.clone(),
            artifact.spec.clone(),
        );
        let label = path.file_name().unwrap().to_string_lossy().to_string();
        for mapper in &mappers {
            let _ = compare_modes(
                mapper.as_ref(),
                &label,
                &scenario.dfg,
                &scenario.cgra,
                scenario.input_seed(),
            );
        }
    }
}

/// The divergence artifacts (note tagged `subtree-delta`) pin the class
/// of scenarios the tree router exists for: the capped per-edge PF* gives
/// up at an II the tree arm maps, and the SAT oracle certifies that II is
/// genuinely feasible — so the per-edge failure is a router limitation,
/// not an infeasible ask. Replaying each artifact must reproduce all three
/// facts, plus golden-model semantics of the tree mapping.
#[test]
fn corpus_divergence_artifacts_need_tree_routing() {
    let _serial = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fuzz/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("fuzz/corpus exists")
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "dfg"))
        .collect();
    paths.sort();
    let pf = || {
        PathFinderMapper::with_config(PathFinderConfig {
            max_iterations_per_ii: 60,
            max_full_evals: 6,
            ..Default::default()
        })
    };
    let mut found = 0;
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("readable artifact");
        let artifact = rewire_fuzz::Artifact::from_text(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if !artifact.note.contains("subtree-delta") {
            continue;
        }
        found += 1;
        let label = path.file_name().unwrap().to_string_lossy().to_string();
        let s = rewire_fuzz::Scenario::from_parts(
            artifact.seed,
            artifact.dfg.clone(),
            artifact.spec.clone(),
        );
        let mii = s
            .dfg
            .mii(&s.cgra)
            .expect("divergence artifacts are feasible");
        let limits = MapLimits::fast()
            .with_seed(s.mapper_seed())
            .with_ii_time_budget(Duration::from_secs(600))
            .with_max_ii(mii + 1);
        let per_edge = {
            let _mode = ModeGuard::set(FanoutMode::PerEdge);
            pf().map(&s.dfg, &s.cgra, &limits).stats.achieved_ii
        };
        let (tree, mapping) = {
            let _mode = ModeGuard::set(FanoutMode::Tree);
            let out = pf().map(&s.dfg, &s.cgra, &limits);
            (out.stats.achieved_ii, out.mapping)
        };
        assert_eq!(
            tree,
            Some(artifact.max_ii),
            "{label}: tree arm must map at the recorded II"
        );
        assert!(
            per_edge.is_none_or(|p| p > artifact.max_ii),
            "{label}: per-edge arm reached II {per_edge:?} <= {} — the \
             divergence this artifact pins has disappeared",
            artifact.max_ii
        );
        verify_semantics(
            &s.dfg,
            &s.cgra,
            mapping.as_ref().unwrap(),
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

/// Prints the per-kernel tree-vs-per-edge II and MRRG-usage table that
/// EXPERIMENTS.md quotes. Ignored by default (it is a measurement, not a
/// gate); regenerate with:
///
/// ```text
/// cargo test --test route_tree_mappers -- --ignored --nocapture
/// ```
#[test]
#[ignore = "measurement for EXPERIMENTS.md, not a gate"]
fn print_usage_table() {
    let _serial = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cgra = presets::paper_4x4_r4();
    let mapper = &routable_mappers()[0]; // deterministic full-budget Rewire
    println!("| kernel | II (pe/tree) | cells (pe) | cells (tree) | saved |");
    println!("|---|---|---:|---:|---:|");
    let (mut tp, mut tt) = (0usize, 0usize);
    for (i, (name, dfg)) in suite_with_unrolled().iter().enumerate() {
        let Some(cmp) = compare_modes(mapper.as_ref(), name, dfg, &cgra, 0x5EED ^ i as u64) else {
            println!("| {name} | infeasible | - | - | - |");
            continue;
        };
        if !cmp.matched || cmp.tree.placements.is_none() {
            println!(
                "| {name} | unmapped or diverged (ii {:?}/{:?}) | - | - | - |",
                cmp.per_edge.achieved_ii, cmp.tree.achieved_ii
            );
            continue;
        }
        let (pe, tree) = (&cmp.per_edge, &cmp.tree);
        tp += pe.used_cells;
        tt += tree.used_cells;
        let saved = 100.0 * (pe.used_cells - tree.used_cells) as f64 / pe.used_cells.max(1) as f64;
        println!(
            "| {name} | {}/{} | {} | {} | {saved:.1} % |",
            pe.achieved_ii.unwrap_or(0),
            tree.achieved_ii.unwrap_or(0),
            pe.used_cells,
            tree.used_cells
        );
    }
    let saved = 100.0 * (tp - tt) as f64 / tp.max(1) as f64;
    println!("| **total** | | **{tp}** | **{tt}** | **{saved:.1} %** |");
}

/// Hunts the fuzz seed space for scenarios where the capped per-edge PF*
/// gives up at an II the tree router maps (the subtree-delta rescue), then
/// shrinks each hit and prints a ready-to-commit corpus artifact. Ignored
/// by default (it is a corpus-mining tool, not a gate); run with:
///
/// ```text
/// cargo test --test route_tree_mappers hunt -- --ignored --nocapture
/// ```
#[test]
#[ignore = "corpus-mining tool, not a gate"]
fn hunt_tree_vs_per_edge_divergence() {
    let _serial = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let pf = || {
        PathFinderMapper::with_config(PathFinderConfig {
            max_iterations_per_ii: 60,
            max_full_evals: 6,
            ..Default::default()
        })
    };
    // Some(tree_ii) when the tree arm strictly beats the per-edge arm.
    let divergence = |dfg: &Dfg, cgra: &Cgra, mapper_seed: u64| -> Option<(Option<u32>, u32)> {
        let mii = dfg.mii(cgra)?;
        let limits = MapLimits::fast()
            .with_seed(mapper_seed)
            .with_ii_time_budget(Duration::from_secs(600))
            .with_max_ii(mii + 1);
        let pe = {
            let _mode = ModeGuard::set(FanoutMode::PerEdge);
            pf().map(dfg, cgra, &limits).stats.achieved_ii
        };
        let tr = {
            let _mode = ModeGuard::set(FanoutMode::Tree);
            pf().map(dfg, cgra, &limits).stats.achieved_ii
        };
        match (pe, tr) {
            (None, Some(t)) => Some((None, t)),
            (Some(p), Some(t)) if t < p => Some((Some(p), t)),
            _ => None,
        }
    };
    let mut hits = 0;
    for seed in 0..12_000u64 {
        let s = rewire_fuzz::Scenario::generate(seed);
        let Some((pe, tree_ii)) = divergence(&s.dfg, &s.cgra, s.mapper_seed()) else {
            continue;
        };
        hits += 1;
        println!(
            "== seed {seed}: per-edge {pe:?}, tree II {tree_ii} ({})",
            s.summary()
        );
        // Shrink while the divergence (tree maps, per-edge does not, at
        // the *original* mapper seed) persists.
        let mapper_seed = s.mapper_seed();
        let shrunk = rewire_fuzz::shrink(
            &s.dfg,
            &s.spec,
            &mut |d, spec| {
                spec.build()
                    .ok()
                    .and_then(|c| divergence(d, &c, mapper_seed))
                    .is_some()
            },
            400,
        );
        let cgra = shrunk.spec.build().expect("shrunk spec builds");
        let (pe, tree_ii) = divergence(&shrunk.dfg, &cgra, mapper_seed).expect("still diverges");
        // The SAT oracle must certify the scenario is genuinely feasible
        // at the II the tree arm reaches.
        let exact = ExactSatMapper::new().map(
            &shrunk.dfg,
            &cgra,
            &MapLimits::fast()
                .with_seed(mapper_seed)
                .with_ii_time_budget(Duration::from_secs(600))
                .with_max_ii(tree_ii),
        );
        let feasible = exact.stats.achieved_ii == Some(tree_ii);
        let artifact = rewire_fuzz::Artifact {
            seed,
            spec: shrunk.spec.clone(),
            max_ii: tree_ii,
            expect: rewire_fuzz::Expectation::Pass,
            note: format!(
                "fan-out hub: per-edge PF* gives up ({pe:?}) at II {tree_ii}; \
                 subtree-delta tree routing maps it (SAT-confirmed feasible: {feasible})"
            ),
            shrink_steps: shrunk.steps.len() as u32,
            dfg: shrunk.dfg.clone(),
        };
        println!(
            "--- artifact ({} shrink steps, sat-feasible {feasible}) ---",
            shrunk.steps.len()
        );
        print!("{}", artifact.to_text());
        println!("--- end ---");
        if hits >= 6 {
            break;
        }
    }
    println!("{hits} divergent seeds found");
}
