//! The repository benchmark: maps fixed (kernel, fabric) item sets through
//! the public `Mapper` API, one item at a time on one thread, checks every
//! mapping, and prints its metrics as one JSON object on the last line of
//! standard output.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--map-seed <n>] [--items <k>]
//! ```
//!
//! `--seed` draws the order in which the items are submitted and the
//! golden-model stimulus; `--map-seed` is forwarded to `MapLimits::seed`.
//! `--items` keeps only the first k items. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` prints the per-layer metrics and writes
//! the harness spans to `out/spans-<workload>-<seed>.jsonl` in this
//! package. Exit code 0 on success, 1 when a mapping failed the
//! correctness gate, panicked, hit a wall-clock ceiling or changed between
//! passes, 2 on a usage error.

mod run;
mod trace;
mod workloads;

use run::{Passes, Prepared, SetupTimes};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;
use trace::{ratio, Tracer, Work};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--map-seed <n>] [--items <k>]";

/// Every per-layer metric the traced run prints: name, unit.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("arch.build_s", "s"),
    ("dfg.build_s", "s"),
    ("dfg.mii_s", "s"),
    ("mrrg.oracle_build_s", "s"),
    ("router.distance_table_bytes", "bytes"),
    ("router.route_calls", "count"),
    ("router.expansions", "count"),
    ("router.expansions_per_call", "count"),
    ("router.pruned_states", "count"),
    ("router.route_s", "s"),
    ("router.route_ok_frac", "frac"),
    ("router.route_share", "frac"),
    ("engine.attempts", "count"),
    ("engine.iis_explored", "count"),
    ("engine.failed_ii_s", "s"),
    ("pf.placements", "count"),
    ("pf.rip_ups", "count"),
    ("pf.evictions", "count"),
    ("pf.place_s", "s"),
    ("pf.negotiate_s", "s"),
    ("pf.initial_s", "s"),
    ("rewire.clusters_attempted", "count"),
    ("rewire.cluster_growths", "count"),
    ("rewire.restarts", "count"),
    ("rewire.tuples_generated", "count"),
    ("rewire.verifications", "count"),
    ("rewire.verify_success_frac", "frac"),
    ("rewire.combinations_pruned", "count"),
    ("rewire.amend_s", "s"),
    ("rewire.amend_self_s", "s"),
    ("rewire.amend_self_share", "frac"),
    ("exact.vars", "count"),
    ("exact.clauses", "count"),
    ("exact.encode_s", "s"),
    ("exact.solve_s", "s"),
    ("exact.encode_solve_share", "frac"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("exact.sat", "count"),
    ("exact.unsat", "count"),
    ("exact.unknown", "count"),
    ("exact.proven_frac", "frac"),
    ("fanout.consolidations", "count"),
    ("fanout.cells_saved", "count"),
    ("fanout.consolidate_s", "s"),
    ("sim.validate_s", "s"),
    ("sim.verify_s", "s"),
    ("trace.overhead_frac", "frac"),
];

/// Counters the determinism digest carries next to each item's result.
const DIGEST_COUNTERS: &[&str] = &[
    "router.expansions",
    "rewire.tuples_generated",
    "pf.rip_ups",
    "sat.conflicts",
];

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

struct Args {
    workload: String,
    seed: u64,
    map_seed: u64,
    seconds: u64,
    trace: bool,
    items: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: workloads::DEFAULT_SEED,
        map_seed: workloads::DEFAULT_MAP_SEED,
        seconds: 10,
        trace: false,
        items: usize::MAX,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--map-seed" => args.map_seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value {value:?} for {flag}")),
                }
            }
            "--items" => args.items = value.parse().map_err(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.items == 0 {
        return Err("--items must be at least 1".into());
    }
    Ok(args)
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Each item's median `map` time over the passes, in seconds.
fn item_times(p: &Passes) -> Vec<f64> {
    (0..p.runs[0].len())
        .map(|i| median(p.runs.iter().map(|pass| pass[i].map_s).collect()))
        .collect()
}

/// Peak resident set size in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(prepared: &Prepared, setups: &[SetupTimes], p: &Passes) -> Vec<Metric> {
    let first = &p.runs[0];
    let times = item_times(p);
    let n = first.len() as f64;
    let log_ratio: f64 = prepared
        .items
        .iter()
        .zip(first)
        .map(|(item, r)| (r.ii.unwrap_or(r.max_ii + 1) as f64 / item.mii as f64).ln())
        .sum();
    let mapped: Vec<usize> = (0..first.len())
        .filter(|&i| first[i].ii.is_some())
        .collect();
    let cells: usize = mapped.iter().map(|&i| first[i].cells).sum();
    let nodes: usize = mapped
        .iter()
        .map(|&i| prepared.items[i].dfg.num_nodes())
        .sum();
    vec![
        (
            "setup_s",
            median(setups.iter().map(|s| s.total).collect()),
            "s",
        ),
        ("compile_s", times.iter().sum(), "s"),
        ("map_ms_p50", median(times) * 1e3, "ms"),
        ("ii_over_mii_geomean", (log_ratio / n).exp(), "ratio"),
        ("mapped_frac", mapped.len() as f64 / n, "frac"),
        (
            "cells_per_node",
            ratio(cells as f64, nodes as f64),
            "cells/node",
        ),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// Per-layer values of one traced pass.
fn pass_layers(pass: &[run::ItemRun]) -> BTreeMap<&'static str, f64> {
    let mut w = Work::default();
    for r in pass {
        w.absorb(&r.work);
    }
    let compile_s: f64 = pass.iter().map(|r| r.map_s).sum();
    let c = |name: &str| w.count(name) as f64;
    let route_s = c("router.route_ns") / 1e9;
    let amend_s = w.secs("amend");
    let amend_self_s = (amend_s - route_s).max(0.0);
    let exact_s = w.secs("exact.encode") + w.secs("exact.solve");
    let mut m = BTreeMap::new();
    for name in [
        "router.route_calls",
        "router.expansions",
        "router.pruned_states",
        "engine.attempts",
        "engine.iis_explored",
        "pf.placements",
        "pf.rip_ups",
        "pf.evictions",
        "rewire.clusters_attempted",
        "rewire.cluster_growths",
        "rewire.restarts",
        "rewire.tuples_generated",
        "rewire.verifications",
        "rewire.combinations_pruned",
        "exact.vars",
        "exact.clauses",
        "sat.conflicts",
        "sat.decisions",
        "sat.propagations",
        "exact.sat",
        "exact.unsat",
        "exact.unknown",
        "fanout.consolidations",
        "fanout.cells_saved",
    ] {
        m.insert(name, c(name));
    }
    m.insert(
        "router.expansions_per_call",
        ratio(c("router.expansions"), c("router.route_calls")),
    );
    m.insert("router.route_s", route_s);
    m.insert(
        "router.route_ok_frac",
        ratio(c("router.route_ok"), c("router.route_calls")),
    );
    m.insert("router.route_share", ratio(route_s, compile_s));
    m.insert(
        "engine.failed_ii_s",
        pass.iter().map(|r| r.failed_ii_s).sum(),
    );
    m.insert("pf.place_s", w.secs("place"));
    m.insert("pf.negotiate_s", w.secs("negotiate"));
    m.insert("pf.initial_s", w.secs("initial"));
    m.insert(
        "rewire.verify_success_frac",
        ratio(
            c("rewire.verification_successes"),
            c("rewire.verifications"),
        ),
    );
    m.insert("rewire.amend_s", amend_s);
    m.insert("rewire.amend_self_s", amend_self_s);
    m.insert("rewire.amend_self_share", ratio(amend_self_s, compile_s));
    m.insert("exact.encode_s", w.secs("exact.encode"));
    m.insert("exact.solve_s", w.secs("exact.solve"));
    m.insert("exact.encode_solve_share", ratio(exact_s, compile_s));
    m.insert("fanout.consolidate_s", w.secs("consolidate_fanout"));
    m
}

fn per_layer(
    prepared: &Prepared,
    setups: &[SetupTimes],
    plain: &Passes,
    traced: &Passes,
) -> Vec<Metric> {
    let per_pass: Vec<BTreeMap<&str, f64>> = traced.runs.iter().map(|p| pass_layers(p)).collect();
    let setup = |f: fn(&SetupTimes) -> f64| median(setups.iter().map(f).collect());
    let first = &plain.runs[0];
    let proven = first.iter().filter(|r| r.proven).count() as f64;
    let plain_s: f64 = item_times(plain).iter().sum();
    let traced_s: f64 = item_times(traced).iter().sum();
    let mut values: BTreeMap<&str, f64> = per_pass[0]
        .keys()
        .map(|&k| (k, median(per_pass.iter().map(|m| m[k]).collect())))
        .collect();
    values.insert("arch.build_s", setup(|s| s.arch));
    values.insert("dfg.build_s", setup(|s| s.dfg));
    values.insert("dfg.mii_s", setup(|s| s.mii));
    values.insert("mrrg.oracle_build_s", setup(|s| s.oracle));
    let oracle_bytes: usize = prepared.oracles.iter().map(|o| o.heap_bytes()).sum();
    values.insert("router.distance_table_bytes", oracle_bytes as f64);
    values.insert("exact.proven_frac", proven / first.len() as f64);
    values.insert("sim.validate_s", plain.check.validate);
    values.insert("sim.verify_s", plain.check.verify);
    values.insert("trace.overhead_frac", traced_s / plain_s - 1.0);
    assert_eq!(
        values.len(),
        LAYER_METRICS.len(),
        "computed per-layer metrics differ from LAYER_METRICS"
    );
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| (name, values[name], unit))
        .collect()
}

/// One stdout line per item of the first pass: result and, when traced,
/// work counters. Identical across runs of the same seed.
fn print_digests(prepared: &Prepared, plain: &Passes, traced: Option<&Passes>) {
    for (i, (item, r)) in prepared.items.iter().zip(&plain.runs[0]).enumerate() {
        let mut line = format!(
            "digest {} mii={} ii={} cells={} verdict={} hash={:016x}",
            item.id(prepared),
            item.mii,
            r.ii.map_or("-".to_string(), |ii| ii.to_string()),
            r.cells,
            r.verdict,
            r.digest,
        );
        if let Some(t) = traced {
            for name in DIGEST_COUNTERS {
                line.push_str(&format!(" {name}={}", t.runs[0][i].work.count(name)));
            }
        }
        println!("{line}");
    }
}

fn to_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workloads::workload(&args.workload) else {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {:?}; one of {names:?}", args.workload);
        return ExitCode::from(2);
    };
    let mut tracer = Tracer::new(args.trace);
    let (prepared, setups) = run::setup(w, args.items, SETUP_REPS, &mut tracer);
    let budget = Duration::from_secs(args.seconds);
    let order = run::request_order(prepared.items.len(), args.seed);
    let seeds = (args.seed, args.map_seed);
    let (metrics, all) = if args.trace {
        let mut off = Tracer::new(false);
        let plain = run::passes(w, &prepared, &order, seeds, budget / 2, None, &mut off);
        let reference = Some(plain.runs[0].as_slice());
        let traced = run::passes(
            w,
            &prepared,
            &order,
            seeds,
            budget / 2,
            reference,
            &mut tracer,
        );
        print_digests(&prepared, &plain, Some(&traced));
        (
            per_layer(&prepared, &setups, &plain, &traced),
            vec![plain, traced],
        )
    } else {
        let mut off = Tracer::new(false);
        let plain = run::passes(w, &prepared, &order, seeds, budget, None, &mut off);
        print_digests(&prepared, &plain, None);
        (end_to_end(&prepared, &setups, &plain), vec![plain])
    };

    for (k, pass) in all.iter().flat_map(|p| &p.runs).enumerate() {
        eprintln!(
            "pass {k}: {:.4} s",
            pass.iter().map(|r| r.map_s).sum::<f64>()
        );
    }
    for (item, t) in prepared.items.iter().zip(item_times(&all[0])) {
        eprintln!("time {} {:.1} ms", item.id(&prepared), t * 1e3);
    }
    let runs = all.iter().flat_map(|p| p.runs.iter().flatten());
    let errors = runs.clone().filter(|r| r.failure.is_some()).count();
    let attempted = runs.count();
    let correct = errors == 0;
    for (i, item) in prepared.items.iter().enumerate() {
        let mut passes = all.iter().flat_map(|p| &p.runs);
        if let Some(f) = passes.find_map(|pass| pass[i].failure) {
            eprintln!("item {} failed: {}", item.id(&prepared), f.label());
        }
    }
    eprintln!(
        "{}: {} items x {} passes, seed {}, map seed {}",
        w.name,
        prepared.items.len(),
        all.iter().map(|p| p.runs.len()).sum::<usize>(),
        args.seed,
        args.map_seed
    );

    if args.trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-{}.jsonl", w.name, args.seed);
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, tracer.to_jsonl()))
        {
            eprintln!("cannot write {path}: {e}");
        }
    }
    println!("{}", to_json(correct, attempted, errors, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
