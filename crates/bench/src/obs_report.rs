//! Aggregation behind the `rewire-report` binary: folds a JSONL
//! [`MapEvent`] trace and any number of metrics snapshots into per-run
//! summaries (attempts, rounds, II achieved) joined with the `mapper/kernel`
//! scoped counters and span timings the instrumented mappers recorded.
//!
//! [`MapEvent`]: rewire_mappers::MapEvent

use rewire_mappers::MapStats;
use rewire_obs::json::{self, Json};
use rewire_obs::Snapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// One run's aggregate, rebuilt from its trace lines.
///
/// The engine ascends from MII, so the first `ii_started` value of a run
/// *is* its MII — the trace needs no separate MII record.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunSummary {
    /// Mapper display name.
    pub mapper: String,
    /// Kernel name.
    pub kernel: String,
    /// Base RNG seed.
    pub seed: u64,
    /// MII (the first II the engine attempted); 0 if no II was started.
    pub mii: u32,
    /// Achieved II (`None` = the run gave up).
    pub achieved_ii: Option<u32>,
    /// Why the run gave up (trace label), if it did.
    pub gave_up: Option<String>,
    /// `ii_started` events seen.
    pub iis_started: u32,
    /// `attempt_finished` events seen.
    pub attempts: u32,
    /// `negotiation_round` events seen.
    pub rounds: u64,
    /// Total single-node remapping iterations over all attempts.
    pub iterations: u64,
    /// Total wall-clock of the run in µs (from the terminal event).
    pub elapsed_us: u128,
}

impl RunSummary {
    /// Rebuilds a [`MapStats`] so the report can reuse its `Display`
    /// one-liner — the same formatting path `rewire-map` prints.
    pub fn to_stats(&self) -> MapStats {
        MapStats {
            mapper: self.mapper.clone(),
            kernel: self.kernel.clone(),
            mii: self.mii,
            achieved_ii: self.achieved_ii,
            iis_explored: self.iis_started,
            remap_iterations: self.iterations,
            negotiation_rounds: self.rounds,
            elapsed: Duration::from_micros(self.elapsed_us.min(u64::MAX as u128) as u64),
            verdicts: Vec::new(),
        }
    }

    /// The metric scope this run's counters were recorded under.
    pub fn scope(&self) -> String {
        format!("{}/{}", self.mapper, self.kernel)
    }
}

fn field_str<'a>(obj: &'a Json, name: &str, line: usize) -> Result<&'a str, String> {
    obj.get(name)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("line {line}: missing string field {name:?}"))
}

fn field_u64(obj: &Json, name: &str, line: usize) -> Result<u64, String> {
    obj.get(name)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("line {line}: missing numeric field {name:?}"))
}

/// Parses a JSONL trace into per-run summaries, sorted by
/// `(mapper, kernel, seed)`. Blank lines are skipped; any malformed line is
/// an error (a truncated trace should fail the report, not thin it out).
pub fn parse_trace(text: &str) -> Result<Vec<RunSummary>, String> {
    let mut runs: BTreeMap<(String, String, u64), RunSummary> = BTreeMap::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let obj = json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let mapper = field_str(&obj, "mapper", lineno)?.to_string();
        let kernel = field_str(&obj, "kernel", lineno)?.to_string();
        let seed = field_u64(&obj, "seed", lineno)?;
        let kind = field_str(&obj, "type", lineno)?.to_string();
        let run = runs
            .entry((mapper.clone(), kernel.clone(), seed))
            .or_insert_with(|| RunSummary {
                mapper,
                kernel,
                seed,
                ..RunSummary::default()
            });
        match kind.as_str() {
            "ii_started" => {
                let ii = field_u64(&obj, "ii", lineno)? as u32;
                if run.iis_started == 0 {
                    run.mii = ii;
                }
                run.iis_started += 1;
            }
            "negotiation_round" => run.rounds += 1,
            "attempt_finished" => {
                run.attempts += 1;
                run.iterations += field_u64(&obj, "iterations", lineno)?;
            }
            "mapped" => {
                run.achieved_ii = Some(field_u64(&obj, "ii", lineno)? as u32);
                run.elapsed_us = field_u64(&obj, "elapsed_us", lineno)? as u128;
            }
            "gave_up" => {
                run.gave_up = Some(field_str(&obj, "reason", lineno)?.to_string());
                run.elapsed_us = field_u64(&obj, "elapsed_us", lineno)? as u128;
            }
            other => return Err(format!("line {lineno}: unknown event type {other:?}")),
        }
    }
    Ok(runs.into_values().collect())
}

/// Parses and merges metrics snapshot files (the counters are additive, so
/// snapshots from separate processes merge into one view).
pub fn load_snapshots(texts: &[(String, String)]) -> Result<Snapshot, String> {
    let mut merged = Snapshot::default();
    for (name, text) in texts {
        let snap = Snapshot::from_json(text).map_err(|e| format!("{name}: {e}"))?;
        merged.merge(&snap);
    }
    Ok(merged)
}

fn counter(snap: &Snapshot, scope: &str, name: &str) -> u64 {
    snap.scopes
        .get(scope)
        .and_then(|s| s.counters.get(name))
        .copied()
        .unwrap_or(0)
}

/// Renders the per-run table, one `MapStats` line per run, and (when a
/// snapshot is present) the per-scope span time breakdown.
pub fn render_report(runs: &[RunSummary], snap: Option<&Snapshot>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<14} {:>4} {:>4} {:>5} {:>7} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "mapper",
        "kernel",
        "II",
        "MII",
        "IIs",
        "rounds",
        "iters",
        "time_ms",
        "expansions",
        "cost_evals",
        "rip_ups"
    );
    for run in runs {
        let ii = run
            .achieved_ii
            .map_or_else(|| "-".to_string(), |ii| ii.to_string());
        let scope = run.scope();
        let (expansions, cost_evals, rip_ups) = snap.map_or((0, 0, 0), |s| {
            (
                counter(s, &scope, "router.expansions"),
                counter(s, &scope, "router.cost_evals"),
                counter(s, &scope, "pf.rip_ups"),
            )
        });
        let _ = writeln!(
            out,
            "{:<8} {:<14} {:>4} {:>4} {:>5} {:>7} {:>10} {:>10.1} {:>12} {:>12} {:>10}",
            run.mapper,
            run.kernel,
            ii,
            run.mii,
            run.iis_started,
            run.rounds,
            run.iterations,
            run.elapsed_us as f64 / 1000.0,
            expansions,
            cost_evals,
            rip_ups
        );
    }
    out.push('\n');
    for run in runs {
        let _ = writeln!(out, "{}", run.to_stats());
    }
    if let Some(snap) = snap {
        let scope_names: std::collections::BTreeSet<String> =
            runs.iter().map(RunSummary::scope).collect();
        let present: Vec<&String> = scope_names
            .iter()
            .filter(|name| snap.scopes.contains_key(name.as_str()))
            .collect();
        if !present.is_empty() {
            let _ = writeln!(out, "\ntime breakdown (per scope):");
        }
        for scope_name in present {
            let scope = &snap.scopes[scope_name.as_str()];
            let _ = writeln!(out, "  {scope_name}");
            for (path, span) in &scope.spans {
                let _ = writeln!(
                    out,
                    "    {:<28} {:>6}x {:>10.1} ms",
                    path,
                    span.count,
                    span.total_ms()
                );
            }
            // Gauges carry point-in-time sizes (fabric PEs, distance-table
            // bytes) so memory growth is visible next to the timings.
            for (name, v) in &scope.gauges {
                let _ = writeln!(out, "    {name:<28} {v:>18} (gauge)");
            }
            // Histogram tails, estimated from the log2 buckets: the p99 of
            // e.g. route lengths or attempt times is what regressions show
            // up in long before the mean moves.
            for (name, h) in &scope.histograms {
                let q = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.1}"));
                let _ = writeln!(
                    out,
                    "    {:<28} {:>6}x p50 {:>8} p90 {:>8} p99 {:>8} max {:>8}",
                    name,
                    h.count,
                    q(h.p50()),
                    q(h.p90()),
                    q(h.p99()),
                    h.max.map_or_else(|| "-".to_string(), |m| m.to_string()),
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = concat!(
        r#"{"mapper":"PF*","kernel":"fir","seed":7,"type":"ii_started","ii":3}"#,
        "\n",
        r#"{"mapper":"PF*","kernel":"fir","seed":7,"type":"negotiation_round","ii":3,"iteration":10,"ill_nodes":2,"overuse":4}"#,
        "\n",
        r#"{"mapper":"PF*","kernel":"fir","seed":7,"type":"attempt_finished","ii":3,"routed":false,"overuse":4,"iterations":50,"elapsed_us":900}"#,
        "\n",
        r#"{"mapper":"PF*","kernel":"fir","seed":7,"type":"ii_started","ii":4}"#,
        "\n",
        r#"{"mapper":"PF*","kernel":"fir","seed":7,"type":"attempt_finished","ii":4,"routed":true,"overuse":0,"iterations":73,"elapsed_us":800}"#,
        "\n",
        r#"{"mapper":"PF*","kernel":"fir","seed":7,"type":"mapped","ii":4,"iis_explored":2,"elapsed_us":12300}"#,
        "\n",
    );

    #[test]
    fn trace_aggregates_into_one_run() {
        let runs = parse_trace(TRACE).unwrap();
        assert_eq!(runs.len(), 1);
        let r = &runs[0];
        assert_eq!(r.mapper, "PF*");
        assert_eq!(r.kernel, "fir");
        assert_eq!(r.seed, 7);
        assert_eq!(r.mii, 3, "first ii_started is the MII");
        assert_eq!(r.achieved_ii, Some(4));
        assert_eq!(r.iis_started, 2);
        assert_eq!(r.attempts, 2);
        assert_eq!(r.rounds, 1);
        assert_eq!(r.iterations, 123);
        assert_eq!(r.elapsed_us, 12_300);
        assert_eq!(
            r.to_stats().to_string(),
            "PF*/fir: II 4 (MII 3) after 2 IIs, 123 iterations, 1 rounds, 12.3 ms"
        );
    }

    #[test]
    fn malformed_lines_fail_with_position() {
        let bad = format!("{TRACE}this is not json\n");
        let err = parse_trace(&bad).unwrap_err();
        assert!(err.starts_with("line 7:"), "{err}");
        let missing = r#"{"mapper":"PF*","kernel":"fir","type":"ii_started","ii":3}"#;
        let err = parse_trace(missing).unwrap_err();
        assert!(err.contains("seed"), "{err}");
    }

    #[test]
    fn gave_up_runs_are_reported_as_failures() {
        let trace = concat!(
            r#"{"mapper":"SA","kernel":"atax","seed":1,"type":"ii_started","ii":3}"#,
            "\n",
            r#"{"mapper":"SA","kernel":"atax","seed":1,"type":"gave_up","reason":"max_ii_reached","iis_explored":18,"elapsed_us":950000}"#,
            "\n",
        );
        let runs = parse_trace(trace).unwrap();
        assert_eq!(runs[0].achieved_ii, None);
        assert_eq!(runs[0].gave_up.as_deref(), Some("max_ii_reached"));
        let line = runs[0].to_stats().to_string();
        assert!(line.contains("failed"), "{line}");
    }

    #[test]
    fn report_joins_metric_scopes() {
        let runs = parse_trace(TRACE).unwrap();
        let snap_json = r#"{"version":1,"scopes":{"PF*/fir":{"counters":{"pf.rip_ups":9,"router.expansions":4321,"router.cost_evals":765},"gauges":{"engine.fabric_pes":64,"router.distance_table_bytes":16384},"histograms":{},"spans":{"run":{"count":1,"total_ns":12300000}}}}}"#;
        let snap = load_snapshots(&[("m.json".to_string(), snap_json.to_string())]).unwrap();
        let report = render_report(&runs, Some(&snap));
        assert!(report.contains("4321"), "{report}");
        assert!(
            report.contains("cost_evals") && report.contains("765"),
            "{report}"
        );
        assert!(report.contains("PF*/fir: II 4"), "{report}");
        assert!(report.contains("time breakdown"), "{report}");
        assert!(report.contains("run"), "{report}");
        assert!(report.contains("engine.fabric_pes"), "{report}");
        assert!(
            report.contains("router.distance_table_bytes") && report.contains("16384"),
            "{report}"
        );
    }

    #[test]
    fn report_renders_histogram_quantiles() {
        let runs = parse_trace(TRACE).unwrap();
        // Values {1, 2, 3, 900}: log2 buckets [(1,1),(2,2),(10,1)]. The
        // interpolated quantiles are pinned by the snapshot unit tests:
        // p50 = 2.25, p90 = p99 = 767.5.
        let snap_json = r#"{"version":1,"scopes":{"PF*/fir":{"counters":{},"gauges":{},"histograms":{"pf.route_len":{"count":4,"sum":906,"min":1,"max":900,"buckets":[[1,1],[2,2],[10,1]]}},"spans":{}}}}"#;
        let snap = load_snapshots(&[("m.json".to_string(), snap_json.to_string())]).unwrap();
        let report = render_report(&runs, Some(&snap));
        assert!(report.contains("pf.route_len"), "{report}");
        assert!(report.contains("p50"), "{report}");
        assert!(report.contains("2.2"), "{report}");
        assert!(report.contains("767.5"), "{report}");
        assert!(report.contains("900"), "{report}");
    }

    #[test]
    fn snapshots_merge_across_files() {
        let a = r#"{"version":1,"scopes":{"PF*/fir":{"counters":{"pf.rip_ups":1},"gauges":{},"histograms":{},"spans":{}}}}"#;
        let b = r#"{"version":1,"scopes":{"PF*/fir":{"counters":{"pf.rip_ups":2},"gauges":{},"histograms":{},"spans":{}}}}"#;
        let snap = load_snapshots(&[
            ("a.json".to_string(), a.to_string()),
            ("b.json".to_string(), b.to_string()),
        ])
        .unwrap();
        assert_eq!(counter(&snap, "PF*/fir", "pf.rip_ups"), 3);
        let err = load_snapshots(&[("c.json".to_string(), "{}".to_string())]).unwrap_err();
        assert!(err.starts_with("c.json:"), "{err}");
    }
}
