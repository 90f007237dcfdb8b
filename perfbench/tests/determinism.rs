//! The benchmark's numbers must be a pure function of (DFG, fabric, seed,
//! caps): two processes mapping the same items with the same seed must
//! agree on every item's result and on the program's work counters.

use std::process::Command;

/// The `digest` lines of one traced run: kernel, fabric, MII, II, cells,
/// verdict, mapping hash and work counters per item.
fn digests(workload: &str, items: &str) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", "1", "--items", items])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true,"), "{last}");
    let lines: Vec<String> = stdout
        .lines()
        .filter(|l| l.starts_with("digest "))
        .map(str::to_string)
        .collect();
    assert!(!lines.is_empty(), "{workload} printed no digest");
    lines
}

#[test]
fn results_and_work_counters_repeat_across_processes() {
    for (workload, items) in [("rewire-8x8", "3"), ("pf-4x4", "4"), ("exact-4x4", "3")] {
        let first = digests(workload, items);
        let second = digests(workload, items);
        assert_eq!(first, second, "{workload} differs between processes");
    }
}
