//! Self-contained failure artifacts: everything needed to replay one
//! scenario, in one plain-text file.
//!
//! Format (version 1): a key–value header followed by the embedded DFG in
//! the standard `rewire_dfg` text format. `#` comments and blank lines are
//! allowed anywhere before the DFG block.
//!
//! ```text
//! # rewire-fuzz artifact v1
//! seed 42
//! arch 3x3 regs=1 banks=2 memcols=0
//! max-ii 6
//! expect pass
//! note shrunk from 11 nodes; register-pressure hard case
//! shrink-steps 9
//! dfg random-42
//! node v0 load
//! node v1 add
//! edge v0 v1
//! ```
//!
//! `expect pass` artifacts are regression pins: the scenario once
//! misbehaved (or is a hand-minimized hard case) and must now clear the
//! whole oracle stack. `expect fail <check>` artifacts pin a *live* bug:
//! replay must still reproduce a violation of the named check, so the
//! artifact keeps failing loudly until the bug is fixed (then flips to
//! `expect pass`).

use crate::oracle::CheckKind;
use rewire_arch::random::CgraSpec;
use rewire_dfg::Dfg;
use std::error::Error;
use std::fmt;

/// What replaying an artifact must observe.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Expectation {
    /// The full oracle stack passes.
    Pass,
    /// The named check still fires.
    Fail(CheckKind),
}

impl fmt::Display for Expectation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expectation::Pass => f.write_str("pass"),
            Expectation::Fail(c) => write!(f, "fail {c}"),
        }
    }
}

/// One persisted fuzz scenario.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// The originating fuzz seed (0 for hand-written cases).
    pub seed: u64,
    /// The fabric.
    pub spec: CgraSpec,
    /// The `max_ii` the replay sweeps to.
    pub max_ii: u32,
    /// What replay must observe.
    pub expect: Expectation,
    /// Free-form provenance (original violation, why the case is hard).
    pub note: String,
    /// Shrink steps that produced it (0 for hand-written cases).
    pub shrink_steps: u32,
    /// The kernel.
    pub dfg: Dfg,
}

/// Error from [`Artifact::from_text`].
#[derive(Clone, Debug)]
pub struct ParseArtifactError(String);

impl fmt::Display for ParseArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fuzz artifact: {}", self.0)
    }
}

impl Error for ParseArtifactError {}

impl Artifact {
    /// Serialises to the v1 text format. Byte-stable: the same artifact
    /// always renders identically (corpus files are diffable).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "# rewire-fuzz artifact v1");
        let _ = writeln!(s, "seed {}", self.seed);
        let _ = writeln!(s, "arch {}", self.spec);
        let _ = writeln!(s, "max-ii {}", self.max_ii);
        let _ = writeln!(s, "expect {}", self.expect);
        if !self.note.is_empty() {
            let _ = writeln!(s, "note {}", self.note);
        }
        let _ = writeln!(s, "shrink-steps {}", self.shrink_steps);
        s.push_str(&self.dfg.to_text());
        s
    }

    /// Parses the v1 text format.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArtifactError`] on a malformed header, unknown key,
    /// missing mandatory field, or unparsable embedded DFG.
    pub fn from_text(text: &str) -> Result<Self, ParseArtifactError> {
        let err = |m: String| ParseArtifactError(m);
        let mut seed = None;
        let mut spec = None;
        let mut max_ii = None;
        let mut expect = None;
        let mut note = String::new();
        let mut shrink_steps = 0u32;
        let mut dfg_start = None;

        for (i, line) in text.lines().enumerate() {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            if trimmed.starts_with("dfg ") {
                dfg_start = Some(i);
                break;
            }
            let (key, value) = trimmed
                .split_once(' ')
                .ok_or_else(|| err(format!("line {}: expected `key value`", i + 1)))?;
            let value = value.trim();
            match key {
                "seed" => {
                    seed = Some(
                        value
                            .parse()
                            .map_err(|_| err(format!("bad seed `{value}`")))?,
                    )
                }
                "arch" => spec = Some(value.parse::<CgraSpec>().map_err(|e| err(e.to_string()))?),
                "max-ii" => {
                    max_ii = Some(
                        value
                            .parse()
                            .map_err(|_| err(format!("bad max-ii `{value}`")))?,
                    )
                }
                "expect" => {
                    expect = Some(match value {
                        "pass" => Expectation::Pass,
                        other => {
                            let check = other
                                .strip_prefix("fail ")
                                .and_then(CheckKind::from_label)
                                .ok_or_else(|| err(format!("bad expect `{other}`")))?;
                            Expectation::Fail(check)
                        }
                    })
                }
                "note" => note = value.to_string(),
                "shrink-steps" => {
                    shrink_steps = value
                        .parse()
                        .map_err(|_| err(format!("bad shrink-steps `{value}`")))?
                }
                other => return Err(err(format!("unknown key `{other}`"))),
            }
        }

        let dfg_start = dfg_start.ok_or_else(|| err("missing embedded DFG".into()))?;
        let dfg_text: String = text.lines().skip(dfg_start).collect::<Vec<_>>().join("\n");
        let dfg = Dfg::from_text(&dfg_text).map_err(|e| err(format!("embedded DFG: {e}")))?;

        Ok(Artifact {
            seed: seed.ok_or_else(|| err("missing `seed`".into()))?,
            spec: spec.ok_or_else(|| err("missing `arch`".into()))?,
            max_ii: max_ii.ok_or_else(|| err("missing `max-ii`".into()))?,
            expect: expect.ok_or_else(|| err("missing `expect`".into()))?,
            note,
            shrink_steps,
            dfg,
        })
    }

    /// Canonical corpus file name: `seed<NNNN>-<check|pass>.dfg`.
    pub fn file_name(&self) -> String {
        match self.expect {
            Expectation::Pass => format!("seed{:04}-pass.dfg", self.seed),
            Expectation::Fail(c) => format!("seed{:04}-{}.dfg", self.seed, c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewire_arch::OpKind;

    fn sample() -> Artifact {
        let mut dfg = Dfg::new("mini");
        let a = dfg.add_node("a", OpKind::Load);
        let b = dfg.add_node("b", OpKind::Add);
        dfg.add_edge(a, b, 0).unwrap();
        dfg.add_edge(b, b, 2).unwrap();
        Artifact {
            seed: 42,
            spec: "3x3 regs=1 banks=2 memcols=0".parse().unwrap(),
            max_ii: 6,
            expect: Expectation::Pass,
            note: "register-pressure hard case".into(),
            shrink_steps: 9,
            dfg,
        }
    }

    #[test]
    fn text_round_trips() {
        let a = sample();
        let parsed = Artifact::from_text(&a.to_text()).unwrap();
        assert_eq!(parsed.seed, a.seed);
        assert_eq!(parsed.spec, a.spec);
        assert_eq!(parsed.max_ii, a.max_ii);
        assert_eq!(parsed.expect, a.expect);
        assert_eq!(parsed.note, a.note);
        assert_eq!(parsed.shrink_steps, a.shrink_steps);
        assert_eq!(parsed.dfg.to_text(), a.dfg.to_text());
        // Re-serialisation is byte-stable.
        assert_eq!(parsed.to_text(), a.to_text());
    }

    #[test]
    fn fail_expectation_round_trips() {
        let mut a = sample();
        a.expect = Expectation::Fail(CheckKind::Semantic);
        let parsed = Artifact::from_text(&a.to_text()).unwrap();
        assert_eq!(parsed.expect, Expectation::Fail(CheckKind::Semantic));
        assert_eq!(parsed.file_name(), "seed0042-semantic.dfg");
        assert_eq!(sample().file_name(), "seed0042-pass.dfg");
    }

    #[test]
    fn comments_and_blanks_are_tolerated() {
        let text = "# header comment\n\nseed 1\narch 2x2 regs=1\n\nmax-ii 4\nexpect pass\ndfg t\nnode x add\n";
        let a = Artifact::from_text(text).unwrap();
        assert_eq!(a.seed, 1);
        assert_eq!(a.dfg.num_nodes(), 1);
        assert_eq!(a.shrink_steps, 0);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",                                                                  // empty
            "seed 1\n",                                                          // no dfg
            "seed x\narch 2x2\nmax-ii 4\nexpect pass\ndfg t\nnode x add\n",      // bad seed
            "seed 1\narch 2x2\nmax-ii 4\nexpect nope\ndfg t\nnode x add\n",      // bad expect
            "seed 1\narch 2x2\nmax-ii 4\nexpect pass\nwat\ndfg t\nnode x add\n", // bad key line
            "seed 1\nmax-ii 4\nexpect pass\ndfg t\nnode x add\n",                // missing arch
            "seed 1\narch 2x2\nmax-ii 4\nexpect pass\ndfg t\nnode x wat\n",      // bad dfg op
        ] {
            assert!(Artifact::from_text(bad).is_err(), "accepted: {bad:?}");
        }
        let e = Artifact::from_text("").unwrap_err();
        assert!(e.to_string().contains("bad fuzz artifact"));
    }

    #[test]
    fn oversized_fabrics_are_rejected_at_parse_time() {
        // Used to wrap to a 34463x34463 fabric that OOM-killed the mapper.
        for arch in ["99999x99999", "65x64 regs=1", "2x2 regs=300"] {
            let text = format!("seed 1\narch {arch}\nmax-ii 4\nexpect pass\ndfg t\nnode x add\n");
            let e = Artifact::from_text(&text).unwrap_err();
            assert!(e.to_string().contains("bad CGRA spec"), "{arch}: {e}");
        }
    }
}
