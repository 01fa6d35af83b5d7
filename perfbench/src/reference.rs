//! Pinned reference results: each suite program's value and printed
//! output, recorded once (`perfbench --record-reference`) from a commit
//! where `rg`, `rg-`, `r` and `baseline` agree, and cross-checked against
//! every independently known `Program::expected`.
//!
//! The file is tab-separated: program name, value and output, the last
//! two in Rust `Debug` syntax so that neither holds a tab or a newline.
//! Lines starting with `#` are comments.

use rml::programs::Program;
use rml::{ExecOpts, RunOutcome, Strategy};
use std::collections::BTreeMap;

/// The reference file this benchmark checks against.
pub const PINNED: &str = include_str!("../reference.tsv");

/// One program's expected result, rendered as in the reference file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// The value of `main ()`, in `Debug` syntax.
    pub value: String,
    /// Everything the program printed, in `Debug` syntax.
    pub output: String,
}

impl Expected {
    /// Renders a run's result the way the reference file stores it.
    pub fn of(out: &RunOutcome) -> Expected {
        Expected {
            value: format!("{:?}", out.value),
            output: format!("{:?}", out.output),
        }
    }
}

/// The parsed reference file.
#[derive(Debug, Clone, Default)]
pub struct Reference(BTreeMap<String, Expected>);

impl Reference {
    /// Parses a reference file.
    ///
    /// # Errors
    ///
    /// A line without exactly three tab-separated fields, or a program
    /// listed twice.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let [name, value, output] = fields[..] else {
                return Err(format!("reference line {}: expected 3 fields", n + 1));
            };
            let e = Expected {
                value: value.to_string(),
                output: output.to_string(),
            };
            if map.insert(name.to_string(), e).is_some() {
                return Err(format!("reference line {}: `{name}` listed twice", n + 1));
            }
        }
        Ok(Reference(map))
    }

    /// The expected result of a program.
    pub fn get(&self, program: &str) -> Option<&Expected> {
        self.0.get(program)
    }

    /// Compares a run against the pinned result.
    ///
    /// # Errors
    ///
    /// What differs, or that the program has no reference.
    pub fn verdict(&self, program: &str, out: &RunOutcome) -> Result<(), String> {
        let want = self
            .get(program)
            .ok_or_else(|| format!("no reference for `{program}`"))?;
        let got = Expected::of(out);
        if got == *want {
            Ok(())
        } else {
            Err(format!(
                "got value {} output {}, reference has value {} output {}",
                got.value, got.output, want.value, want.output
            ))
        }
    }
}

/// Records the reference file for `programs`: runs each under `rg`,
/// `rg-`, `r` and `baseline`, and requires the four to agree and to
/// match `Program::expected` where it is known.
///
/// # Errors
///
/// The first compile or run error, disagreement or mismatch.
pub fn record(programs: &[Program]) -> Result<String, String> {
    let mut text = String::from(
        "# program\tvalue\toutput (Debug syntax); written by `perfbench --record-reference`\n",
    );
    for p in programs {
        let mut seen: Vec<(&str, Expected)> = Vec::new();
        for (label, strategy, baseline) in [
            ("rg", Strategy::Rg, false),
            ("rg-", Strategy::RgMinus, false),
            ("r", Strategy::R, false),
            ("baseline", Strategy::Rg, true),
        ] {
            let c = rml::compile_with_basis(p.source, strategy)
                .map_err(|e| format!("{} {label}: {e}", p.name))?;
            let opts = ExecOpts {
                baseline,
                ..ExecOpts::default()
            };
            let out = rml::execute(&c, &opts).map_err(|e| format!("{} {label}: {e}", p.name))?;
            seen.push((label, Expected::of(&out)));
        }
        let (_, first) = &seen[0];
        if let Some((label, e)) = seen.iter().find(|(_, e)| e != first) {
            return Err(format!(
                "{}: {label} gives {e:?}, rg gives {first:?}",
                p.name
            ));
        }
        if let Some(exp) = &p.expected {
            let exp = format!("{exp:?}");
            if exp != first.value {
                return Err(format!("{}: expected {exp}, got {}", p.name, first.value));
            }
        }
        text.push_str(&format!("{}\t{}\t{}\n", p.name, first.value, first.output));
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pinned_file_covers_the_suite_and_agrees_with_every_known_answer() {
        let r = Reference::parse(PINNED).unwrap();
        let suite = rml::programs::suite();
        assert_eq!(r.0.len(), suite.len());
        let mut known = 0;
        for p in &suite {
            let e = r
                .get(p.name)
                .unwrap_or_else(|| panic!("{} missing", p.name));
            if let Some(exp) = &p.expected {
                assert_eq!(format!("{exp:?}"), e.value, "{}", p.name);
                known += 1;
            }
        }
        assert!(known > 0, "no independently known answer was checked");
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Reference::parse("fib\tInt(1)").is_err());
        assert!(Reference::parse("a\tx\ty\na\tx\ty").is_err());
        assert!(Reference::parse("# comment\n\na\tx\ty").is_ok());
    }
}
