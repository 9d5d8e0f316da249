//! Shared command-line parsing for every experiment binary.
//!
//! Historically each binary in `src/bin/` re-scanned `std::env::args()` for
//! its flags; this module is the single parser they all route through now.
//! It understands boolean flags (`--paper`, `--parallel`) and valued flags
//! (`--seed 7`, `--scenario all`), validates that every argument is a flag
//! the caller declared, and exposes the two derived settings
//! ([`EngineKind`], [`ExperimentScale`]) the per-figure binaries share.

use crate::{EngineKind, ExperimentScale};

/// Parsed command-line arguments.
#[derive(Debug, Clone)]
pub struct CliArgs {
    args: Vec<String>,
}

impl CliArgs {
    /// Parses the process command line (skipping the binary name).
    pub fn parse() -> Self {
        Self::from_vec(std::env::args().skip(1).collect())
    }

    /// Builds from an explicit argument vector (tests).
    pub fn from_vec(args: Vec<String>) -> Self {
        Self { args }
    }

    /// Returns `true` when the boolean flag is present.
    pub fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    /// The value following a valued flag, if the flag is present.
    ///
    /// # Errors
    ///
    /// Returns an error when the flag is present but the value is missing.
    pub fn value_of(&self, flag: &str) -> Result<Option<&str>, String> {
        match self.args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => match self.args.get(i + 1) {
                Some(v) if !v.starts_with("--") => Ok(Some(v)),
                _ => Err(format!("flag {flag} requires a value")),
            },
        }
    }

    /// Parses the value of a numeric flag, with a default when absent.
    pub fn u64_of(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.value_of(flag)? {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag {flag}: expected an integer, got {v:?}")),
        }
    }

    /// Validates that every argument is either one of `boolean_flags`, one
    /// of `valued_flags`, or the value of a valued flag, and that no flag is
    /// given twice ([`Self::value_of`] would silently read the first).
    ///
    /// # Errors
    ///
    /// Returns the first unrecognized argument or repeated flag.
    pub fn expect_only(&self, boolean_flags: &[&str], valued_flags: &[&str]) -> Result<(), String> {
        let mut seen: Vec<&str> = Vec::new();
        let mut skip_value = false;
        for a in &self.args {
            if skip_value {
                skip_value = false;
                continue;
            }
            let a = a.as_str();
            let valued = valued_flags.contains(&a);
            if !valued && !boolean_flags.contains(&a) {
                return Err(format!("unrecognized argument {a:?}"));
            }
            if seen.contains(&a) {
                return Err(format!("flag {a} given more than once"));
            }
            seen.push(a);
            skip_value = valued;
        }
        Ok(())
    }

    /// The engine selection shared by all binaries (`--parallel`).
    pub fn engine_kind(&self) -> EngineKind {
        if self.has("--parallel") {
            EngineKind::Parallel
        } else {
            EngineKind::Serial
        }
    }

    /// The experiment scale shared by the per-figure binaries (`--paper`
    /// selects the paper-scale settings, `--parallel` the parallel engine).
    pub fn scale(&self) -> ExperimentScale {
        let mut scale = if self.has("--paper") {
            ExperimentScale::paper()
        } else {
            ExperimentScale::fast()
        };
        scale.engine = self.engine_kind();
        scale
    }
}

/// Parses and validates the figure-binary command line (`--paper`,
/// `--parallel` only), exiting with a usage message on anything else.
pub fn figure_binary_scale() -> ExperimentScale {
    let args = CliArgs::parse();
    if let Err(e) = args.expect_only(&["--paper", "--parallel"], &[]) {
        eprintln!("error: {e}");
        eprintln!("usage: [--paper] [--parallel]");
        std::process::exit(2);
    }
    args.scale()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> CliArgs {
        CliArgs::from_vec(list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn boolean_and_valued_flags() {
        let a = args(&["--paper", "--seed", "7", "--scenario", "all"]);
        assert!(a.has("--paper"));
        assert!(!a.has("--parallel"));
        assert_eq!(a.value_of("--seed").unwrap(), Some("7"));
        assert_eq!(a.u64_of("--seed", 1).unwrap(), 7);
        assert_eq!(a.u64_of("--budget-n", 42).unwrap(), 42);
        assert_eq!(a.value_of("--scenario").unwrap(), Some("all"));
    }

    #[test]
    fn missing_value_is_an_error() {
        let a = args(&["--seed"]);
        assert!(a.value_of("--seed").is_err());
        let b = args(&["--seed", "--paper"]);
        assert!(b.value_of("--seed").is_err());
        assert!(args(&["--seed", "x"]).u64_of("--seed", 1).is_err());
    }

    #[test]
    fn unknown_arguments_are_rejected() {
        let a = args(&["--paper", "--bogus"]);
        assert!(a.expect_only(&["--paper"], &[]).is_err());
        let b = args(&["--seed", "7", "--parallel"]);
        assert!(b.expect_only(&["--parallel"], &["--seed"]).is_ok());
        // A repeated flag is an error naming it, not a silent first-wins.
        let c = args(&["--seed", "1", "--seed", "2"]);
        let err = c.expect_only(&[], &["--seed"]).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        let d = args(&["--parallel", "--seed", "1", "--parallel"]);
        let err = d.expect_only(&["--parallel"], &["--seed"]).unwrap_err();
        assert!(err.contains("--parallel"), "{err}");
    }

    #[test]
    fn derived_settings() {
        assert_eq!(args(&["--parallel"]).engine_kind(), EngineKind::Parallel);
        assert_eq!(args(&[]).engine_kind(), EngineKind::Serial);
        let s = args(&["--paper", "--parallel"]).scale();
        assert_eq!(s.runs, ExperimentScale::paper().runs);
        assert_eq!(s.engine, EngineKind::Parallel);
        assert_eq!(args(&[]).scale().runs, ExperimentScale::fast().runs);
    }
}
