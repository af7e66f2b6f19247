//! Subcommand + `--flag value` argument parsing, with bare `--flag`
//! booleans.

use crate::CliError;
use std::collections::HashMap;

/// A parsed command line: the subcommand plus its flags.
#[derive(Debug, Clone)]
pub struct Cli {
    /// The subcommand (`generate`, `explain`, `evaluate`, `rank`, `help`).
    pub command: String,
    flags: HashMap<String, String>,
}

impl Cli {
    /// Parses an iterator of arguments (excluding the program name).
    ///
    /// A flag followed by a non-flag token takes that token as its value; a
    /// flag followed by another `--flag` (or by nothing) is a bare boolean
    /// and stores `"true"` — so `explain --timings --seed 7` and
    /// `explain --seed 7 --timings` both work.
    pub fn parse<I: IntoIterator<Item = String>>(iter: I) -> Result<Cli, CliError> {
        let mut iter = iter.into_iter().peekable();
        let command = iter
            .next()
            .ok_or_else(|| CliError::Usage("missing subcommand (try 'help')".into()))?;
        let mut flags = HashMap::new();
        while let Some(arg) = iter.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| CliError::Usage(format!("expected --flag, got '{arg}'")))?;
            let value = match iter.peek() {
                Some(next) if !next.starts_with("--") => iter.next().expect("just peeked"),
                _ => "true".to_string(),
            };
            flags.insert(name.to_string(), value);
        }
        Ok(Cli { command, flags })
    }

    /// A boolean flag: `true` when present bare (`--timings`) or set to
    /// anything but `false`/`0`, `false` when absent.
    pub fn bool(&self, name: &str) -> bool {
        match self.flags.get(name) {
            None => false,
            Some(v) => v != "false" && v != "0",
        }
    }

    /// A required string flag.
    pub fn required(&self, name: &str) -> Result<&str, CliError> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{name}")))
    }

    /// An optional string flag with a default.
    pub fn string(&self, name: &str, default: &str) -> String {
        self.flags
            .get(name)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// A `usize` flag with a default.
    pub fn usize(&self, name: &str, default: usize) -> Result<usize, CliError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{name} expects an integer, got '{v}'"))),
        }
    }

    /// A required `usize` flag.
    pub fn required_usize(&self, name: &str) -> Result<usize, CliError> {
        self.required(name)?
            .parse()
            .map_err(|_| CliError::Usage(format!("--{name} expects an integer")))
    }

    /// An `f64` flag with a default.
    pub fn f64(&self, name: &str, default: f64) -> Result<f64, CliError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{name} expects a number, got '{v}'"))),
        }
    }

    /// A `u64` flag with a default (seeds).
    pub fn u64(&self, name: &str, default: u64) -> Result<u64, CliError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{name} expects an integer, got '{v}'"))),
        }
    }

    /// An optional string flag (`None` when absent).
    pub fn opt_string(&self, name: &str) -> Option<String> {
        self.flags.get(name).cloned()
    }

    /// An optional `u64` flag (`None` when absent).
    pub fn opt_u64(&self, name: &str) -> Result<Option<u64>, CliError> {
        match self.flags.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("--{name} expects an integer, got '{v}'"))),
        }
    }

    /// Parses `--stage2-kernel` (`seq` | `counter`;
    /// defaults to the streaming sequential-RNG kernel, which preserves the
    /// historical seeded outputs).
    pub fn stage2_kernel(&self) -> Result<dpclustx::Stage2Kernel, CliError> {
        match self.flags.get("stage2-kernel") {
            None => Ok(dpclustx::Stage2Kernel::default()),
            Some(v) => dpclustx::Stage2Kernel::parse(v).map_err(CliError::Usage),
        }
    }

    /// Parses `--weights INT,SUF,DIV` (defaults to equal thirds).
    pub fn weights(&self) -> Result<dpclustx::quality::score::Weights, CliError> {
        match self.flags.get("weights") {
            None => Ok(dpclustx::quality::score::Weights::equal()),
            Some(v) => {
                let parts: Vec<f64> = v
                    .split(',')
                    .map(|s| {
                        s.trim().parse().map_err(|_| {
                            CliError::Usage(format!("--weights expects three numbers, got '{v}'"))
                        })
                    })
                    .collect::<Result<_, _>>()?;
                if parts.len() != 3 {
                    return Err(CliError::Usage(
                        "--weights expects INT,SUF,DIV (three numbers)".into(),
                    ));
                }
                let sum: f64 = parts.iter().sum();
                if sum <= 0.0 || parts.iter().any(|&w| w < 0.0) {
                    return Err(CliError::Usage(
                        "--weights must be non-negative with positive sum".into(),
                    ));
                }
                Ok(dpclustx::quality::score::Weights::new(
                    parts[0] / sum,
                    parts[1] / sum,
                    parts[2] / sum,
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, CliError> {
        Cli::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let c = cli(&["explain", "--clusters", "3", "--eps-hist", "0.2"]).unwrap();
        assert_eq!(c.command, "explain");
        assert_eq!(c.required_usize("clusters").unwrap(), 3);
        assert!((c.f64("eps-hist", 0.1).unwrap() - 0.2).abs() < 1e-12);
        assert_eq!(c.usize("k", 3).unwrap(), 3);
    }

    #[test]
    fn missing_subcommand_errors() {
        assert!(cli(&[]).is_err());
    }

    #[test]
    fn bare_boolean_flags_parse_in_any_position() {
        let c = cli(&["explain", "--timings", "--clusters", "3"]).unwrap();
        assert!(c.bool("timings"));
        assert_eq!(c.required_usize("clusters").unwrap(), 3);
        let c = cli(&["explain", "--clusters", "3", "--timings"]).unwrap();
        assert!(c.bool("timings"));
        assert!(!c.bool("absent"));
        let c = cli(&["explain", "--timings", "false"]).unwrap();
        assert!(!c.bool("timings"));
    }

    #[test]
    fn missing_required_flag_errors() {
        let c = cli(&["explain"]).unwrap();
        assert!(c.required("data").is_err());
    }

    #[test]
    fn weights_normalize() {
        let c = cli(&["explain", "--weights", "2,1,1"]).unwrap();
        let w = c.weights().unwrap();
        assert!((w.int - 0.5).abs() < 1e-12);
        assert!((w.suf - 0.25).abs() < 1e-12);
    }

    #[test]
    fn bad_weights_rejected() {
        assert!(cli(&["x", "--weights", "1,2"]).unwrap().weights().is_err());
        assert!(cli(&["x", "--weights", "a,b,c"])
            .unwrap()
            .weights()
            .is_err());
        assert!(cli(&["x", "--weights", "-1,1,1"])
            .unwrap()
            .weights()
            .is_err());
    }

    #[test]
    fn stage2_kernel_flag_parses_and_defaults() {
        use dpclustx::Stage2Kernel;
        let c = cli(&["explain"]).unwrap();
        assert_eq!(c.stage2_kernel().unwrap(), Stage2Kernel::SequentialRng);
        let c = cli(&["explain", "--stage2-kernel", "counter"]).unwrap();
        assert_eq!(c.stage2_kernel().unwrap(), Stage2Kernel::CounterSerial);
        for bad in ["gumbel", "counter-par", "counter-par/4"] {
            let c = cli(&["explain", "--stage2-kernel", bad]).unwrap();
            match c.stage2_kernel() {
                Err(CliError::Usage(msg)) => assert!(msg.contains("seq|counter"), "{msg}"),
                other => panic!("{bad:?} must be a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn optional_flags_distinguish_absent_from_set() {
        let c = cli(&[
            "serve-batch",
            "--ledger-dir",
            "wals",
            "--deadline-ms",
            "250",
        ])
        .unwrap();
        assert_eq!(c.opt_string("ledger-dir").as_deref(), Some("wals"));
        assert_eq!(c.opt_u64("deadline-ms").unwrap(), Some(250));
        let c = cli(&["serve-batch"]).unwrap();
        assert_eq!(c.opt_string("ledger-dir"), None);
        assert_eq!(c.opt_u64("deadline-ms").unwrap(), None);
        let c = cli(&["serve-batch", "--deadline-ms", "soon"]).unwrap();
        assert!(c.opt_u64("deadline-ms").is_err());
    }

    #[test]
    fn default_weights_are_equal() {
        let w = cli(&["x"]).unwrap().weights().unwrap();
        assert!((w.int - 1.0 / 3.0).abs() < 1e-12);
    }
}
