//! Parsing `<subcommand> --flag value ...` against the subcommand's flag
//! table ([`crate::commands::COMMANDS`]): undeclared flags, missing values
//! and out-of-set choices are usage errors before any command runs, and
//! every getter takes its default from the table.

use crate::commands::{Command, Fallback, Flag, Kind, COMMANDS};
use crate::CliError;
use std::collections::HashMap;
use std::str::FromStr;

/// A parsed command line: the subcommand's table entry plus the flags given.
#[derive(Debug, Clone)]
pub struct Cli {
    /// The subcommand's entry in [`COMMANDS`].
    pub command: &'static Command,
    given: HashMap<&'static str, String>,
}

impl Cli {
    /// Parses an iterator of arguments (excluding the program name).
    ///
    /// A value or choice flag takes the next token as its value. A switch
    /// takes the next token only when it is `true` or `false`, and is on when
    /// bare — so `explain --timings --seed 7` and `explain --seed 7 --timings`
    /// both work, and `--timings false` turns it off.
    pub fn parse<I: IntoIterator<Item = String>>(iter: I) -> Result<Cli, CliError> {
        let mut iter = iter.into_iter().peekable();
        let name = iter
            .next()
            .ok_or_else(|| CliError::Usage("missing subcommand (try 'help')".into()))?;
        let name = match name.as_str() {
            "--help" | "-h" => "help",
            other => other,
        };
        let command = COMMANDS
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| CliError::Usage(format!("unknown subcommand '{name}' (try 'help')")))?;
        let mut given = HashMap::new();
        while let Some(arg) = iter.next() {
            let usage = |msg: String| CliError::Usage(format!("{}: {msg}", command.name));
            let flag = arg
                .strip_prefix("--")
                .ok_or_else(|| usage(format!("expected --flag, got '{arg}'")))?;
            let spec = command
                .flag(flag)
                .ok_or_else(|| usage(format!("unknown flag --{flag}")))?;
            let value = match spec.kind {
                Kind::Switch => match iter.peek().map(String::as_str) {
                    Some("true" | "false") => iter.next().expect("just peeked"),
                    Some(next) if !next.starts_with("--") => {
                        return Err(usage(format!(
                            "--{flag} is a switch (bare, or true|false), got '{next}'"
                        )))
                    }
                    _ => "true".to_string(),
                },
                Kind::Value | Kind::Choice(_) => match iter.next() {
                    Some(value) if !value.starts_with("--") => value,
                    _ => return Err(usage(format!("--{flag} needs a value"))),
                },
            };
            if let Kind::Choice(choices) = spec.kind {
                if !choices.contains(&value.as_str()) {
                    return Err(usage(format!(
                        "--{flag} must be one of {}, got '{value}'",
                        choices.join("|")
                    )));
                }
            }
            if given.insert(spec.name, value).is_some() {
                return Err(usage(format!("--{flag} given twice")));
            }
        }
        Ok(Cli { command, given })
    }

    /// The running command's declaration of `name`. Reading a flag the
    /// command does not declare is a bug in this crate, not a usage error.
    fn spec(&self, name: &str) -> &'static Flag {
        self.command.flag(name).unwrap_or_else(|| {
            panic!(
                "{} reads --{name}, which its flag table does not declare",
                self.command.name
            )
        })
    }

    /// The flag's value: as given, else its table default, else `None`.
    pub fn opt_str(&self, name: &str) -> Option<&str> {
        let spec = self.spec(name);
        self.given
            .get(spec.name)
            .map(String::as_str)
            .or(match spec.fallback {
                Fallback::Default(value) => Some(value),
                Fallback::Required | Fallback::Unset => None,
            })
    }

    /// A flag that has a value (given or defaulted); a missing required flag
    /// is a usage error.
    pub fn str(&self, name: &str) -> Result<&str, CliError> {
        self.opt_str(name)
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{name}")))
    }

    /// [`Self::str`] parsed as `T`.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<T, CliError> {
        parse_value(name, self.str(name)?)
    }

    /// [`Self::opt_str`] parsed as `T`.
    pub fn opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.opt_str(name).map(|v| parse_value(name, v)).transpose()
    }

    /// A switch: on when given bare or as `true`.
    pub fn bool(&self, name: &str) -> bool {
        assert_eq!(
            self.spec(name).kind,
            Kind::Switch,
            "--{name} is not a switch"
        );
        self.given.get(name).is_some_and(|v| v == "true")
    }

    /// Parses `--stage2-kernel` (`seq` | `counter`).
    pub fn stage2_kernel(&self) -> Result<dpclustx::Stage2Kernel, CliError> {
        dpclustx::Stage2Kernel::parse(self.str("stage2-kernel")?).map_err(CliError::Usage)
    }

    /// Parses `--weights INT,SUF,DIV`, normalised to sum to 1.
    pub fn weights(&self) -> Result<dpclustx::quality::score::Weights, CliError> {
        let v = self.str("weights")?;
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

fn parse_value<T: FromStr>(name: &str, value: &str) -> Result<T, CliError> {
    value.parse().map_err(|_| {
        CliError::Usage(format!(
            "--{name} expects {}, got '{value}'",
            std::any::type_name::<T>()
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, CliError> {
        Cli::parse(args.iter().map(|s| s.to_string()))
    }

    fn usage_error(args: &[&str]) -> String {
        match cli(args) {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("{args:?} must be a usage error, got {other:?}"),
        }
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let c = cli(&["explain", "--clusters", "3", "--eps-hist", "0.2"]).unwrap();
        assert_eq!(c.command.name, "explain");
        assert_eq!(c.get::<usize>("clusters").unwrap(), 3);
        assert!((c.get::<f64>("eps-hist").unwrap() - 0.2).abs() < 1e-12);
        assert_eq!(c.get::<usize>("k").unwrap(), 3);
    }

    #[test]
    fn missing_subcommand_errors() {
        assert!(cli(&[]).is_err());
    }

    #[test]
    fn bare_boolean_flags_parse_in_any_position() {
        let c = cli(&["explain", "--timings", "--clusters", "3"]).unwrap();
        assert!(c.bool("timings"));
        assert_eq!(c.get::<usize>("clusters").unwrap(), 3);
        let c = cli(&["explain", "--clusters", "3", "--timings"]).unwrap();
        assert!(c.bool("timings"));
        let c = cli(&["explain", "--timings", "false"]).unwrap();
        assert!(!c.bool("timings"));
        assert!(!cli(&["explain"]).unwrap().bool("timings"));
    }

    #[test]
    fn missing_required_flag_errors() {
        let c = cli(&["explain"]).unwrap();
        assert!(c.str("data").is_err());
    }

    #[test]
    fn undeclared_flag_is_rejected_naming_flag_and_command() {
        for (args, flag) in [
            (
                &["serve-daemon", "--ledger-dirr", "wals"][..],
                "--ledger-dirr",
            ),
            (&["serve-daemon", "--ledger", "x.wal"][..], "--ledger"),
            (&["explain", "--clusters", "3", "--sed", "5"][..], "--sed"),
            (&["report", "--timings"][..], "--timings"),
            (&["rank", "--k", "2"][..], "--k"),
        ] {
            let msg = usage_error(args);
            assert!(msg.contains(&format!("unknown flag {flag}")), "{msg}");
            assert!(msg.starts_with(args[0]), "{msg}");
        }
    }

    #[test]
    fn value_flag_without_a_value_is_rejected() {
        for args in [
            &["explain", "--seed"][..],
            &["explain", "--seed", "--timings"][..],
        ] {
            let msg = usage_error(args);
            assert!(msg.contains("--seed needs a value"), "{msg}");
            assert!(msg.starts_with("explain"), "{msg}");
        }
    }

    #[test]
    fn choice_outside_its_set_is_rejected() {
        let msg = usage_error(&["explain", "--consistency", "yes"]);
        assert!(msg.contains("--consistency must be one of on|off"), "{msg}");
        let msg = usage_error(&["explain", "--method", "dbscan"]);
        assert!(msg.contains("--method must be one of"), "{msg}");
        let c = cli(&["explain", "--consistency", "on"]).unwrap();
        assert_eq!(c.str("consistency").unwrap(), "on");
        let c = cli(&["explain"]).unwrap();
        assert_eq!(c.str("consistency").unwrap(), "off");
    }

    #[test]
    fn switch_with_a_stray_value_and_repeated_flags_are_rejected() {
        let msg = usage_error(&["explain", "--timings", "yes"]);
        assert!(msg.contains("--timings is a switch"), "{msg}");
        let msg = usage_error(&["explain", "--k", "2", "--k", "3"]);
        assert!(msg.contains("--k given twice"), "{msg}");
        let msg = usage_error(&["serve-batch", "--requests", "r.jsonl"]);
        assert!(msg.contains("unknown subcommand 'serve-batch'"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "does not declare")]
    fn reading_an_undeclared_flag_panics() {
        let _ = cli(&["generate"]).unwrap().opt_str("clusters");
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
        for bad in ["1,2", "a,b,c", "-1,1,1"] {
            let c = cli(&["explain", "--weights", bad]).unwrap();
            assert!(c.weights().is_err(), "{bad}");
        }
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
            "serve-daemon",
            "--ledger-dir",
            "wals",
            "--deadline-ms",
            "250",
        ])
        .unwrap();
        assert_eq!(c.opt_str("ledger-dir"), Some("wals"));
        assert_eq!(c.opt::<u64>("deadline-ms").unwrap(), Some(250));
        let c = cli(&["serve-daemon"]).unwrap();
        assert_eq!(c.opt_str("ledger-dir"), None);
        assert_eq!(c.opt::<u64>("deadline-ms").unwrap(), None);
        let c = cli(&["serve-daemon", "--deadline-ms", "soon"]).unwrap();
        assert!(c.opt::<u64>("deadline-ms").is_err());
    }

    #[test]
    fn default_weights_are_equal() {
        let w = cli(&["explain"]).unwrap().weights().unwrap();
        assert_eq!(w, dpclustx::quality::score::Weights::equal());
    }
}
