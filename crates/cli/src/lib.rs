//! # dpclustx-cli — the DPClustX demonstration front end
//!
//! The SIGMOD demo presents DPClustX as an interactive system: load a
//! sensitive table, pick a clustering method and a privacy budget, and read
//! the private explanation. This crate is that system as a CLI:
//!
//! ```text
//! dpclustx-cli generate --dataset diabetes --rows 20000 --out patients
//! dpclustx-cli explain  --data patients.csv --schema patients.schema \
//!                   --method dp-kmeans --clusters 3 --eps-hist 0.1
//! dpclustx-cli evaluate --data patients.csv --schema patients.schema --clusters 3
//! dpclustx-cli rank     --data patients.csv --schema patients.schema --clusters 3 --cluster 0
//! ```
//!
//! Every subcommand and flag is declared once, in
//! [`commands::COMMANDS`]; `dpclustx-cli help` prints the text generated
//! from that table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod repl;

use std::fmt;

/// Top-level CLI error.
#[derive(Debug)]
pub enum CliError {
    /// Bad command-line usage; the string is a user-facing message.
    Usage(String),
    /// I/O failure.
    Io(std::io::Error),
    /// Data-layer failure (CSV/schema parsing, domain violations).
    Data(dpx_data::DataError),
    /// DP pipeline failure.
    Dp(dpx_dp::DpError),
    /// Durable ε ledger failure (corrupt file, wrong magic, failed fsync).
    Ledger(dpx_dp::LedgerError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            // The kind keeps NotFound vs PermissionDenied (etc.)
            // distinguishable once the error is flattened to a log line.
            CliError::Io(e) => write!(f, "io error ({:?}): {e}", e.kind()),
            CliError::Data(e) => write!(f, "data error: {e}"),
            CliError::Dp(e) => write!(f, "privacy error: {e}"),
            CliError::Ledger(e) => write!(f, "ledger error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<dpx_data::DataError> for CliError {
    fn from(e: dpx_data::DataError) -> Self {
        CliError::Data(e)
    }
}

impl From<dpx_dp::DpError> for CliError {
    fn from(e: dpx_dp::DpError) -> Self {
        CliError::Dp(e)
    }
}

impl From<dpx_dp::LedgerError> for CliError {
    fn from(e: dpx_dp::LedgerError) -> Self {
        CliError::Ledger(e)
    }
}
