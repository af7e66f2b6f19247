//! Subcommand implementations, one module per subcommand, and the one
//! static [`COMMANDS`] table that declares every subcommand's flags. The
//! table drives dispatch, parsing, defaults, validation and `help`.

mod explain;
mod generate;
mod rank;
mod report;
mod serve;

use crate::args::Cli;
use crate::CliError;
use dpclustx::engine::{ExplainEngine, PipelineObserver};
use dpclustx::framework::{DpClustXConfig, Outcome};
use dpx_clustering::ClusteringMethod;
use dpx_data::csv::read_csv;
use dpx_data::schema_io::read_schema;
use dpx_data::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, Write};

/// What a flag accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// On when given bare or as `true`, off when absent or `false`.
    Switch,
    /// Any value, parsed where the command reads it.
    Value,
    /// One of a fixed set of values, checked at parse time.
    Choice(&'static [&'static str]),
}

/// What an absent flag reads as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fallback {
    /// Reading it is a usage error.
    Required,
    /// This value.
    Default(&'static str),
    /// Nothing (`None`; a switch reads as off).
    Unset,
}

/// One declared flag.
#[derive(Debug)]
pub struct Flag {
    /// The name, without the leading `--`.
    pub name: &'static str,
    /// What the flag accepts.
    pub kind: Kind,
    /// What the flag reads as when absent.
    pub fallback: Fallback,
    /// The one-line help.
    pub help: &'static str,
}

/// One subcommand: its name, what it does, its flags and its handler.
#[derive(Debug)]
pub struct Command {
    /// The subcommand name.
    pub name: &'static str,
    /// One line on what it does.
    pub about: &'static str,
    /// The flag groups it declares; shared groups appear in several commands.
    pub groups: &'static [&'static [Flag]],
    run: fn(&Cli, &mut dyn Write) -> Result<(), CliError>,
}

impl Command {
    /// This command's declaration of `--name`, if it has one.
    pub fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.groups
            .iter()
            .flat_map(|group| group.iter())
            .find(|flag| flag.name == name)
    }
}

const fn flag(name: &'static str, kind: Kind, fallback: Fallback, help: &'static str) -> Flag {
    Flag {
        name,
        kind,
        fallback,
        help,
    }
}

use Fallback::{Default, Required, Unset};
use Kind::{Choice, Switch, Value};

const DATA: &[Flag] = &[
    flag("data", Value, Required, "CSV file of the table to explain"),
    flag("schema", Value, Required, "schema file of that CSV"),
];

const METHODS: &[&str] = &["kmeans", "dp-kmeans", "kmodes", "agglomerative", "gmm"];

const CLUSTERING: &[Flag] = &[
    flag("clusters", Value, Required, "number of clusters"),
    flag(
        "method",
        Choice(METHODS),
        Default("kmeans"),
        "clustering method",
    ),
    flag("clust-eps", Value, Default("1.0"), "ε of dp-kmeans"),
    flag(
        "seed",
        Value,
        Default("2025"),
        "seed of the clustering and the noise",
    ),
];

const WEIGHTS: Flag = flag(
    "weights",
    Value,
    Default("1,1,1"),
    "quality weights INT,SUF,DIV, normalised to sum to 1",
);

const STAGE2_KERNEL: Flag = flag(
    "stage2-kernel",
    Value,
    Default("seq"),
    "Stage-2 search: 'seq' streams Gumbel noise from the RNG (reproduces \
     historical seeds), 'counter' draws it from a counter PRF (exact pruning)",
);

const EXPLANATION: &[Flag] = &[
    flag(
        "eps-cand",
        Value,
        Default("0.1"),
        "ε of candidate selection",
    ),
    flag(
        "eps-comb",
        Value,
        Default("0.1"),
        "ε of combination selection",
    ),
    flag(
        "eps-hist",
        Value,
        Default("0.1"),
        "ε of the released histograms",
    ),
    flag("k", Value, Default("3"), "candidate attributes per cluster"),
    WEIGHTS,
    flag(
        "consistency",
        Choice(&["on", "off"]),
        Default("off"),
        "project single-attribute histograms to agree across clusters",
    ),
    STAGE2_KERNEL,
];

const TIMINGS: &[Flag] = &[flag(
    "timings",
    Switch,
    Unset,
    "print per-stage wall time, ε per ledger label and stage metrics",
)];

/// Every subcommand, in `help` order.
pub static COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        about: "write <out>.csv and <out>.schema with synthetic data",
        groups: &[&[
            flag(
                "dataset",
                Choice(&["diabetes", "census", "stackoverflow", "so"]),
                Required,
                "dataset to synthesise",
            ),
            flag("rows", Value, Default("20000"), "rows to generate"),
            flag("groups", Value, Default("3"), "latent groups in the data"),
            flag("seed", Value, Default("2025"), "seed of the generator"),
            flag("out", Value, Required, "path prefix of the two files"),
        ]],
        run: generate::generate,
    },
    Command {
        name: "explain",
        about: "cluster the data and print its DP explanation with a privacy audit",
        groups: &[DATA, CLUSTERING, EXPLANATION, TIMINGS],
        run: explain::explain,
    },
    Command {
        name: "evaluate",
        about: "explain, then compare with the non-private TabEE reference \
                (reads the raw data: offline analysis only)",
        groups: &[DATA, CLUSTERING, EXPLANATION, TIMINGS],
        run: explain::evaluate,
    },
    Command {
        name: "report",
        about: "write the explanation and its audit as a markdown report",
        groups: &[
            DATA,
            CLUSTERING,
            EXPLANATION,
            &[
                flag("report-out", Value, Required, "markdown file to write"),
                flag(
                    "title",
                    Value,
                    Default("DPClustX explanation"),
                    "report title",
                ),
            ],
        ],
        run: report::report,
    },
    Command {
        name: "rank",
        about: "print the exact (NOT private) ranked candidate attributes of one \
                cluster, the paper's Figure 4 view, for debugging and demos",
        groups: &[
            DATA,
            CLUSTERING,
            &[
                flag("cluster", Value, Required, "cluster to rank"),
                flag("top", Value, Default("10"), "attributes to print"),
                WEIGHTS,
            ],
        ],
        run: rank::rank,
    },
    Command {
        name: "session",
        about: "interactive analyst session in which every command spends one shared budget",
        groups: &[
            DATA,
            &[
                flag("budget", Value, Default("1.0"), "total ε of the session"),
                flag(
                    "seed",
                    Value,
                    Default("2025"),
                    "seed of the session's noise",
                ),
                STAGE2_KERNEL,
            ],
        ],
        run: session,
    },
    Command {
        name: "serve-daemon",
        about: "serve JSONL explanation requests from stdin, a --requests file or a \
                --socket (see README: \"The resident daemon\")",
        groups: &[DATA, serve::FLAGS],
        run: serve::serve_daemon,
    },
    Command {
        name: "help",
        about: "print this text",
        groups: &[],
        run: help,
    },
];

/// Dispatches a parsed command line. Output goes to `out` (stdout in main;
/// a buffer in tests).
pub fn run(cli: &Cli, out: &mut dyn Write) -> Result<(), CliError> {
    (cli.command.run)(cli, out)
}

/// The help text, generated from [`COMMANDS`]: every command, or only the
/// one named `command` when it names one.
pub fn usage(command: Option<&str>) -> String {
    let command = command.filter(|name| COMMANDS.iter().any(|c| c.name == *name));
    let mut text = String::from(
        "dpclustx — differentially private explanations for clusters\n\n\
         usage: dpclustx-cli <command> [--flag value]... (a switch is given bare, \
         or as --flag true|false)\n",
    );
    for c in COMMANDS
        .iter()
        .filter(|c| command.is_none_or(|name| c.name == name))
    {
        let _ = writeln!(text, "\n  {}: {}", c.name, c.about);
        for f in c.groups.iter().flat_map(|group| group.iter()) {
            let arg = match f.kind {
                Switch => String::new(),
                Value => " <value>".to_string(),
                Choice(choices) => format!(" <{}>", choices.join("|")),
            };
            let fallback = match f.fallback {
                Required => " (required)".to_string(),
                Default(value) => format!(" (default {value})"),
                Unset => String::new(),
            };
            let _ = writeln!(
                text,
                "      --{}{arg}{fallback}\n          {}",
                f.name, f.help
            );
        }
    }
    text
}

fn help(_: &Cli, out: &mut dyn Write) -> Result<(), CliError> {
    write!(out, "{}", usage(None))?;
    Ok(())
}

fn session(cli: &Cli, out: &mut dyn Write) -> Result<(), CliError> {
    let stdin = std::io::stdin();
    crate::repl::run_session(cli, stdin.lock(), out)
}

/// Loads the `--data` CSV under its `--schema`.
pub(crate) fn load(cli: &Cli) -> Result<Dataset, CliError> {
    let schema = read_schema(BufReader::new(File::open(cli.str("schema")?)?))?;
    Ok(read_csv(
        schema,
        BufReader::new(File::open(cli.str("data")?)?),
    )?)
}

fn parse_method(cli: &Cli) -> Result<ClusteringMethod, CliError> {
    Ok(match cli.str("method")? {
        "kmeans" => ClusteringMethod::KMeans,
        "dp-kmeans" => ClusteringMethod::DpKMeans {
            epsilon: cli.get("clust-eps")?,
        },
        "kmodes" => ClusteringMethod::KModes,
        "agglomerative" => ClusteringMethod::Agglomerative,
        "gmm" => ClusteringMethod::Gmm,
        other => unreachable!("--method {other} passed the choice check"),
    })
}

/// Loads the data and clusters it by the clustering flags, returning the
/// RNG that the explanation's noise continues from.
fn cluster(cli: &Cli) -> Result<(Dataset, Vec<usize>, usize, ClusteringMethod, StdRng), CliError> {
    let n_clusters: usize = cli.get("clusters")?;
    if n_clusters == 0 {
        return Err(CliError::Usage("--clusters must be positive".into()));
    }
    let method = parse_method(cli)?;
    let mut rng = StdRng::seed_from_u64(cli.get("seed")?);
    let data = load(cli)?;
    let labels = method.fit(&data, n_clusters, &mut rng).assign_all(&data);
    Ok((data, labels, n_clusters, method, rng))
}

/// What `explain`, `evaluate` and `report` share: the clustered data, the
/// pipeline configuration, and the explanation of that clustering.
struct Explained {
    data: Dataset,
    labels: Vec<usize>,
    n_clusters: usize,
    method: ClusteringMethod,
    config: DpClustXConfig,
    outcome: Outcome,
}

/// Reads the explanation flags (before any data loads), clusters the data,
/// and runs the staged pipeline on that clustering, reporting to `observer`.
fn cluster_and_explain(
    cli: &Cli,
    observer: &mut dyn PipelineObserver,
) -> Result<Explained, CliError> {
    let config = DpClustXConfig {
        k: cli.get("k")?,
        eps_cand_set: cli.get("eps-cand")?,
        eps_top_comb: cli.get("eps-comb")?,
        eps_hist: Some(cli.get("eps-hist")?),
        weights: cli.weights()?,
        consistency: cli.str("consistency")? == "on",
    };
    let engine = ExplainEngine::new(config).with_stage2_kernel(cli.stage2_kernel()?);
    let (data, labels, n_clusters, method, mut rng) = cluster(cli)?;
    let outcome = engine.explain_uncached(
        &data,
        &labels,
        n_clusters,
        &dpx_dp::histogram::GeometricHistogram,
        &mut rng,
        observer,
    )?;
    Ok(Explained {
        data,
        labels,
        n_clusters,
        method,
        config,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Cli;

    pub(crate) fn run_cli(args: &[&str]) -> Result<String, CliError> {
        let cli = Cli::parse(args.iter().map(|s| s.to_string()))?;
        let mut out = Vec::new();
        run(&cli, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    pub(crate) fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dpclustx-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Generates `rows` rows of `dataset` under `name` in [`tmpdir`] and
    /// returns the CSV and schema paths.
    pub(crate) fn generated(dataset: &str, name: &str, rows: &str) -> (String, String) {
        let prefix = tmpdir().join(name);
        let prefix = prefix.to_str().unwrap();
        run_cli(&[
            "generate",
            "--dataset",
            dataset,
            "--rows",
            rows,
            "--out",
            prefix,
        ])
        .unwrap();
        (format!("{prefix}.csv"), format!("{prefix}.schema"))
    }

    /// Runs `command` over the generated `(csv, schema)` with `extra` flags.
    pub(crate) fn run_on(
        command: &str,
        data: &(String, String),
        extra: &[&str],
    ) -> Result<String, CliError> {
        let mut args = vec![command, "--data", &data.0, "--schema", &data.1];
        args.extend_from_slice(extra);
        run_cli(&args)
    }

    #[test]
    fn help_prints_usage() {
        let text = run_cli(&["help"]).unwrap();
        assert!(text.contains("generate"));
        assert!(text.contains("explain"));
    }

    #[test]
    fn help_lists_every_declared_flag_of_every_command() {
        let text = run_cli(&["help"]).unwrap();
        for command in COMMANDS {
            let section = text
                .split(&format!("\n  {}: ", command.name))
                .nth(1)
                .unwrap_or_else(|| panic!("help has no section for {}", command.name));
            let section = section.split("\n\n").next().unwrap();
            for flag in command.groups.iter().flat_map(|group| group.iter()) {
                assert!(
                    section.contains(&format!("--{}", flag.name)),
                    "help for {} misses --{}",
                    command.name,
                    flag.name
                );
            }
        }
        // Named, because they were missing from the hand-kept help text.
        let session = usage(Some("session"));
        assert!(session.contains("--seed"), "{session}");
        assert!(text.contains("--consistency <on|off>"), "{text}");
        assert!(text.contains("--top"), "{text}");
        assert!(!usage(Some("rank")).contains("--eps-hist"));
    }

    #[test]
    fn unknown_subcommand_is_usage_error() {
        assert!(matches!(run_cli(&["frobnicate"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn generate_then_explain_then_evaluate_and_rank() {
        let dir = tmpdir();
        let prefix = dir.join("patients");
        let prefix_s = prefix.to_str().unwrap();
        let text = run_cli(&[
            "generate",
            "--dataset",
            "diabetes",
            "--rows",
            "1500",
            "--out",
            prefix_s,
        ])
        .unwrap();
        assert!(text.contains("1500 tuples"));
        let data = (format!("{prefix_s}.csv"), format!("{prefix_s}.schema"));

        let text = run_on("explain", &data, &["--clusters", "3", "--method", "kmeans"]).unwrap();
        assert!(text.contains("privacy audit"));
        assert!(text.contains("total ε = 0.3"));
        assert!(text.contains("Cluster 0"));

        let text = run_on("evaluate", &data, &["--clusters", "3"]).unwrap();
        assert!(text.contains("Quality: DPClustX"));
        assert!(text.contains("TabEE"));

        let text = run_on(
            "rank",
            &data,
            &["--clusters", "3", "--cluster", "1", "--top", "5"],
        )
        .unwrap();
        assert!(text.contains("ranked candidates for cluster 1"));
        assert_eq!(text.matches("SScore").count(), 5);
    }
}
