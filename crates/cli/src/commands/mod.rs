//! Subcommand implementations: one module per subcommand, behind the
//! [`run`] dispatch table.

mod explain;
mod generate;
mod rank;
mod report;
mod serve;

use crate::args::Cli;
use crate::CliError;
use dpx_clustering::ClusteringMethod;
use dpx_data::csv::read_csv;
use dpx_data::schema_io::read_schema;
use dpx_data::Dataset;
use std::fs::File;
use std::io::BufReader;

/// Dispatches a parsed command line. Output goes to `out` (stdout in main;
/// a buffer in tests).
pub fn run<W: std::io::Write>(cli: &Cli, out: &mut W) -> Result<(), CliError> {
    match cli.command.as_str() {
        "generate" => generate::generate(cli, out),
        "explain" => explain::explain(cli, out, false),
        "evaluate" => explain::explain(cli, out, true),
        "rank" => rank::rank(cli, out),
        "report" => report::report(cli, out),
        "serve-batch" => serve::serve_daemon(cli, out, true),
        "serve-daemon" => serve::serve_daemon(cli, out, false),
        "session" => {
            let stdin = std::io::stdin();
            crate::repl::run_session(cli, stdin.lock(), out)
        }
        "help" | "--help" | "-h" => {
            writeln!(out, "{}", crate::USAGE)?;
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown subcommand '{other}' (try 'help')"
        ))),
    }
}

fn load(cli: &Cli) -> Result<Dataset, CliError> {
    let schema_path = cli.required("schema")?.to_string();
    let data_path = cli.required("data")?.to_string();
    let schema = read_schema(BufReader::new(File::open(&schema_path)?))?;
    Ok(read_csv(schema, BufReader::new(File::open(&data_path)?))?)
}

fn parse_method(cli: &Cli) -> Result<ClusteringMethod, CliError> {
    let clust_eps = cli.f64("clust-eps", 1.0)?;
    match cli.string("method", "kmeans").as_str() {
        "kmeans" => Ok(ClusteringMethod::KMeans),
        "dp-kmeans" => Ok(ClusteringMethod::DpKMeans { epsilon: clust_eps }),
        "kmodes" => Ok(ClusteringMethod::KModes),
        "agglomerative" => Ok(ClusteringMethod::Agglomerative),
        "gmm" => Ok(ClusteringMethod::Gmm),
        other => Err(CliError::Usage(format!(
            "unknown method '{other}' (kmeans|dp-kmeans|kmodes|agglomerative|gmm)"
        ))),
    }
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

    #[test]
    fn help_prints_usage() {
        let text = run_cli(&["help"]).unwrap();
        assert!(text.contains("generate"));
        assert!(text.contains("explain"));
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
        let csv = format!("{prefix_s}.csv");
        let schema = format!("{prefix_s}.schema");

        let text = run_cli(&[
            "explain",
            "--data",
            &csv,
            "--schema",
            &schema,
            "--clusters",
            "3",
            "--method",
            "kmeans",
        ])
        .unwrap();
        assert!(text.contains("privacy audit"));
        assert!(text.contains("total ε = 0.3"));
        assert!(text.contains("Cluster 0"));

        let text = run_cli(&[
            "evaluate",
            "--data",
            &csv,
            "--schema",
            &schema,
            "--clusters",
            "3",
        ])
        .unwrap();
        assert!(text.contains("Quality: DPClustX"));
        assert!(text.contains("TabEE"));

        let text = run_cli(&[
            "rank",
            "--data",
            &csv,
            "--schema",
            &schema,
            "--clusters",
            "3",
            "--cluster",
            "1",
            "--top",
            "5",
        ])
        .unwrap();
        assert!(text.contains("ranked candidates for cluster 1"));
        assert_eq!(text.matches("SScore").count(), 5);
    }
}
