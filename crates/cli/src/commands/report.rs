//! `report`: writes the explanation and its privacy audit as markdown.

use super::{load, parse_method};
use crate::args::Cli;
use crate::CliError;
use dpclustx::framework::{DpClustX, DpClustXConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub(super) fn report<W: std::io::Write>(cli: &Cli, out: &mut W) -> Result<(), CliError> {
    use dpclustx::report::{markdown_report, ReportOptions};
    let data = load(cli)?;
    let n_clusters = cli.required_usize("clusters")?;
    if n_clusters == 0 {
        return Err(CliError::Usage("--clusters must be positive".into()));
    }
    let method = parse_method(cli)?;
    let seed = cli.u64("seed", 2025)?;
    let out_path = cli.required("report-out")?.to_string();
    let config = DpClustXConfig {
        k: cli.usize("k", 3)?,
        eps_cand_set: cli.f64("eps-cand", 0.1)?,
        eps_top_comb: cli.f64("eps-comb", 0.1)?,
        eps_hist: Some(cli.f64("eps-hist", 0.1)?),
        weights: cli.weights()?,
        consistency: cli.string("consistency", "off") == "on",
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let model = method.fit(&data, n_clusters, &mut rng);
    let labels = model.assign_all(&data);
    let outcome = DpClustX::new(config).explain(&data, &labels, n_clusters, &mut rng)?;
    let mut md = markdown_report(
        &cli.string("title", "DPClustX explanation"),
        &outcome.explanation,
        Some(&outcome.accountant),
        ReportOptions::default(),
    );
    let mut distinct = outcome.assignment.clone();
    distinct.sort_unstable();
    distinct.dedup();
    if let Some(note) = dpclustx::report::accuracy_note(&config, distinct.len()) {
        md.push_str(&format!("\n*{note}*\n"));
    }
    std::fs::write(&out_path, md)?;
    writeln!(out, "wrote markdown report to {out_path}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::commands::tests::{run_cli, tmpdir};

    #[test]
    fn report_writes_markdown_file() {
        let dir = tmpdir();
        let prefix = dir.join("rep");
        let prefix_s = prefix.to_str().unwrap();
        run_cli(&[
            "generate",
            "--dataset",
            "diabetes",
            "--rows",
            "800",
            "--out",
            prefix_s,
        ])
        .unwrap();
        let csv = format!("{prefix_s}.csv");
        let schema = format!("{prefix_s}.schema");
        let md_path = dir.join("report.md");
        let md_path_s = md_path.to_str().unwrap();
        let text = run_cli(&[
            "report",
            "--data",
            &csv,
            "--schema",
            &schema,
            "--clusters",
            "2",
            "--report-out",
            md_path_s,
            "--title",
            "Ward 7 clusters",
        ])
        .unwrap();
        assert!(text.contains("wrote markdown report"));
        let md = std::fs::read_to_string(md_path).unwrap();
        assert!(md.starts_with("# Ward 7 clusters"));
        assert!(md.contains("## Privacy audit"));
    }
}
