//! `report`: writes the explanation and its privacy audit as markdown.

use super::{cluster_and_explain, Explained};
use crate::args::Cli;
use crate::CliError;
use dpclustx::engine::NoopObserver;
use dpclustx::report::{markdown_report, ReportOptions};
use std::io::Write;

pub(super) fn report(cli: &Cli, out: &mut dyn Write) -> Result<(), CliError> {
    let out_path = cli.str("report-out")?;
    let Explained {
        config, outcome, ..
    } = cluster_and_explain(cli, &mut NoopObserver)?;
    let mut md = markdown_report(
        cli.str("title")?,
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
    std::fs::write(out_path, md)?;
    writeln!(out, "wrote markdown report to {out_path}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::commands::tests::{generated, run_on, tmpdir};

    #[test]
    fn report_writes_markdown_file() {
        let data = generated("diabetes", "rep", "800");
        let md_path = tmpdir().join("report.md");
        let text = run_on(
            "report",
            &data,
            &[
                "--clusters",
                "2",
                "--report-out",
                md_path.to_str().unwrap(),
                "--title",
                "Ward 7 clusters",
            ],
        )
        .unwrap();
        assert!(text.contains("wrote markdown report"));
        let md = std::fs::read_to_string(md_path).unwrap();
        assert!(md.starts_with("# Ward 7 clusters"));
        assert!(md.contains("## Privacy audit"));
    }
}
