//! `rank`: the exact (non-private) ranked candidates of one cluster.

use super::cluster;
use crate::args::Cli;
use crate::CliError;
use dpclustx::counts::ScoreTable;
use dpclustx::parallel::default_threads;
use dpclustx::stage1::rank_attributes;
use dpx_data::contingency::ClusteredCounts;
use std::io::Write;

pub(super) fn rank(cli: &Cli, out: &mut dyn Write) -> Result<(), CliError> {
    let n_clusters: usize = cli.get("clusters")?;
    let cluster_id: usize = cli.get("cluster")?;
    if cluster_id >= n_clusters {
        return Err(CliError::Usage(format!(
            "--cluster {cluster_id} out of range (clusters = {n_clusters})"
        )));
    }
    let top = cli.get("top")?;
    let gamma = cli.weights()?.gamma();

    let (data, labels, _, _, _) = cluster(cli)?;
    let counts =
        ClusteredCounts::build_parallel(&data, &labels, n_clusters, default_threads(data.n_rows()));
    let st = ScoreTable::from_clustered_counts(&counts);

    writeln!(
        out,
        "⚠ exact scores computed from raw data (not DP) — diagnostics only\n"
    )?;
    writeln!(out, "ranked candidates for cluster {cluster_id}:")?;
    for (rank, (attr, score)) in rank_attributes(&st, cluster_id, gamma)
        .into_iter()
        .take(top)
        .enumerate()
    {
        writeln!(
            out,
            "  {:>2}. {:<24} SScore = {score:.2}",
            rank + 1,
            data.schema().attribute(attr).name
        )?;
    }
    Ok(())
}
