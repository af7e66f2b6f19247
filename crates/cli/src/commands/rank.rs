//! `rank`: the exact (non-private) ranked candidates of one cluster.

use super::{load, parse_method};
use crate::args::Cli;
use crate::CliError;
use dpclustx::counts::ScoreTable;
use dpclustx::parallel::default_threads;
use dpclustx::stage1::rank_attributes;
use dpx_data::contingency::ClusteredCounts;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub(super) fn rank<W: std::io::Write>(cli: &Cli, out: &mut W) -> Result<(), CliError> {
    let data = load(cli)?;
    let n_clusters = cli.required_usize("clusters")?;
    let cluster = cli.required_usize("cluster")?;
    if cluster >= n_clusters {
        return Err(CliError::Usage(format!(
            "--cluster {cluster} out of range (clusters = {n_clusters})"
        )));
    }
    let method = parse_method(cli)?;
    let seed = cli.u64("seed", 2025)?;
    let top = cli.usize("top", 10)?;

    let mut rng = StdRng::seed_from_u64(seed);
    let model = method.fit(&data, n_clusters, &mut rng);
    let labels = model.assign_all(&data);
    let counts =
        ClusteredCounts::build_parallel(&data, &labels, n_clusters, default_threads(data.n_rows()));
    let st = ScoreTable::from_clustered_counts(&counts);
    let gamma = cli.weights()?.gamma();

    writeln!(
        out,
        "⚠ exact scores computed from raw data (not DP) — diagnostics only\n"
    )?;
    writeln!(out, "ranked candidates for cluster {cluster}:")?;
    for (rank, (attr, score)) in rank_attributes(&st, cluster, gamma)
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
