//! `generate`: writes a synthetic dataset as CSV + schema.

use crate::args::Cli;
use crate::CliError;
use dpx_data::csv::write_csv;
use dpx_data::schema_io::write_schema;
use dpx_data::synth;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs::File;
use std::io::BufWriter;

pub(super) fn generate<W: std::io::Write>(cli: &Cli, out: &mut W) -> Result<(), CliError> {
    let dataset = cli.required("dataset")?.to_string();
    let prefix = cli.required("out")?.to_string();
    let groups = cli.usize("groups", 3)?;
    let seed = cli.u64("seed", 2025)?;
    let spec = match dataset.as_str() {
        "diabetes" => synth::diabetes::spec(groups),
        "census" => synth::census::spec(groups),
        "stackoverflow" | "so" => synth::stackoverflow::spec(groups),
        other => {
            return Err(CliError::Usage(format!(
                "unknown dataset '{other}' (diabetes|census|stackoverflow)"
            )))
        }
    };
    let rows = cli.usize("rows", 20_000)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let data = spec.generate(rows, &mut rng).data;

    let csv_path = format!("{prefix}.csv");
    let schema_path = format!("{prefix}.schema");
    write_csv(&data, &mut BufWriter::new(File::create(&csv_path)?))?;
    write_schema(
        data.schema(),
        &mut BufWriter::new(File::create(&schema_path)?),
    )?;
    writeln!(
        out,
        "wrote {} tuples × {} attributes to {csv_path} (+ {schema_path})",
        data.n_rows(),
        data.schema().arity()
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::tests::run_cli;

    #[test]
    fn generate_rejects_unknown_dataset() {
        assert!(matches!(
            run_cli(&["generate", "--dataset", "mnist", "--out", "/tmp/x"]),
            Err(CliError::Usage(_))
        ));
    }
}
