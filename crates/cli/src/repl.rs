//! Interactive session mode — the demonstration system's main loop.
//!
//! `dpclustx-cli session --data … --schema … --budget ε` drops the analyst
//! into a prompt where every command draws from one shared privacy budget,
//! exactly like the paper's demo: cluster privately, explain, probe
//! histograms and counts, inspect the audit trail, and get refused once the
//! budget runs dry.

use crate::args::Cli;
use crate::CliError;
use dpclustx::framework::DpClustXConfig;
use dpclustx::quality::score::Weights;
use dpclustx::session::Session;
use dpclustx::text;
use dpx_data::csv::read_csv;
use dpx_data::filter::Filter;
use dpx_data::schema_io::read_schema;
use dpx_data::Schema;
use dpx_dp::budget::Epsilon;
use std::fs::File;
use std::io::{BufRead, BufReader};

/// Help text for the interactive prompt.
pub const SESSION_HELP: &str = "\
commands (every data-touching command spends privacy budget):
  cluster <k> <eps>                    DP-k-means into k clusters
  explain <eps>                        DPClustX explanation (ε split 3 ways)
  hist <attribute> <eps>               noisy histogram of one attribute
  count <eps> <attr>=<label> [...]     noisy count of a conjunctive predicate
  budget                               spent / remaining ε
  audit                                itemized spend
  help                                 this text
  quit                                 end the session
";

/// Runs the interactive loop, reading commands from `input` and writing to
/// `out` (stdin/stdout in production; buffers in tests).
pub fn run_session<I: BufRead, W: std::io::Write>(
    cli: &Cli,
    input: I,
    out: &mut W,
) -> Result<(), CliError> {
    let schema_path = cli.required("schema")?.to_string();
    let data_path = cli.required("data")?.to_string();
    let schema = read_schema(BufReader::new(File::open(&schema_path)?))?;
    let data = read_csv(schema.clone(), BufReader::new(File::open(&data_path)?))?;
    let budget = cli.f64("budget", 1.0)?;
    let seed = cli.u64("seed", 2025)?;
    let cap =
        Epsilon::new(budget).map_err(|_| CliError::Usage("--budget must be positive".into()))?;
    let mut session = Session::new(data, cap, seed);
    session.set_stage2_kernel(cli.stage2_kernel()?);

    writeln!(
        out,
        "session over {} tuples × {} attributes, budget ε = {budget}",
        session.n_rows(),
        schema.arity()
    )?;
    writeln!(out, "{SESSION_HELP}")?;

    for line in input.lines() {
        let line = line?;
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let Some((&command, rest)) = tokens.split_first() else {
            continue;
        };
        match command {
            "quit" | "exit" => break,
            "help" => writeln!(out, "{SESSION_HELP}")?,
            "budget" => writeln!(
                out,
                "spent ε = {:.4}, remaining ε = {:.4}",
                session.spent(),
                (budget - session.spent()).max(0.0)
            )?,
            "audit" => writeln!(out, "{}", session.audit())?,
            "cluster" => match parse_cluster(rest) {
                Ok((k, eps)) => match session.cluster_dp_kmeans(k, eps) {
                    Ok(()) => writeln!(out, "clustered into {k} clusters (ε = {})", eps.get())?,
                    Err(e) => writeln!(out, "refused: {e}")?,
                },
                Err(msg) => writeln!(out, "usage: cluster <k> <eps> — {msg}")?,
            },
            "explain" => match parse_eps(rest.first()) {
                Ok(eps) => {
                    let config = DpClustXConfig {
                        k: 3,
                        eps_cand_set: eps.get() / 3.0,
                        eps_top_comb: eps.get() / 3.0,
                        eps_hist: Some(eps.get() / 3.0),
                        weights: Weights::equal(),
                        consistency: false,
                    };
                    match session.explain(config) {
                        Ok(explanation) => {
                            for e in &explanation.per_cluster {
                                writeln!(out, "cluster {} → `{}`", e.cluster, e.attribute_name)?;
                                writeln!(out, "  {}", text::describe(e))?;
                            }
                        }
                        Err(e) => writeln!(out, "refused: {e}")?,
                    }
                }
                Err(msg) => writeln!(out, "usage: explain <eps> — {msg}")?,
            },
            "hist" => match parse_hist(rest, &schema) {
                Ok((attr, eps)) => match session.noisy_histogram(attr, eps) {
                    Ok(noisy) => {
                        let dom = &schema.attribute(attr).domain;
                        for (code, label) in dom.iter() {
                            writeln!(out, "  {label:>20} {:8.0}", noisy[code as usize])?;
                        }
                    }
                    Err(e) => writeln!(out, "refused: {e}")?,
                },
                Err(msg) => writeln!(out, "usage: hist <attribute> <eps> — {msg}")?,
            },
            "count" => match parse_count(rest, &schema) {
                Ok((filter, eps)) => match session.noisy_count(&filter, eps) {
                    Ok(c) => writeln!(out, "noisy count ≈ {c:.0}")?,
                    Err(e) => writeln!(out, "refused: {e}")?,
                },
                Err(msg) => writeln!(out, "usage: count <eps> <attr>=<label> [...] — {msg}")?,
            },
            other => writeln!(out, "unknown command '{other}' (try 'help')")?,
        }
    }
    writeln!(out, "session closed. final audit:\n{}", session.audit())?;
    Ok(())
}

fn parse_eps(token: Option<&&str>) -> Result<Epsilon, String> {
    let raw = token.ok_or("missing ε")?;
    let value: f64 = raw
        .parse()
        .map_err(|_| format!("'{raw}' is not a number"))?;
    Epsilon::new(value).map_err(|e| e.to_string())
}

fn parse_cluster(rest: &[&str]) -> Result<(usize, Epsilon), String> {
    let k: usize = rest
        .first()
        .ok_or("missing k")?
        .parse()
        .map_err(|_| "k must be an integer".to_string())?;
    if k == 0 {
        return Err("k must be positive".into());
    }
    Ok((k, parse_eps(rest.get(1))?))
}

fn parse_hist(rest: &[&str], schema: &Schema) -> Result<(usize, Epsilon), String> {
    let name = rest.first().ok_or("missing attribute")?;
    let attr = schema.index_of(name).map_err(|e| e.to_string())?;
    Ok((attr, parse_eps(rest.get(1))?))
}

fn parse_count(rest: &[&str], schema: &Schema) -> Result<(Filter, Epsilon), String> {
    let eps = parse_eps(rest.first())?;
    let mut filter = Filter::all();
    for clause in &rest[1..] {
        let (attr, label) = clause
            .split_once('=')
            .ok_or_else(|| format!("clause '{clause}' is not attr=label"))?;
        filter = filter
            .and_named(schema, attr, label)
            .map_err(|e| e.to_string())?;
    }
    Ok((filter, eps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpx_data::csv::write_csv;
    use dpx_data::schema_io::write_schema;
    use dpx_data::synth;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::io::BufWriter;

    fn world() -> (String, String) {
        // One directory per call: tests run in parallel, and a shared file
        // would be truncated by one test while another reads it.
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("dpclustx-repl-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let data = synth::diabetes::spec(2).generate(1_200, &mut rng).data;
        let csv = dir.join("t.csv");
        let schema = dir.join("t.schema");
        write_csv(&data, &mut BufWriter::new(File::create(&csv).unwrap())).unwrap();
        write_schema(
            data.schema(),
            &mut BufWriter::new(File::create(&schema).unwrap()),
        )
        .unwrap();
        (
            csv.to_str().unwrap().to_string(),
            schema.to_str().unwrap().to_string(),
        )
    }

    fn run(script: &str, budget: &str) -> String {
        let (csv, schema) = world();
        let cli = Cli::parse(
            [
                "session", "--data", &csv, "--schema", &schema, "--budget", budget,
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        let mut out = Vec::new();
        run_session(&cli, script.as_bytes(), &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn scripted_session_clusters_and_explains() {
        let text = run(
            "cluster 2 0.5\nexplain 0.3\nbudget\nhist age 0.1\naudit\nquit\n",
            "1.5",
        );
        assert!(text.contains("clustered into 2 clusters"));
        assert!(text.contains("cluster 0 →"));
        assert!(text.contains("spent ε = 0.8000"));
        assert!(text.contains("[90,100)")); // age histogram labels
        assert!(text.contains("session/001/dp-kmeans"));
        assert!(text.contains("session closed"));
    }

    #[test]
    fn budget_refusals_are_graceful() {
        let text = run("cluster 2 0.5\nexplain 0.9\nbudget\nquit\n", "1.0");
        assert!(text.contains("refused: privacy budget exceeded"));
        assert!(text.contains("spent ε = 0.5000"));
    }

    #[test]
    fn count_command_with_predicate() {
        let text = run("count 0.5 gender=Female\nquit\n", "1.0");
        assert!(text.contains("noisy count ≈"));
    }

    #[test]
    fn malformed_commands_report_usage() {
        let text = run(
            "cluster\nexplain nope\nhist nothere 0.1\ncount 0.1 bad-clause\nfrobnicate\nquit\n",
            "1.0",
        );
        assert!(text.contains("usage: cluster"));
        assert!(text.contains("usage: explain"));
        assert!(text.contains("usage: hist"));
        assert!(text.contains("usage: count"));
        assert!(text.contains("unknown command 'frobnicate'"));
    }

    #[test]
    fn empty_lines_and_eof_are_fine() {
        let text = run("\n\n", "1.0");
        assert!(text.contains("session closed"));
    }
}
