//! `dpclustx` binary entry point.

use dpclustx_cli::args::Cli;
use dpclustx_cli::commands::{run, usage};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match Cli::parse(args.iter().cloned()) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n\n{}", usage(args.first().map(String::as_str)));
            std::process::exit(2);
        }
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    if let Err(e) = run(&cli, &mut out) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
