//! `repro`: `trajc repro` under its own name (see [`trajc::cli`]).

fn main() -> std::process::ExitCode {
    let args = std::iter::once("repro".to_string()).chain(std::env::args().skip(1));
    trajc::cli::main(&args.collect::<Vec<_>>())
}
