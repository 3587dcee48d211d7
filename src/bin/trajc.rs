//! `trajc` CLI entry point; all logic lives in [`trajc::cli`].

fn main() -> std::process::ExitCode {
    trajc::cli::main(&std::env::args().skip(1).collect::<Vec<_>>())
}
