//! `oebench` — command-line access to the benchmark library: list and
//! inspect the dataset registry, extract open-environment statistics,
//! run prequential evaluations, run checkpointed sweeps, get algorithm
//! recommendations, and export generated streams as CSV.
//!
//! Exit codes: `0` success, `2` usage errors, `3..=12` the typed
//! [`oeb_core::HarnessError`] codes (see `CliError`), `1` anything else.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match oebench::cli::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(e.code);
        }
    };
    match oebench::cli::execute(&opts) {
        Ok(output) => oebench::core::console::print(&output),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.code);
        }
    }
}
